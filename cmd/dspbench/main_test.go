package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dualbank/internal/bench"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestCommittedBaselines regenerates the paper's evaluation — the
// dspbench -all report — in-process and requires it to match the
// committed golden byte for byte. The report is deterministic at any
// -parallel width, so any difference means a compiler pass, the cost
// model or a simulator changed what the paper's figures and tables
// show. Regenerate with
//
//	go test ./cmd/dspbench -run TestCommittedBaselines -update
//
// only when such a change is intended.
func TestCommittedBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "all.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("dspbench -all diverged from %s:\ngot:\n%s", golden, stdout.String())
	}
}

// TestRunErrors pins the command's exit codes: usage errors exit 2,
// runtime errors 1.
func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown benchmark: exit %d, want 2", code)
	}
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"-engine", "nope"}, &stdout, &stderr); code != 1 {
		t.Errorf("bad engine: exit %d, want 1", code)
	}
}

// TestRunOneEngines drives -bench on both engines: every mode line is
// reported, and the reference engine prints exactly what the
// production engine prints.
func TestRunOneEngines(t *testing.T) {
	var want string
	for _, engine := range []string{"compiled", "machine"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-bench", "fir_32_1", "-engine", engine}, &stdout, &stderr); code != 0 {
			t.Fatalf("engine %s: exit %d, stderr: %s", engine, code, stderr.String())
		}
		out := stdout.String()
		for _, mode := range []string{"single-bank", "CB ", "Pr ", "Dup ", "full-dup", "Ideal"} {
			if !strings.Contains(out, mode) {
				t.Errorf("engine %s: no %q line in:\n%s", engine, mode, out)
			}
		}
		if want == "" {
			want = out
		} else if out != want {
			t.Errorf("engine %s diverges:\ngot:\n%s\nwant:\n%s", engine, out, want)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "fir_32_1", "-partitioner", "bogus"}, &stdout, &stderr); code != 1 {
		t.Errorf("bad partitioner: exit %d, want 1", code)
	}
	if code := run([]string{"-engine", "fast", "-bench", "fir_32_1"}, &stdout, &stderr); code != 1 {
		t.Errorf("retired fast engine: exit %d, want 1", code)
	}
}

// TestRunSelective drives the PCR-driven selective duplication report
// on lpc, whose one candidate array is kept.
func TestRunSelective(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-selective", "lpc"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"selective duplication for lpc", "candidates: [s]", " kept ", "chosen: [s]"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if code := run([]string{"-selective", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown benchmark: exit %d, want 2", code)
	}
}

// TestSimBenchAndCheck drives -simbench -json and -simcheck end to end
// with a shortened timing budget: the measured report round-trips, a
// baseline the run matches passes, and baselines the run cannot be
// compared against fail instead of passing vacuously.
func TestSimBenchAndCheck(t *testing.T) {
	defer func(d time.Duration) { simBenchMinTime = d }(simBenchMinTime)
	simBenchMinTime = time.Millisecond
	dir := t.TempDir()

	measured := filepath.Join(dir, "measured.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-simbench", "-json", measured}, &stdout, &stderr); code != 0 {
		t.Fatalf("-simbench: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "vs machine") {
		t.Errorf("-simbench table lacks speedups:\n%s", stdout.String())
	}
	rep, err := bench.ReadReport(measured)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(bench.SimBenchSuite); len(rep.SimBench) != want {
		t.Fatalf("-json wrote %d rows, want %d", len(rep.SimBench), want)
	}

	// writeBaseline commits synthetic rows: machine and compiled ns/run
	// per benchmark, for the suite plus any extra names.
	writeBaseline := func(name string, engines [2]string, extra ...string) string {
		t.Helper()
		var rows []bench.SimBenchRow
		for _, b := range append(append([]string(nil), bench.SimBenchSuite...), extra...) {
			rows = append(rows,
				bench.SimBenchRow{Bench: b, Engine: engines[0], NsPerRun: 100},
				bench.SimBenchRow{Bench: b, Engine: engines[1], NsPerRun: 100})
		}
		path := filepath.Join(dir, name)
		if err := (&bench.Report{SimBench: rows}).WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	pair := [2]string{"machine", "compiled"}
	noRows := filepath.Join(dir, "norows.json")
	if err := (&bench.Report{}).WriteFile(noRows); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, baseline string
		code           int
		want           string
	}{
		// A 1x baseline: the compiled engine beats the reference by far
		// more than that on every benchmark.
		{"parity baseline", writeBaseline("parity.json", pair), 0, "no compiled-engine regression"},
		{"baseline names an unmeasured benchmark", writeBaseline("ghost.json", pair, "ghost"), 1,
			"ghost: current run has no machine/compiled pair"},
		{"baseline without a machine/compiled pair", writeBaseline("legacy.json", [2]string{"predecoded", "compiled"}), 1,
			"nothing compared"},
		{"baseline without simbench rows", noRows, 1, "carries no simbench rows"},
		{"missing baseline file", filepath.Join(dir, "absent.json"), 1, "absent.json"},
	}
	for _, c := range cases {
		stdout.Reset()
		stderr.Reset()
		code := run([]string{"-simcheck", c.baseline}, &stdout, &stderr)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d; stderr: %s", c.name, code, c.code, stderr.String())
		}
		if !strings.Contains(stdout.String()+stderr.String(), c.want) {
			t.Errorf("%s: output lacks %q:\nstdout: %s\nstderr: %s", c.name, c.want, stdout.String(), stderr.String())
		}
	}
}

// TestRunSectionReporting drives one section with every reporting
// flag: the figure text on stdout, per-section and per-run timings on
// stderr, a JSON report carrying the section rows, and valid CPU and
// heap profiles.
func TestRunSectionReporting(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	args := []string{"-fig7", "-parallel", "1", "-timing", "-json", jsonPath, "-cpuprofile", cpu, "-memprofile", mem}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "Figure 7:") || strings.Contains(stdout.String(), "Figure 8") {
		t.Errorf("-fig7 printed more or less than Figure 7:\n%s", stdout.String())
	}
	for _, want := range []string{"dspbench: figure7", "dspbench: run fir_32_1", "phase totals", "(parallel=1)"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("-timing output lacks %q:\n%s", want, stderr.String())
		}
	}
	rep, err := bench.ReadReport(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sections) != 1 || rep.Sections[0].Name != "figure7" || len(rep.Sections[0].Figure) == 0 {
		t.Errorf("report sections = %+v, want one populated figure7", rep.Sections)
	}
	if len(rep.Runs) == 0 || rep.Cache.Misses == 0 {
		t.Errorf("report lacks run timings or cache stats: runs=%d cache=%+v", len(rep.Runs), rep.Cache)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (%v)", p, err)
		}
	}

	stdout.Reset()
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	if n := strings.Count(stdout.String(), "\n"); n != len(bench.Names()) {
		t.Errorf("-list printed %d names, want %d", n, len(bench.Names()))
	}
	if code := run([]string{"-fig7", "-json", filepath.Join(dir, "missing", "r.json")}, &stdout, &stderr); code != 1 {
		t.Errorf("unwritable -json path: exit %d, want 1", code)
	}
}
