package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dualbank/internal/genmc/corpus"
)

// TestRunSmoke drives the whole driver in-process over a small corpus
// and checks the summary, the JSON report, and the exit code.
func TestRunSmoke(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-n", "12", "-seed", "5", "-json", path, "-quiet"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "12 generated programs") {
		t.Errorf("summary missing program count:\n%s", stdout.String())
	}
	rep, err := corpus.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 12 || rep.Seed != 5 || len(rep.Rows) != 12 {
		t.Errorf("report shape wrong: n=%d seed=%d rows=%d", rep.N, rep.Seed, len(rep.Rows))
	}
	if len(rep.Failures) != 0 {
		t.Errorf("verification failures: %v", rep.Failures)
	}
}

// TestRunDeterministic: two runs with equal inputs write byte-identical
// reports — the property the committed baseline diff relies on.
func TestRunDeterministic(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	var out bytes.Buffer
	if code := run([]string{"-n", "9", "-seed", "3", "-workers", "4", "-json", a, "-quiet"}, &out, &out); code != 0 {
		t.Fatalf("first run exited %d: %s", code, out.String())
	}
	if code := run([]string{"-n", "9", "-seed", "3", "-workers", "1", "-json", b, "-quiet"}, &out, &out); code != 0 {
		t.Fatalf("second run exited %d: %s", code, out.String())
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Error("reports differ across worker widths")
	}
}

// TestRunBadFlags: unknown flags exit 2 without panicking.
func TestRunBadFlags(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &out); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
}

// TestRunCertifySmoke drives the certified-sample mode through the
// CLI: per-archetype table on stdout, report JSON at the -json path.
func TestRunCertifySmoke(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "certify.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-certify", "-n", "12", "-seed", "5", "-json", path, "-quiet"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"certified sample: 12 generated programs", "fm-opt", "FM provably optimal"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep corpus.CertifyReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("certify report JSON: %v", err)
	}
	if rep.N != 12 || rep.Seed != 5 || len(rep.Rows) != 12 {
		t.Errorf("report shape wrong: n=%d seed=%d rows=%d", rep.N, rep.Seed, len(rep.Rows))
	}
}

// TestCommittedBaselines regenerates the committed corpus baseline,
// `dspcorpus -n 1000 -seed 1`, in-process and requires a clean run and
// a byte-identical BENCH_corpus.json. Any drift means the generator,
// an engine or an allocation pass changed behaviour. The run takes
// tens of seconds, so it is opt-in via DSP_CORPUS=1. On a mismatch the
// regenerated report is left at BENCH_corpus.new.json in the module
// root for inspection; to accept an intended change, move it over the
// committed file.
func TestCommittedBaselines(t *testing.T) {
	if os.Getenv("DSP_CORPUS") != "1" {
		t.Skip("set DSP_CORPUS=1 to regenerate and compare BENCH_corpus.json")
	}
	root := filepath.Join("..", "..")
	want, err := os.ReadFile(filepath.Join(root, "BENCH_corpus.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_corpus.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-n", "1000", "-seed", "1", "-json", path, "-quiet"}, &stdout, &stderr); code != 0 {
		t.Errorf("dspcorpus -n 1000 -seed 1: exit %d, stderr:\n%s", code, stderr.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	line := 0
	for line < len(gl) && line < len(wl) && gl[line] == wl[line] {
		line++
	}
	at := func(lines []string) string {
		if line < len(lines) {
			return lines[line]
		}
		return "<end of file>"
	}
	newPath := filepath.Join(root, "BENCH_corpus.new.json")
	if err := os.WriteFile(newPath, got, 0o644); err != nil {
		t.Error(err)
	}
	t.Errorf("BENCH_corpus.json drifted from the committed baseline; first difference at line %d:\n-%s\n+%s\nregenerated report: %s",
		line+1, at(wl), at(gl), newPath)
}
