// Command dspbench regenerates the paper's evaluation: Figure 7
// (kernel gains under CB partitioning vs the dual-ported Ideal),
// Figure 8 (application gains under CB, profiled weights, partial
// duplication, and Ideal), and Table 3 (performance/cost trade-offs).
//
// The experiments fan out across workers over a memoized compile/run
// cache, so the single-bank baseline and arms shared between figures
// are measured exactly once per invocation. -parallel bounds the
// workers (the printed figures and tables are byte-identical at any
// width), -timing reports
// per-section wall clock and cache traffic on stderr, and -json writes
// the full results with timings to a machine-readable file.
//
// Usage:
//
//	dspbench [-fig7] [-fig8] [-table3] [-all] [-bench name]
//	         [-parallel N] [-timing] [-json path]
//	         [-cpuprofile path] [-memprofile path]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/core"
	"dualbank/internal/pipeline"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and exit code, so tests can
// run the whole command in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dspbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig7 := fs.Bool("fig7", false, "run the kernel experiment (Figure 7)")
	fig8 := fs.Bool("fig8", false, "run the application experiment (Figure 8)")
	table3 := fs.Bool("table3", false, "run the performance/cost table (Table 3)")
	orgs := fs.Bool("organizations", false, "compare memory organisations (low-order vs high-order vs dual-ported)")
	tables := fs.Bool("tables", false, "print the benchmark inventories (Tables 1 and 2)")
	sweep := fs.Bool("sweep", false, "sweep FIR filter order vs CB gain")
	all := fs.Bool("all", false, "run everything")
	one := fs.String("bench", "", "run a single benchmark across all modes")
	selective := fs.String("selective", "", "run PCR-driven selective duplication on one benchmark")
	list := fs.Bool("list", false, "list benchmark names")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent compile+simulate jobs for the experiment harness")
	timing := fs.Bool("timing", false, "report per-section wall clock, per-run compile/simulate split, and cache traffic on stderr")
	partitioner := fs.String("partitioner", "greedy", "graph partitioner for -bench runs: greedy, kl, anneal, fm, or exact")
	engineName := fs.String("engine", "compiled", "simulation engine: compiled or machine")
	simbench := fs.Bool("simbench", false, "measure per-engine simulator throughput (not part of -all)")
	simcheck := fs.String("simcheck", "", "re-measure simulator throughput and fail if the compiled/machine speedup regressed >10% vs this baseline JSON")
	jsonPath := fs.String("json", "", "write harness results and timings to this JSON file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	engine, err := bench.ParseEngine(*engineName)
	if err != nil {
		return fail(stderr, err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(stderr, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(stderr, err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	if *list {
		for _, n := range bench.Names() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	if *selective != "" {
		return runSelective(*selective, stdout, stderr)
	}
	if *one != "" {
		return runOne(*one, *partitioner, engine, stdout, stderr)
	}
	if *simbench || *simcheck != "" {
		return runSimBench(*simcheck, *jsonPath, stdout, stderr)
	}
	if !*fig7 && !*fig8 && !*table3 && !*orgs && !*tables && !*sweep {
		*all = true
	}

	h := bench.NewHarness(*parallel)
	h.Engine = engine
	report := &bench.Report{GOMAXPROCS: runtime.GOMAXPROCS(0), Parallel: h.Parallel}
	start := time.Now()

	// section runs one experiment, prints its text (stdout is
	// byte-identical at any -parallel width), and records rows and
	// wall-clock in the JSON report.
	section := func(name string, run func() (bench.Section, string, error)) error {
		s0 := time.Now()
		sec, text, err := run()
		if err != nil {
			return err
		}
		sec.Name = name
		sec.Seconds = time.Since(s0).Seconds()
		fmt.Fprintln(stdout, text)
		if *timing {
			st := h.Stats()
			fmt.Fprintf(stderr, "dspbench: %-14s %8.3fs  cache %d hits / %d misses\n",
				name, sec.Seconds, st.Hits, st.Misses)
		}
		report.AddSection(sec)
		return nil
	}

	if *tables || *all {
		fmt.Fprintln(stdout, bench.RenderTables())
	}
	sections := []struct {
		on   bool
		name string
		run  func() (bench.Section, string, error)
	}{
		{*fig7, "figure7", func() (bench.Section, string, error) {
			rows, err := h.Figure7()
			return bench.Section{Figure: rows}, bench.RenderFigure(
				"Figure 7: Performance Gain for DSP Kernels (over single-bank baseline)",
				rows, bench.Figure7Modes), err
		}},
		{*fig8, "figure8", func() (bench.Section, string, error) {
			rows, err := h.Figure8()
			return bench.Section{Figure: rows}, bench.RenderFigure(
				"Figure 8: Performance Gain for DSP Applications (over single-bank baseline)",
				rows, bench.Figure8Modes), err
		}},
		{*table3, "table3", func() (bench.Section, string, error) {
			rows, err := h.Table3()
			return bench.Section{Table3: rows}, bench.RenderTable3(rows), err
		}},
		{*orgs, "organizations", func() (bench.Section, string, error) {
			rows, err := h.Organizations()
			return bench.Section{Figure: rows}, bench.RenderFigure(
				"Memory organisations: low-order interleaved (hardware conflict stalls) vs high-order banked (CB/Dup) vs dual-ported",
				rows, bench.OrganizationModes), err
		}},
		{*sweep, "sweep_fir", func() (bench.Section, string, error) {
			rows, err := h.SweepFIR([]int{8, 16, 32, 64, 128, 256}, 16)
			return bench.Section{Sweep: rows}, bench.RenderSweep(
				"FIR order sensitivity: CB gain vs filter length (16 samples)", rows), err
		}},
	}
	for _, sec := range sections {
		if sec.on || *all {
			if err := section(sec.name, sec.run); err != nil {
				return fail(stderr, err)
			}
		}
	}

	report.Cache = h.Stats()
	report.Runs = h.Timings()
	report.TotalSeconds = time.Since(start).Seconds()
	if *timing {
		var compileSum, simSum float64
		for _, rt := range report.Runs {
			compileSum += rt.CompileSeconds
			simSum += rt.SimSeconds
			fmt.Fprintf(stderr, "dspbench: run %-14s %-12v compile %7.3fs  sim %8.3fs\n",
				rt.Bench, rt.Mode, rt.CompileSeconds, rt.SimSeconds)
		}
		fmt.Fprintf(stderr, "dspbench: phase totals   compile %7.3fs  sim %8.3fs over %d runs\n",
			compileSum, simSum, len(report.Runs))
		fmt.Fprintf(stderr, "dspbench: total          %8.3fs  cache %d hits / %d misses (parallel=%d)\n",
			report.TotalSeconds, report.Cache.Hits, report.Cache.Misses, h.Parallel)
	}
	if *jsonPath != "" {
		if err := report.WriteFile(*jsonPath); err != nil {
			return fail(stderr, err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(stderr, err)
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(stderr, err)
		}
	}
	return 0
}

func runOne(name, partitioner string, engine bench.Engine, stdout, stderr io.Writer) int {
	p, ok := bench.ByName(name)
	if !ok {
		fmt.Fprintf(stderr, "dspbench: unknown benchmark %q (use -list)\n", name)
		return 2
	}
	method, err := core.ParseMethod(partitioner)
	if err != nil {
		return fail(stderr, err)
	}
	modes := []alloc.Mode{
		alloc.SingleBank, alloc.CB, alloc.CBProfiled,
		alloc.CBDup, alloc.FullDup, alloc.Ideal,
	}
	cc := new(pipeline.Compiler)
	var base bench.Result
	for _, m := range modes {
		res, err := bench.RunWith(p, m, bench.RunOptions{Partitioner: method, Compiler: cc, Engine: engine})
		if err != nil {
			return fail(stderr, err)
		}
		if m == alloc.SingleBank {
			base = res
			fmt.Fprintf(stdout, "%-12s cycles=%-10d cost=%d\n", m, res.Cycles, res.Mem.Total())
			continue
		}
		fmt.Fprintf(stdout, "%-12s cycles=%-10d gain=%+6.1f%% cost=%-8d dupStores=%d dup=%v\n",
			m, res.Cycles, bench.Gain(base, res), res.Mem.Total(), res.DupStores, res.Duplicated)
	}
	return 0
}

// simBenchMinTime is the per-engine timed-loop budget of -simbench and
// -simcheck.
var simBenchMinTime = 100 * time.Millisecond

// runSimBench measures per-engine simulator throughput over the
// standard suite, optionally writing a BENCH_sim.json-style report and
// optionally gating on a committed baseline: with a non-empty
// checkPath the run exits 1 if any benchmark's compiled-over-machine
// speedup fell more than 10% below the baseline's (and below the 10x
// kernel floor), or if the comparison is vacuous. The speedup ratio —
// not raw ns/run — is what's compared, so the check transfers across
// host speeds.
func runSimBench(checkPath, jsonPath string, stdout, stderr io.Writer) int {
	rows, err := bench.SimBench(bench.SimBenchSuite, simBenchMinTime)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprint(stdout, bench.RenderSimBench(rows))
	if jsonPath != "" {
		report := &bench.Report{GOMAXPROCS: runtime.GOMAXPROCS(0), SimBench: rows}
		if err := report.WriteFile(jsonPath); err != nil {
			return fail(stderr, err)
		}
	}
	if checkPath == "" {
		return 0
	}
	baseline, err := bench.ReadReport(checkPath)
	if err != nil {
		return fail(stderr, err)
	}
	if len(baseline.SimBench) == 0 {
		fmt.Fprintf(stderr, "dspbench: %s carries no simbench rows\n", checkPath)
		return 1
	}
	if fails := bench.SimCheck(rows, baseline.SimBench, 0.10); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(stderr, "dspbench: REGRESSION:", f)
		}
		return 1
	}
	fmt.Fprintf(stdout, "simcheck: no compiled-engine regression vs %s\n", checkPath)
	return 0
}

// runSelective demonstrates the paper's §5 refinement: duplicate only
// the arrays whose performance gain justifies their memory cost.
func runSelective(name string, stdout, stderr io.Writer) int {
	p, ok := bench.ByName(name)
	if !ok {
		fmt.Fprintf(stderr, "dspbench: unknown benchmark %q (use -list)\n", name)
		return 2
	}
	res, err := pipeline.CompileSelective(p.Source, p.Name, pipeline.SelectiveOptions{})
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "selective duplication for %s\n", p.Name)
	fmt.Fprintf(stdout, "plain CB: %d cycles, PCR %.3f\n", res.BaseCycles, res.BasePCR)
	fmt.Fprintf(stdout, "candidates: %v\n", res.Candidates)
	for _, tr := range res.Trials {
		verdict := "rejected"
		if tr.Kept {
			verdict = "kept"
		}
		fmt.Fprintf(stdout, "  %-10s %-8s cycles=%-8d PG=%.2f CI=%.2f PCR=%.3f  (%s)\n",
			tr.Symbol, verdict, tr.Cycles, tr.PG, tr.CI, tr.PCR, tr.Reason)
	}
	fmt.Fprintf(stdout, "chosen: %v\n", res.Chosen)
	return 0
}

// fail reports a runtime error and returns its exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "dspbench:", err)
	return 1
}
