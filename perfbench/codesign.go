package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"dualbank/internal/bench"
	"dualbank/internal/explore"
	"dualbank/internal/machine"
)

// The codesign workload: one op is one benchmark's hardware co-design
// sweep, explore.ExploreHW over the committed geometry grid and its
// fixed compiler arms, on a fresh harness, cycling through the
// committed baseline's benchmarks in order. Every op's report must
// equal that benchmark's entry in BENCH_hw.json.

// tailPasses is how many passes op_tail_ms is taken over. Op times
// cluster by benchmark, so a tail over a varying number of passes would
// land on a different benchmark's ops from run to run; a fixed count
// keeps its rank on the same one. Every run measures at least this
// many passes.
const tailPasses = 8

// codesignInputs is what the workload builds before timing starts.
type codesignInputs struct {
	specs []machine.BankSpec
	progs []bench.Program
	want  []explore.HWBenchReport
}

// codesignSetup loads the committed baseline, resolves its grid and
// programs, and runs the first op untimed so lazy initialisation is
// done before timing starts.
func codesignSetup(ctx context.Context, path string) (*codesignInputs, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("codesign: %w", err)
	}
	var base explore.HWReport
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("codesign: %s: %w", path, err)
	}
	in := &codesignInputs{want: base.Benchmarks}
	for _, g := range base.Geometries {
		var s machine.BankSpec
		if _, err := fmt.Sscanf(g, "%dx%d", &s.Banks, &s.PortsPerBank); err != nil {
			return nil, fmt.Errorf("codesign: %s: geometry %q: %w", path, g, err)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("codesign: %s: %w", path, err)
		}
		in.specs = append(in.specs, s)
	}
	for _, br := range base.Benchmarks {
		p, ok := bench.ByName(br.Bench)
		if !ok {
			return nil, fmt.Errorf("codesign: %s: unknown benchmark %q", path, br.Bench)
		}
		in.progs = append(in.progs, p)
	}
	if len(in.progs) == 0 || len(in.specs) == 0 {
		return nil, fmt.Errorf("codesign: %s holds no sweep", path)
	}
	if _, same, err := in.op(ctx, bench.NewHarness(1), 0); err != nil || !same {
		return nil, fmt.Errorf("codesign warm-up: %s sweep does not reproduce %s (error %v)", in.progs[0].Name, path, err)
	}
	return in, nil
}

// op runs op i — the sweep of benchmark i modulo the suite — on h and
// reports whether it reproduced the committed points.
func (in *codesignInputs) op(ctx context.Context, h *bench.Harness, i int) (explore.HWBenchReport, bool, error) {
	k := i % len(in.progs)
	rep, err := explore.ExploreHW(ctx, []bench.Program{in.progs[k]}, in.specs, explore.Options{Harness: h})
	if err != nil {
		return explore.HWBenchReport{}, false, err
	}
	got := rep.Benchmarks[0]
	return got, reflect.DeepEqual(got, in.want[k]), nil
}

// jobs lists the measurements op i performs, recovered from the
// committed points' configuration keys.
func (in *codesignInputs) jobs(i int) ([]job, error) {
	k := i % len(in.progs)
	var out []job
	for _, pt := range in.want[k].Points {
		c, err := explore.ParseConfig(pt.Config)
		if err != nil {
			return nil, fmt.Errorf("codesign: %w", err)
		}
		out = append(out, job{prog: in.progs[k], mode: c.Mode(), ro: c.RunOptions()})
	}
	return out, nil
}

func runCodesign(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	var setups times
	var in *codesignInputs
	for i := 0; i < setupReps; i++ {
		s := now()
		var err error
		if in, err = codesignSetup(ctx, cfg.hwPath); err != nil {
			return nil, err
		}
		setups.add(s, now())
	}
	n := len(in.progs)
	fmt.Fprintf(cfg.log, "codesign: %d benchmarks x %d geometries\n", n, len(in.specs))

	// The loop runs whole passes over the benchmarks, at least
	// tailPasses of them untraced, so every run weighs each benchmark
	// equally. The
	// geometric means are taken over the first pass; every later op
	// reproduces the same points. A traced run measures real ops for
	// half its time and replays for the other half.
	start := time.Now()
	measure, minOps := cfg.duration, tailPasses*n
	if cfg.trace {
		measure, minOps = measure/2, n
	}
	var t times
	var hc harnessCounters
	var cycles, words []float64
	var evals float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i%n != 0 || i < minOps || time.Since(start) < measure; i++ {
		h := bench.NewHarness(1)
		rep.attempted++
		s := now()
		got, same, err := in.op(ctx, h, i)
		if err != nil || !same {
			rep.fail(err == nil)
			continue
		}
		t.add(s, now())
		hc.add(h)
		evals += float64(len(got.Points))
		if i < n {
			for _, pt := range got.Points {
				cycles = append(cycles, float64(pt.Cycles))
				words = append(words, float64(pt.Cost))
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	// Ops are recorded in order, so the first tailPasses passes are a
	// prefix (shorter only if an op failed).
	k := tailPasses * n
	if k > len(t.cpu) {
		k = len(t.cpu)
	}

	if cfg.trace {
		hc.fill(rep)
		if hc.ops > 0 {
			rep.values["explore.evals"] = evals / hc.ops
		}
		rep.merge(closedLoopWall(setups, t.wall, t.wall[:k]))
		jobs := make([][]job, n)
		for p := range jobs {
			var err error
			if jobs[p], err = in.jobs(p); err != nil {
				return nil, err
			}
		}
		ops, err := traceOps(ctx, time.Now().Add(cfg.duration/2), func(i int) []job { return jobs[i%n] })
		if err != nil {
			return nil, err
		}
		rep.attempted += int64(len(ops))
		rep.addTrace(ops)
		rep.printTable(cfg.log, true)
		return rep, nil
	}
	fmt.Fprintf(cfg.log, "codesign: %d passes; the tail is over the first %d\n", rep.attempted/int64(n), tailPasses)
	fillClosedLoop(rep, cfg, setups, t, t.cpu[:k], ms1.TotalAlloc-ms0.TotalAlloc)
	rep.values["sim_cycles_geomean"] = geomean(cycles)
	rep.values["mem_words_geomean"] = geomean(words)
	rep.printTable(cfg.log, false)
	return rep, nil
}
