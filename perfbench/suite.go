package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
)

// The suite workload: one op is the paper's whole evaluation, the
// sections `dspbench -all` prints, on a fresh harness. Its rendered
// text is byte-identical to dspbench -all's standard output.

// sweepTaps and sweepSamples are the FIR sweep dspbench -all runs.
var sweepTaps = []int{8, 16, 32, 64, 128, 256}

const sweepSamples = 16

// suiteOp runs one evaluation on h and returns its rendered text.
func suiteOp(h *bench.Harness) (string, error) {
	var sb strings.Builder
	sb.WriteString(bench.RenderTables() + "\n")
	f7, err := h.Figure7()
	if err != nil {
		return "", err
	}
	sb.WriteString(bench.RenderFigure(
		"Figure 7: Performance Gain for DSP Kernels (over single-bank baseline)",
		f7, bench.Figure7Modes) + "\n")
	f8, err := h.Figure8()
	if err != nil {
		return "", err
	}
	sb.WriteString(bench.RenderFigure(
		"Figure 8: Performance Gain for DSP Applications (over single-bank baseline)",
		f8, bench.Figure8Modes) + "\n")
	t3, err := h.Table3()
	if err != nil {
		return "", err
	}
	sb.WriteString(bench.RenderTable3(t3) + "\n")
	orgs, err := h.Organizations()
	if err != nil {
		return "", err
	}
	sb.WriteString(bench.RenderFigure(
		"Memory organisations: low-order interleaved (hardware conflict stalls) vs high-order banked (CB/Dup) vs dual-ported",
		orgs, bench.OrganizationModes) + "\n")
	sweep, err := h.SweepFIR(sweepTaps, sweepSamples)
	if err != nil {
		return "", err
	}
	sb.WriteString(bench.RenderSweep(
		"FIR order sensitivity: CB gain vs filter length (16 samples)", sweep) + "\n")
	return sb.String(), nil
}

// suiteJobs lists the distinct measurements one evaluation computes,
// in first-use order: each section's programs under the single-bank
// baseline and the section's modes.
func suiteJobs() []job {
	all := append(bench.Kernels(), bench.Applications()...)
	var sweep []bench.Program
	for _, t := range sweepTaps {
		sweep = append(sweep, bench.FIR(t, sweepSamples))
	}
	sections := []struct {
		progs []bench.Program
		modes []alloc.Mode
	}{
		{bench.Kernels(), bench.Figure7Modes},
		{bench.Applications(), bench.Figure8Modes},
		{bench.Applications(), bench.Table3Modes},
		{all, bench.OrganizationModes},
		{sweep, []alloc.Mode{alloc.CB}},
	}
	seen := make(map[string]bool)
	var jobs []job
	for _, s := range sections {
		for _, p := range s.progs {
			for _, m := range append([]alloc.Mode{alloc.SingleBank}, s.modes...) {
				j := job{prog: p, mode: m}
				if !seen[j.String()] {
					seen[j.String()] = true
					jobs = append(jobs, j)
				}
			}
		}
	}
	return jobs
}

// suiteSetup builds the inputs — the suite's sources and the job list
// — and runs one untimed evaluation so lazy initialisation is done
// before timing starts. It checks that the job list is exactly the set
// of measurements the harness computed, so the traced replay runs the
// same jobs as the workload.
func suiteSetup(workers int) ([]job, string, error) {
	jobs := suiteJobs()
	h := bench.NewHarness(workers)
	text, err := suiteOp(h)
	if err != nil {
		return nil, "", fmt.Errorf("suite warm-up: %w", err)
	}
	computed := make(map[string]bool)
	for _, t := range h.Timings() {
		computed[job{prog: bench.Program{Name: t.Bench}, mode: t.Mode}.String()] = true
	}
	if len(computed) != len(jobs) {
		return nil, "", fmt.Errorf("suite: harness computed %d measurements, job list has %d", len(computed), len(jobs))
	}
	for _, j := range jobs {
		if !computed[j.String()] {
			return nil, "", fmt.Errorf("suite: job %v was not computed by the harness", j)
		}
	}
	return jobs, text, nil
}

// geomeans reads every job's measurement back from h's cache and
// returns the geometric means of cycles and memory words.
func geomeans(ctx context.Context, h *bench.Harness, jobs []job) (cycles, words float64, err error) {
	var cs, ws []float64
	for _, j := range jobs {
		ro := j.ro
		ro.Engine = h.Engine
		res, cached, err := h.RunCtx(ctx, j.prog, j.mode, ro)
		if err != nil {
			return 0, 0, err
		}
		if !cached {
			return 0, 0, fmt.Errorf("suite: %v was not measured by the op", j)
		}
		cs = append(cs, float64(res.Cycles))
		ws = append(ws, float64(res.Mem.Total()))
	}
	return geomean(cs), geomean(ws), nil
}

func runSuite(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	var setups times
	var jobs []job
	var want string
	for i := 0; i < setupReps; i++ {
		s := now()
		var err error
		if jobs, want, err = suiteSetup(cfg.workers); err != nil {
			return nil, err
		}
		setups.add(s, now())
	}
	digest := sha256.Sum256([]byte(want))
	fmt.Fprintf(cfg.log, "suite: %d distinct jobs per op, rendered text sha256 %x\n", len(jobs), digest)

	// A traced run measures real ops for half its time, for the counters
	// the program keeps, and replays the same jobs stage by stage for
	// the other half.
	start := time.Now()
	measure := cfg.duration
	if cfg.trace {
		measure /= 2
	}
	var t times
	var hc harnessCounters
	var cyc, words float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for rep.attempted == 0 || time.Since(start) < measure {
		h := bench.NewHarness(cfg.workers)
		rep.attempted++
		s := now()
		text, err := suiteOp(h)
		e := now()
		if err != nil || text != want {
			rep.fail(err == nil)
			continue
		}
		hc.add(h)
		c, w, err := geomeans(ctx, h, jobs)
		if err != nil || (cyc != 0 && (c != cyc || w != words)) {
			rep.fail(true)
			continue
		}
		cyc, words = c, w
		t.add(s, e)
	}
	runtime.ReadMemStats(&ms1)

	if cfg.trace {
		hc.fill(rep)
		rep.merge(closedLoopWall(setups, t.wall, t.wall))
		ops, err := traceOps(ctx, start.Add(cfg.duration), func(int) []job { return jobs })
		if err != nil {
			return nil, err
		}
		rep.attempted += int64(len(ops))
		rep.addTrace(ops)
		rep.printTable(cfg.log, true)
		return rep, nil
	}
	fillClosedLoop(rep, cfg, setups, t, t.cpu, ms1.TotalAlloc-ms0.TotalAlloc)
	rep.values["sim_cycles_geomean"] = cyc
	rep.values["mem_words_geomean"] = words
	rep.printTable(cfg.log, false)
	return rep, nil
}

// fillClosedLoop sets the end-to-end metrics a closed loop shares from
// its ok ops' times, the tail taken over tailCPU, and prints the
// wall-clock figures.
func fillClosedLoop(rep *report, cfg config, setups times, t times, tailCPU []float64, allocBytes uint64) {
	rep.values["setup_s"] = median(setups.cpu) / 1e3
	rep.values["ops_per_cpu_s"] = float64(len(t.cpu)) / (sum(t.cpu) / 1e3)
	rep.values["op_p50_ms"] = median(t.cpu)
	rep.values["op_tail_ms"], _ = tail(tailCPU)
	rep.values["ok_ratio"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	rep.values["alloc_kb_per_op"] = float64(allocBytes) / 1024 / float64(rep.attempted)
	fmt.Fprintln(cfg.log, "op_p50_ms and op_tail_ms are CPU milliseconds per op;", tailNote("op_tail_ms", tailCPU))
	printWall(cfg.log, closedLoopWall(setups, t.wall, t.wall[:len(tailCPU)]))
}

// closedLoopWall returns the wall-clock metrics of a closed loop, the
// tail taken over tailWall.
func closedLoopWall(setups times, wall, tailWall []float64) map[string]float64 {
	m := map[string]float64{
		"wall.setup_s":   median(setups.wall) / 1e3,
		"wall.ops_per_s": float64(len(wall)) / (sum(wall) / 1e3),
		"wall.op_p50_ms": median(wall),
	}
	m["wall.op_tail_ms"], _ = tail(tailWall)
	return m
}

// printWall writes the wall-clock metrics on one line.
func printWall(w io.Writer, m map[string]float64) {
	fmt.Fprintf(w, "wall clock: setup %.4g s, %.4g op/s, p50 %.4g ms, tail %.4g ms\n",
		m["wall.setup_s"], m["wall.ops_per_s"], m["wall.op_p50_ms"], m["wall.op_tail_ms"])
}
