package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime/metrics"
	"time"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/compact"
	"dualbank/internal/core"
	"dualbank/internal/cost"
	"dualbank/internal/ir"
	"dualbank/internal/lower"
	"dualbank/internal/machine"
	"dualbank/internal/minic"
	"dualbank/internal/opt"
	"dualbank/internal/pipeline"
	"dualbank/internal/regalloc"
	"dualbank/internal/sim"
)

// This file is the traced run's instrument. It replays one
// compile+simulate measurement stage by stage through each layer's
// public functions, timing every call from outside the program, and
// checks that the replay reproduces what the program's own entry
// points return for the same job. A replay that drifts from the
// pipeline fails the run instead of reporting numbers for code the
// workloads do not execute.

// job is one compile+simulate measurement: a program under an
// allocation mode and run options, exactly as the harness runs it.
type job struct {
	prog bench.Program
	mode alloc.Mode
	ro   bench.RunOptions
}

func (j job) String() string {
	return fmt.Sprintf("%s/%v%s", j.prog.Name, j.mode, geometry(j.ro))
}

func geometry(ro bench.RunOptions) string {
	spec := machine.BankSpec{Banks: ro.Banks, PortsPerBank: ro.Ports}
	if spec.IsDefault() {
		return ""
	}
	return " " + spec.String()
}

// outcome is what the fidelity check compares: the simulated cycle
// count, every bandwidth counter and the cost-model word accounts.
type outcome struct {
	Counters sim.Counters
	Mem      cost.Memory
}

// pipelineOptions maps run options onto compiler options the way
// bench.RunCtx does.
func pipelineOptions(j job) pipeline.Options {
	po := pipeline.Options{
		Mode: j.mode, Partitioner: j.ro.Partitioner,
		FMPasses: j.ro.FMPasses, Profiled: j.ro.Profiled,
		Spec:     machine.BankSpec{Banks: j.ro.Banks, PortsPerBank: j.ro.Ports},
		BankPerm: j.ro.BankPerm,
	}
	if j.ro.DupOnly != nil {
		po.DupOnly = make(map[string]bool, len(j.ro.DupOnly))
		for _, name := range j.ro.DupOnly {
			po.DupOnly[name] = true
		}
	}
	return po
}

// reference measures j through the program's own entry points:
// pipeline.(*Compiler).CompileCtx, compact.Validate,
// RunCompiledCtx on the compiler's recycled arena, and the program's
// output check.
func reference(ctx context.Context, cc *pipeline.Compiler, j job) (outcome, error) {
	c, err := cc.CompileCtx(ctx, j.prog.Source, j.prog.Name, pipelineOptions(j))
	if err != nil {
		return outcome{}, err
	}
	if err := compact.Validate(c.Sched); err != nil {
		return outcome{}, fmt.Errorf("%v: %w", j, err)
	}
	m, err := c.RunCompiledCtx(ctx, cc.SimBatch())
	if err != nil {
		return outcome{}, err
	}
	if err := checkOutputs(j.prog, c.IR, m); err != nil {
		return outcome{}, fmt.Errorf("%v: output check: %w", j, err)
	}
	return outcome{Counters: m.Counters(), Mem: cost.Of(c.Alloc, c.Sched)}, nil
}

func checkOutputs(p bench.Program, prog *ir.Program, m *sim.CompiledMachine) error {
	if p.Check == nil {
		return nil
	}
	return p.Check(func(name string, idx int) (uint32, error) {
		for _, g := range prog.Globals {
			if g.Name == name {
				return m.Word(g, idx)
			}
		}
		return 0, fmt.Errorf("no global %q", name)
	})
}

// stage is one traced layer call on the compile → simulate path.
type stage int

const (
	stParse stage = iota
	stAnalyze
	stLower
	stOpt
	stVerify
	stRegalloc
	stProfile
	stAlloc
	stSchedule
	stValidate
	stSimLower
	stSimRun
	stCheck
	numStages
)

// stageNames are the per-layer metric prefixes, in pipeline order.
var stageNames = [numStages]string{
	"minic.parse", "minic.analyze", "lower", "opt", "ir.verify",
	"regalloc", "sim.profile", "alloc", "compact.schedule",
	"compact.validate", "sim.lower", "sim.run", "bench.check",
}

// trace accumulates per-stage busy time, calls and heap allocation,
// plus the work counts each layer produced.
type trace struct {
	ns    [numStages]int64
	calls [numStages]int64
	alloc [numStages]uint64

	srcBytes, irOps, spilled, edges, dupArrays, instrs, cycles int64
}

// add folds o into t.
func (t *trace) add(o *trace) {
	for s := range t.ns {
		t.ns[s] += o.ns[s]
		t.calls[s] += o.calls[s]
		t.alloc[s] += o.alloc[s]
	}
	t.srcBytes += o.srcBytes
	t.irOps += o.irOps
	t.spilled += o.spilled
	t.edges += o.edges
	t.dupArrays += o.dupArrays
	t.instrs += o.instrs
	t.cycles += o.cycles
}

// totalNs is the replay time: the sum of every stage's busy time.
func (t *trace) totalNs() int64 {
	var n int64
	for _, v := range t.ns {
		n += v
	}
	return n
}

// replayer owns the reusable back-end scratch a pipeline.Compiler
// would own, so the replay allocates what the pipeline allocates.
type replayer struct {
	scanner core.Scanner
	scratch compact.Scratch
	batch   sim.Batch
	allocs  []metrics.Sample
	tr      trace
}

func newReplayer() *replayer {
	return &replayer{allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (r *replayer) heapAllocs() uint64 {
	metrics.Read(r.allocs)
	return r.allocs[0].Value.Uint64()
}

// span times one stage call and charges its allocation to the stage.
// Stages never nest, so a span's duration is its self time.
func (r *replayer) span(s stage, fn func() error) error {
	a0 := r.heapAllocs()
	t0 := time.Now()
	err := fn()
	r.tr.ns[s] += time.Since(t0).Nanoseconds()
	r.tr.alloc[s] += r.heapAllocs() - a0
	r.tr.calls[s]++
	return err
}

// replay measures j stage by stage, mirroring
// pipeline.(*Compiler).CompileCtx and bench.RunCtx call for call.
func (r *replayer) replay(ctx context.Context, j job) (outcome, error) {
	o := pipelineOptions(j)
	fail := func(err error) (outcome, error) { return outcome{}, fmt.Errorf("replay %v: %w", j, err) }
	r.tr.srcBytes += int64(len(j.prog.Source))

	var file *minic.File
	var prog *ir.Program
	var regStats map[string]regalloc.Stats
	if err := r.span(stParse, func() (err error) { file, err = minic.Parse(j.prog.Source); return }); err != nil {
		return fail(err)
	}
	if err := r.span(stAnalyze, func() error { return minic.Analyze(file) }); err != nil {
		return fail(err)
	}
	if err := r.span(stLower, func() (err error) { prog, err = lower.Program(file, j.prog.Name); return }); err != nil {
		return fail(err)
	}
	r.span(stOpt, func() error { opt.Run(prog, o.Opt); return nil })
	if err := r.span(stVerify, func() error { return ir.Verify(prog) }); err != nil {
		return fail(err)
	}
	r.tr.irOps += int64(countOps(prog))
	if err := r.span(stRegalloc, func() (err error) { regStats, err = regalloc.Run(prog); return }); err != nil {
		return fail(err)
	}
	for _, st := range regStats {
		r.tr.spilled += int64(st.Spilled)
	}

	profiled := o.Profiled && o.Mode.Partitioned()
	if o.Mode == alloc.CBProfiled || profiled {
		err := r.span(stProfile, func() error {
			in := sim.NewInterp(prog)
			in.Profile = true
			return in.RunContext(ctx)
		})
		if err != nil {
			return fail(err)
		}
	}

	ao := alloc.Options{
		Mode: o.Mode, InterruptSafe: o.InterruptSafe,
		Method: o.Partitioner, FMPasses: o.FMPasses, Profiled: profiled,
		Scanner: &r.scanner, SwapBanks: o.SwapBanks,
		Spec: o.Spec, BankPerm: o.BankPerm,
	}
	if o.DupOnly != nil {
		filter := o.DupOnly
		ao.DupFilter = func(s *ir.Symbol) bool { return filter[s.Name] }
	}
	var ar *alloc.Result
	if err := r.span(stAlloc, func() (err error) { ar, err = alloc.Run(prog, ao); return }); err != nil {
		return fail(err)
	}
	if ar.Graph != nil {
		r.tr.edges += int64(ar.Graph.Edges())
	}
	r.tr.dupArrays += int64(len(ar.Duplicated))

	var sched *compact.Program
	cfg := compact.Config{Ports: ar.Ports, MirrorBanks: o.SwapBanks, Spec: o.Spec, BankPerm: o.BankPerm}
	if err := r.span(stSchedule, func() (err error) { sched, err = compact.ScheduleWith(prog, cfg, &r.scratch); return }); err != nil {
		return fail(err)
	}
	r.tr.instrs += int64(sched.StaticInstrs())
	if err := r.span(stValidate, func() error { return compact.Validate(sched) }); err != nil {
		return fail(err)
	}

	var cp *sim.CompiledProgram
	if err := r.span(stSimLower, func() (err error) { cp, err = sim.Compile(sched); return }); err != nil {
		return fail(err)
	}
	var m *sim.CompiledMachine
	if err := r.span(stSimRun, func() (err error) { m, err = r.batch.Run(ctx, cp); return }); err != nil {
		return fail(err)
	}
	r.tr.cycles += m.Cycles
	if err := r.span(stCheck, func() error { return checkOutputs(j.prog, prog, m) }); err != nil {
		return fail(fmt.Errorf("output check: %w", err))
	}
	return outcome{Counters: m.Counters(), Mem: cost.Of(ar, sched)}, nil
}

func countOps(p *ir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Ops)
		}
	}
	return n
}

// fidelity reports a replay that does not reproduce the reference
// measurement exactly.
func fidelity(j job, replayed, ref outcome) error {
	if replayed.Counters != ref.Counters {
		return fmt.Errorf("replay fidelity: %v: counters %+v, pipeline gives %+v", j, replayed.Counters, ref.Counters)
	}
	if !reflect.DeepEqual(replayed.Mem, ref.Mem) {
		return fmt.Errorf("replay fidelity: %v: memory %+v, pipeline gives %+v", j, replayed.Mem, ref.Mem)
	}
	return nil
}

// tracedOp is one op of the traced run: every job of the op measured
// once through the real entry points (untimed by stage) and once
// through the staged replay, with the two checked against each other.
type tracedOp struct {
	refMs, replayMs float64
	tr              trace
}

// traceOp measures jobs both ways. A fidelity mismatch is an error.
func traceOp(ctx context.Context, jobs []job) (tracedOp, error) {
	var op tracedOp
	cc := new(pipeline.Compiler)
	refs := make([]outcome, len(jobs))
	t0 := time.Now()
	for i, j := range jobs {
		var err error
		if refs[i], err = reference(ctx, cc, j); err != nil {
			return op, err
		}
	}
	op.refMs = msSince(t0)

	r := newReplayer()
	t0 = time.Now()
	for i, j := range jobs {
		got, err := r.replay(ctx, j)
		if err != nil {
			return op, err
		}
		if err := fidelity(j, got, refs[i]); err != nil {
			return op, err
		}
	}
	op.replayMs = msSince(t0)
	op.tr = r.tr
	return op, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// traceOps runs traced ops until deadline, at least one; op i replays
// jobsOf(i).
func traceOps(ctx context.Context, deadline time.Time, jobsOf func(i int) []job) ([]tracedOp, error) {
	var ops []tracedOp
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		op, err := traceOp(ctx, jobsOf(i))
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// addTrace sets the per-stage metrics and layer work counts, each per
// op, and the tracing overhead: the median replay op against the
// median op of the same jobs through the real entry points.
func (r *report) addTrace(ops []tracedOp) {
	var sum trace
	var refs, replays []float64
	for i := range ops {
		sum.add(&ops[i].tr)
		refs = append(refs, ops[i].refMs)
		replays = append(replays, ops[i].replayMs)
	}
	n := float64(len(ops))
	total := float64(sum.totalNs())
	for s, name := range stageNames {
		r.values[name+".ms"] = float64(sum.ns[s]) / 1e6 / n
		r.values[name+".share"] = float64(sum.ns[s]) / total
		r.values[name+".calls"] = float64(sum.calls[s]) / n
		r.values[name+".alloc_kb"] = float64(sum.alloc[s]) / 1024 / n
	}
	r.values["minic.src_kb"] = float64(sum.srcBytes) / 1024 / n
	r.values["ir.ops"] = float64(sum.irOps) / n
	r.values["regalloc.spilled"] = float64(sum.spilled) / n
	r.values["alloc.edges"] = float64(sum.edges) / n
	r.values["alloc.dup_arrays"] = float64(sum.dupArrays) / n
	r.values["compact.instrs"] = float64(sum.instrs) / n
	r.values["sim.cycles"] = float64(sum.cycles) / n
	r.values["trace.overhead_pct"] = (median(replays)/median(refs) - 1) * 100
}
