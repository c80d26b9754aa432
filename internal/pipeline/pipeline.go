// Package pipeline is the compiler driver: it chains the MiniC
// front-end, the optimizer, the register allocator, the data
// allocation pass, and the operation-compaction pass into a single
// Compile call, and wraps the simulator for execution. Every
// experiment arm of the paper is one Options.Mode value.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"dualbank/internal/alloc"
	"dualbank/internal/compact"
	"dualbank/internal/core"
	"dualbank/internal/ir"
	"dualbank/internal/lower"
	"dualbank/internal/machine"
	"dualbank/internal/minic"
	"dualbank/internal/opt"
	"dualbank/internal/regalloc"
	"dualbank/internal/sim"
)

// Options selects the data-allocation mode and pass configuration.
type Options struct {
	Mode alloc.Mode
	// InterruptSafe turns on atomic duplicated-store pairs (§3.2).
	InterruptSafe bool
	// Opt configures the machine-independent optimizer.
	Opt opt.Options
	// DupOnly, when non-nil, names the exact CBDup duplication set:
	// any partitioned array it contains is replicated, whether or not
	// the interference analysis marked it. Used by the
	// selective-duplication refinement and the design-space explorer.
	DupOnly map[string]bool
	// Partitioner selects the graph-partitioning algorithm.
	Partitioner core.Method
	// FMPasses bounds the FM partitioner's refinement passes: 0 means
	// the library default, negative stops after the greedy-equivalent
	// first phase. Ignored unless Partitioner is core.MethodFM.
	FMPasses int
	// Profiled runs a profiling pass and uses profile-derived
	// interference-edge weights for any partitioned mode (CBProfiled
	// implies it). This decouples the weighting policy from the mode so
	// profiling can combine with duplication.
	Profiled bool
	// SwapBanks mirrors the data allocation wholesale — everything
	// bound for bank X lands in Y and vice versa. The banks are
	// architecturally identical, so cycle counts must not change; the
	// metamorphic tests compile every benchmark both ways to prove it.
	SwapBanks bool
	// Spec selects the machine's bank geometry (bank count × ports per
	// bank); the zero value is the classic dual-bank, single-ported
	// machine.
	Spec machine.BankSpec
	// BankPerm relabels the banks by a general permutation (the k-ary
	// form of SwapBanks, which it supersedes when non-nil): data
	// assigned to bank i lands in bank BankPerm[i]. Cycle counts must
	// not change; the k-ary metamorphic tests prove it.
	BankPerm []int
}

// Compiled is the result of compiling one program.
type Compiled struct {
	Name  string
	IR    *ir.Program
	Alloc *alloc.Result
	Sched *compact.Program
	Regs  map[string]regalloc.Stats
}

// Compiler carries the reusable scratch state of the back-end passes —
// the interference-graph scanner, the list scheduler's arena, and the
// compiled simulation engine's recycled machine — so a driver compiling
// many (program, mode) pairs back to back reaches a steady state where
// the hot passes allocate only their retained output. The zero value is
// ready to use. A Compiler is not safe for concurrent use; give each
// worker goroutine its own, as ForEach does.
type Compiler struct {
	scanner core.Scanner
	scratch compact.Scratch
	batch   sim.Batch
}

// SimBatch returns the compiler's recycled simulation arena, for
// callers running the compiled engine across many measurements on this
// compiler. Like the compiler itself it is single-owner: a machine
// obtained through it is invalidated by the next run on the arena.
func (cc *Compiler) SimBatch() *sim.Batch { return &cc.batch }

// ForEach calls fn(cc, i) for every i in [0, n) on up to workers
// goroutines (values below 1 mean 1), each owning one Compiler for its
// whole life, so no Compiler is ever shared between concurrent calls.
// Indexes are handed out in ascending order, and none is handed out
// once ctx is done: calls already running finish, the rest never
// start. ForEach returns when every started call has returned. It is
// the one fan-out of the sweeps — the figures, the explorer, the
// hardware and certification sweeps and the corpus — and fn writes its
// result at index i, so output order never depends on scheduling.
func ForEach(ctx context.Context, n, workers int, fn func(cc *Compiler, i int)) {
	workers = max(1, min(workers, n))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			cc := new(Compiler)
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(cc, i)
			}
		}()
	}
	wg.Wait()
}

// Compile builds source (a MiniC translation unit) into scheduled VLIW
// code under the given options.
func Compile(source, name string, o Options) (*Compiled, error) {
	return new(Compiler).Compile(source, name, o)
}

// Compile builds source into scheduled VLIW code, reusing the
// compiler's scratch state.
func (cc *Compiler) Compile(source, name string, o Options) (*Compiled, error) {
	return cc.CompileCtx(context.Background(), source, name, o)
}

// CompileCtx is Compile honoring ctx: cancellation is checked between
// passes and inside the CBProfiled profiling run (the only pass whose
// cost is driven by the program's dynamic behaviour rather than its
// size), so a caller's deadline bounds compilation of hostile input.
func (cc *Compiler) CompileCtx(ctx context.Context, source, name string, o Options) (*Compiled, error) {
	pass := func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%s: compile: %w", name, err)
		}
		return nil
	}
	if err := pass(); err != nil {
		return nil, err
	}
	file, err := minic.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := minic.Analyze(file); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	prog, err := lower.Program(file, name)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := pass(); err != nil {
		return nil, err
	}
	opt.Run(prog, o.Opt)
	if err := ir.Verify(prog); err != nil {
		return nil, fmt.Errorf("%s: after opt: %w", name, err)
	}
	regStats, err := regalloc.Run(prog)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := pass(); err != nil {
		return nil, err
	}

	profiled := o.Profiled && o.Mode.Partitioned()
	if o.Mode == alloc.CBProfiled || profiled {
		// Profile-driven edge weights: execute the program once at the
		// IR level to annotate every basic block with its execution
		// count before building the interference graph.
		in := sim.NewInterp(prog)
		in.Profile = true
		if err := in.RunContext(ctx); err != nil {
			return nil, fmt.Errorf("%s: profiling run: %w", name, err)
		}
	}

	allocOpts := alloc.Options{
		Mode: o.Mode, InterruptSafe: o.InterruptSafe,
		Method: o.Partitioner, FMPasses: o.FMPasses, Profiled: profiled,
		Scanner: &cc.scanner, SwapBanks: o.SwapBanks,
		Spec: o.Spec, BankPerm: o.BankPerm,
	}
	if o.DupOnly != nil {
		filter := o.DupOnly
		allocOpts.DupFilter = func(s *ir.Symbol) bool { return filter[s.Name] }
	}
	allocRes, err := alloc.Run(prog, allocOpts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	sched, err := compact.ScheduleWith(prog,
		compact.Config{Ports: allocRes.Ports, MirrorBanks: o.SwapBanks,
			Spec: o.Spec, BankPerm: o.BankPerm}, &cc.scratch)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &Compiled{Name: name, IR: prog, Alloc: allocRes, Sched: sched, Regs: regStats}, nil
}

// Run executes the compiled program on a fresh machine and returns it
// for inspection (cycle count, memory contents).
func (c *Compiled) Run() (*sim.Machine, error) {
	return c.RunCtx(context.Background())
}

// RunCtx is Run honoring ctx at the simulator's block boundaries.
func (c *Compiled) RunCtx(ctx context.Context) (*sim.Machine, error) {
	m := sim.NewMachine(c.Sched)
	if err := m.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("%s (%v): %w", c.Name, c.Alloc.Mode, err)
	}
	return m, nil
}

// RunCompiled executes the program on the compiled threaded-code
// engine, which produces the same cycle counts, bandwidth counters and
// memory images as Run (differential tests pin the two) but dispatches one specialized closure per operation instead of
// interpreting, and allocates memory arenas covering only the
// program's used address range.
func (c *Compiled) RunCompiled() (*sim.CompiledMachine, error) {
	return c.RunCompiledCtx(context.Background(), nil)
}

// RunCompiledCtx is RunCompiled honoring ctx at the simulator's block
// boundaries. A non-nil batch recycles its machine's arenas across
// calls — the returned machine then aliases the batch's storage and is
// invalidated by the batch's next run, so callers must finish reading
// results first.
func (c *Compiled) RunCompiledCtx(ctx context.Context, b *sim.Batch) (*sim.CompiledMachine, error) {
	cp, err := sim.Compile(c.Sched)
	if err != nil {
		return nil, fmt.Errorf("%s (%v): %w", c.Name, c.Alloc.Mode, err)
	}
	if b == nil {
		m := cp.NewMachine()
		if err := m.RunContext(ctx); err != nil {
			return nil, fmt.Errorf("%s (%v): %w", c.Name, c.Alloc.Mode, err)
		}
		return m, nil
	}
	m, err := b.Run(ctx, cp)
	if err != nil {
		return nil, fmt.Errorf("%s (%v): %w", c.Name, c.Alloc.Mode, err)
	}
	return m, nil
}

// Global finds a global symbol by name for result inspection.
func (c *Compiled) Global(name string) *ir.Symbol {
	for _, g := range c.IR.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}
