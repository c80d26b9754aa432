package sim_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"dualbank/internal/alloc"
	"dualbank/internal/ir"
	"dualbank/internal/machine"
	"dualbank/internal/sim"
)

// TestCompiledMatchesMachine cross-checks the compiled engine against
// the interpretive reference on the local kernel under every port
// model: counters and the full memory image, including the invariant
// that the reference never touches a word beyond the compiled arena's
// high-water mark. The full-suite differential test lives in
// internal/bench.
func TestCompiledMatchesMachine(t *testing.T) {
	for _, mode := range []alloc.Mode{
		alloc.SingleBank, alloc.CB, alloc.CBDup, alloc.FullDup,
		alloc.Ideal, alloc.LowOrder,
	} {
		sched := compileSched(t, firSource, mode)
		ref := sim.NewMachine(sched)
		if err := ref.Run(); err != nil {
			t.Fatalf("%v: reference: %v", mode, err)
		}
		cp, err := sim.Compile(sched)
		if err != nil {
			t.Fatalf("%v: compile: %v", mode, err)
		}
		cm := cp.NewMachine()
		if err := cm.Run(); err != nil {
			t.Fatalf("%v: compiled: %v", mode, err)
		}
		if cm.Cycles != ref.Cycles || cm.OpsExecuted != ref.OpsExecuted ||
			cm.MemAccesses != ref.MemAccesses || cm.DualMemCycles != ref.DualMemCycles ||
			cm.BankConflicts != ref.BankConflicts {
			t.Errorf("%v: counters diverge: compiled {cyc %d ops %d mem %d dual %d conf %d} vs reference {cyc %d ops %d mem %d dual %d conf %d}",
				mode,
				cm.Cycles, cm.OpsExecuted, cm.MemAccesses, cm.DualMemCycles, cm.BankConflicts,
				ref.Cycles, ref.OpsExecuted, ref.MemAccesses, ref.DualMemCycles, ref.BankConflicts)
		}
		n := cp.MemWords()
		for i := 0; i < n; i++ {
			if cm.X[i] != ref.X[i] || cm.Y[i] != ref.Y[i] {
				t.Fatalf("%v: memory image diverges at word %#x", mode, i)
			}
		}
		for i := n; i < machine.BankWords; i++ {
			if ref.X[i] != 0 || ref.Y[i] != 0 {
				t.Fatalf("%v: reference touched word %#x beyond the compiled arena (%d words)", mode, i, n)
			}
		}
	}
}

// TestCompiledZeroAllocSteadyState enforces the compiled engine's
// allocation contract: once lowered, Reset+Run allocates nothing.
func TestCompiledZeroAllocSteadyState(t *testing.T) {
	cp, err := sim.Compile(compileSched(t, firSource, alloc.CBDup))
	if err != nil {
		t.Fatal(err)
	}
	cm := cp.NewMachine()
	if err := cm.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		cm.Reset()
		if err := cm.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Reset+Run allocates %.1f objects/run, want 0", allocs)
	}
}

// TestBatchAcrossVariants runs one Batch over several allocation
// variants of the same kernel, checking each run's counters against a
// fresh machine: the arena recycling must not leak state — memory
// images, counters, or loop stacks — between variants.
func TestBatchAcrossVariants(t *testing.T) {
	var b sim.Batch
	for round := 0; round < 2; round++ {
		for _, mode := range []alloc.Mode{
			alloc.CBDup, alloc.SingleBank, alloc.LowOrder, alloc.Ideal,
		} {
			sched := compileSched(t, firSource, mode)
			cp, err := sim.Compile(sched)
			if err != nil {
				t.Fatalf("%v: compile: %v", mode, err)
			}
			want := cp.NewMachine()
			if err := want.Run(); err != nil {
				t.Fatalf("%v: fresh: %v", mode, err)
			}
			got, err := b.Run(context.Background(), cp)
			if err != nil {
				t.Fatalf("%v: batch: %v", mode, err)
			}
			if got.Cycles != want.Cycles || got.MemAccesses != want.MemAccesses ||
				got.BankConflicts != want.BankConflicts {
				t.Errorf("%v round %d: batch run diverges from fresh machine: {cyc %d mem %d conf %d} vs {cyc %d mem %d conf %d}",
					mode, round,
					got.Cycles, got.MemAccesses, got.BankConflicts,
					want.Cycles, want.MemAccesses, want.BankConflicts)
			}
			for i := 0; i < cp.MemWords(); i++ {
				if got.X[i] != want.X[i] || got.Y[i] != want.Y[i] {
					t.Fatalf("%v round %d: batch memory image diverges at word %#x", mode, round, i)
				}
			}
		}
	}
}

// TestBatchSteadyStateAllocs checks the amortization contract: after a
// warm-up run, re-running a compiled program through a Batch allocates
// nothing.
func TestBatchSteadyStateAllocs(t *testing.T) {
	cp, err := sim.Compile(compileSched(t, firSource, alloc.CBDup))
	if err != nil {
		t.Fatal(err)
	}
	var b sim.Batch
	if _, err := b.Run(context.Background(), cp); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := b.Run(context.Background(), cp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Batch.Run allocates %.1f objects/run, want 0", allocs)
	}
}

// slowSource runs ~3.6e9 cycles — far longer than any test timeout —
// so a prompt return can only mean the cancellation path worked.
const slowSource = `
int out;

void main() {
	int i;
	int j;
	int acc = 0;
	for (i = 0; i < 60000; i++) {
		for (j = 0; j < 60000; j++) {
			acc = acc + 1;
		}
	}
	out = acc;
}
`

// TestCompiledCancelMidRun cancels a compiled-engine run mid-flight
// and requires a prompt ctx.Err()-wrapping error.
func TestCompiledCancelMidRun(t *testing.T) {
	cp, err := sim.Compile(compileSched(t, slowSource, alloc.CBDup))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	runErr := cp.NewMachine().RunContext(ctx)
	if runErr == nil {
		t.Fatal("cancelled run returned nil")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", runErr)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", d)
	}
}

// TestBatchCancelDoesNotPoisonSiblings cancels one variant mid-run and
// then evaluates further variants through the same Batch: the recycled
// machine must come back clean, with results identical to a fresh
// machine's.
func TestBatchCancelDoesNotPoisonSiblings(t *testing.T) {
	slow, err := sim.Compile(compileSched(t, slowSource, alloc.CBDup))
	if err != nil {
		t.Fatal(err)
	}
	fir, err := sim.Compile(compileSched(t, firSource, alloc.CBDup))
	if err != nil {
		t.Fatal(err)
	}
	want := fir.NewMachine()
	if err := want.Run(); err != nil {
		t.Fatal(err)
	}

	var b sim.Batch
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := b.Run(ctx, slow); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled variant returned %v, want context.Canceled", err)
	}

	for round := 0; round < 3; round++ {
		got, err := b.Run(context.Background(), fir)
		if err != nil {
			t.Fatalf("sibling after cancel: %v", err)
		}
		if got.Cycles != want.Cycles || got.MemAccesses != want.MemAccesses {
			t.Errorf("sibling after cancel diverges: {cyc %d mem %d} vs {cyc %d mem %d}",
				got.Cycles, got.MemAccesses, want.Cycles, want.MemAccesses)
		}
		for i := 0; i < fir.MemWords(); i++ {
			if got.X[i] != want.X[i] || got.Y[i] != want.Y[i] {
				t.Fatalf("sibling after cancel: memory diverges at word %#x", i)
			}
		}
	}

	// Cancellation must not leave goroutines behind (the poll is a
	// channel select, not a watcher goroutine — this pins that).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+1 {
		t.Errorf("goroutines leaked across cancelled batch run: %d before, %d after", before, n)
	}
}

// TestCompiledCycleLimit pins the compiled engine's cycle-limit
// behaviour to the reference's: same verdict at the same limits, even
// though the compiled engine checks per block rather than per cycle.
func TestCompiledCycleLimit(t *testing.T) {
	sched := compileSched(t, firSource, alloc.CBDup)
	ref := sim.NewMachine(sched)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	cp, err := sim.Compile(sched)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int64{ref.Cycles, ref.Cycles - 1, ref.Cycles / 2, 1} {
		refM := sim.NewMachine(sched)
		refM.MaxCycles = limit
		refErr := refM.Run()
		cm := cp.NewMachine()
		cm.MaxCycles = limit
		cmErr := cm.Run()
		if (refErr == nil) != (cmErr == nil) {
			t.Errorf("limit %d: reference err %v, compiled err %v", limit, refErr, cmErr)
		}
	}
}

// BenchmarkMachine measures the interpretive reference engine on the
// schedule BenchmarkCompiledMachine runs; comparing ns/op quantifies
// the compiled engine's speedup.
func BenchmarkMachine(b *testing.B) {
	sched := compileSched(b, firSource, alloc.CBDup)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sim.NewMachine(sched)
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledMachine measures the compiled engine's steady-state
// loop, comparable against BenchmarkMachine; it must report 0
// allocs/op.
func BenchmarkCompiledMachine(b *testing.B) {
	cp, err := sim.Compile(compileSched(b, firSource, alloc.CBDup))
	if err != nil {
		b.Fatal(err)
	}
	m := cp.NewMachine()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// aluSource exercises every scalar operation kind the compiled engine
// lowers to a direct closure, on operands loaded from memory so
// nothing constant-folds: register moves (the loop-carried p/q
// rotation), integer arithmetic, logic, shifts, the six comparisons as
// values, multiply-accumulate, float arithmetic, the six float
// comparisons, and both conversions.
const aluSource = `
int ia[8] = {7, -3, 12, 5, -20, 9, 1, 31};
int ib[8] = {2, 5, -4, 3, 6, -7, 1, 3};
float fa[8] = {1.5, -2.25, 3.0, 0.5, -8.0, 2.5, 100.0, -0.125};
float fb[8] = {0.5, 4.0, -1.5, 2.0, 3.0, -0.5, 100.0, 0.25};
int iout[8];
float fout[8];
int isum;
float fsum;

void main() {
	int i;
	int acc = 0;
	int p = 1;
	int q = 2;
	float facc = 0.0;
	for (i = 0; i < 8; i++) {
		int t = p;
		p = q;
		q = t + ia[i];
		int a = ia[i];
		int b = ib[i];
		float x = fa[i];
		float y = fb[i];
		int r = (a + b) - a * b;
		r = r + a / b + a % b;
		r = r ^ ((a & b) | ~a);
		r = r + -b;
		r = r + (a << (b & 7)) + (a >> (b & 3));
		r = r + (a == b) + (a != b) + (a < b) + (a <= b) + (a > b) + (a >= b);
		acc = acc + a * b;
		float z = (x + y) - x * y + x / y + -x;
		r = r + (x == y) + (x != y) + (x < y) + (x <= y) + (x > y) + (x >= y);
		facc = facc + x * y;
		z = z + (float)a;
		r = r + (int)z;
		iout[i] = r;
		fout[i] = z;
	}
	isum = acc + p * q;
	fsum = facc;
}
`

// TestCompiledALUMatchesMachine is the ALU differential: aluSource
// must schedule every scalar operation kind (the test proves it before
// trusting the comparison), and the compiled engine must reproduce the
// reference's counters, register file and memory image under every
// port model, with the outputs also matching the IR interpreter.
func TestCompiledALUMatchesMachine(t *testing.T) {
	kinds := []ir.OpKind{
		ir.OpConst, ir.OpFConst, ir.OpMov,
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpNeg,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpNot, ir.OpShl, ir.OpShr, ir.OpMac,
		ir.OpSetEQ, ir.OpSetNE, ir.OpSetLT, ir.OpSetLE, ir.OpSetGT, ir.OpSetGE,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFNeg, ir.OpFMac,
		ir.OpFSetEQ, ir.OpFSetNE, ir.OpFSetLT, ir.OpFSetLE, ir.OpFSetGT, ir.OpFSetGE,
		ir.OpIntToFloat, ir.OpFloatToInt,
	}
	for _, mode := range []alloc.Mode{alloc.SingleBank, alloc.CB, alloc.CBDup, alloc.Ideal, alloc.LowOrder} {
		p, sched := compileTo(t, aluSource, mode)
		seen := map[ir.OpKind]bool{}
		for _, f := range sched.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					for _, op := range in.Ops() {
						seen[op.Kind] = true
					}
				}
			}
		}
		for _, k := range kinds {
			if !seen[k] {
				t.Errorf("%v: schedule has no %s operation", mode, k)
			}
		}

		ref := sim.NewMachine(sched)
		if err := ref.Run(); err != nil {
			t.Fatalf("%v: reference: %v", mode, err)
		}
		cp, err := sim.Compile(sched)
		if err != nil {
			t.Fatalf("%v: lower: %v", mode, err)
		}
		cm := cp.NewMachine()
		if err := cm.Run(); err != nil {
			t.Fatalf("%v: compiled: %v", mode, err)
		}
		requireSameState(t, mode.String(), ref, cm, cp.MemWords())

		in := sim.NewInterp(p)
		if err := in.Run(); err != nil {
			t.Fatalf("%v: interp: %v", mode, err)
		}
		for _, name := range []string{"iout", "fout", "isum", "fsum"} {
			g := globalOf(p, name)
			for i := 0; i < g.Size; i++ {
				want := in.Word(g, i)
				got, err := cm.Word(g, i)
				if err != nil {
					t.Fatalf("%v: %s[%d]: %v", mode, name, i, err)
				}
				if got != want {
					t.Errorf("%v: %s[%d] = %#x, interpreter %#x", mode, name, i, got, want)
				}
			}
		}
	}
}

// requireSameState fails t unless the compiled machine cm ended in the
// reference's state: the five counters, the register file, and the
// memory images (the compiled arena prefix word for word, zero beyond
// it in the reference).
func requireSameState(t *testing.T, what string, ref *sim.Machine, cm *sim.CompiledMachine, memWords int) {
	t.Helper()
	if cm.Counters() != ref.Counters() {
		t.Errorf("%s: counters diverge: compiled %+v, reference %+v", what, cm.Counters(), ref.Counters())
	}
	if cm.Regs != ref.Regs {
		t.Errorf("%s: register files diverge:\ncompiled  %v\nreference %v", what, cm.Regs, ref.Regs)
	}
	for b := range ref.Banks {
		for i := 0; i < memWords; i++ {
			if cm.Banks[b][i] != ref.Banks[b][i] {
				t.Fatalf("%s: bank %d word %#x: compiled %#x, reference %#x", what, b, i, cm.Banks[b][i], ref.Banks[b][i])
			}
		}
		for i := memWords; i < len(ref.Banks[b]); i++ {
			if ref.Banks[b][i] != 0 {
				t.Fatalf("%s: reference wrote bank %d word %#x beyond the compiled arena (%d words)", what, b, i, memWords)
			}
		}
	}
}
