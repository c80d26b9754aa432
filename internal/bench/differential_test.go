package bench

import (
	"context"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/pipeline"
	"dualbank/internal/sim"
)

// differentialModes is every allocation mode the full-suite engine
// differentials cover.
var differentialModes = []alloc.Mode{
	alloc.SingleBank, alloc.CB, alloc.CBProfiled,
	alloc.CBDup, alloc.FullDup, alloc.Ideal, alloc.LowOrder,
}

// requireSameOutcome fails t unless the compiled machine cm reproduces
// the reference run ref: the cycle count, the bandwidth counters
// (MemAccesses, DualMemCycles), the run-time conflict count
// (BankConflicts, non-zero only under the low-order organisation), the
// executed-operation count, and the memory images. The compiled
// engine's arenas cover only the program's used address range, so the
// image check compares that prefix word-for-word and then requires the
// reference to have left everything beyond it zero — if the reference
// could ever write past the compiled high-water mark, this fails rather
// than silently comparing a truncated image.
func requireSameOutcome(t *testing.T, what string, ref *sim.Machine, cm *sim.CompiledMachine, memWords int) {
	t.Helper()
	if cm.Cycles != ref.Cycles {
		t.Errorf("%s: cycles: compiled %d, reference %d", what, cm.Cycles, ref.Cycles)
	}
	if cm.OpsExecuted != ref.OpsExecuted {
		t.Errorf("%s: ops executed: compiled %d, reference %d", what, cm.OpsExecuted, ref.OpsExecuted)
	}
	if cm.MemAccesses != ref.MemAccesses {
		t.Errorf("%s: mem accesses: compiled %d, reference %d", what, cm.MemAccesses, ref.MemAccesses)
	}
	if cm.DualMemCycles != ref.DualMemCycles {
		t.Errorf("%s: dual-mem cycles: compiled %d, reference %d", what, cm.DualMemCycles, ref.DualMemCycles)
	}
	if cm.BankConflicts != ref.BankConflicts {
		t.Errorf("%s: bank conflicts: compiled %d, reference %d", what, cm.BankConflicts, ref.BankConflicts)
	}
	for i := 0; i < memWords; i++ {
		if cm.X[i] != ref.X[i] {
			t.Fatalf("%s: X[%#x]: compiled %#x, reference %#x", what, i, cm.X[i], ref.X[i])
		}
		if cm.Y[i] != ref.Y[i] {
			t.Fatalf("%s: Y[%#x]: compiled %#x, reference %#x", what, i, cm.Y[i], ref.Y[i])
		}
	}
	for i := memWords; i < len(ref.X); i++ {
		if ref.X[i] != 0 || ref.Y[i] != 0 {
			t.Fatalf("%s: reference wrote word %#x beyond the compiled arena (%d words)", what, i, memWords)
		}
	}
}

// TestFastSimMatchesReference pins the production (fast) simulator on
// its fresh-machine path — pipeline.Compiled.RunCompiled with a new
// CompiledProgram machine per run, as dspsim and the metamorphic suite
// use it — to the interpretive reference Machine: every Table 1/2
// benchmark under every allocation mode must reproduce the reference's
// counters and memory images. The same machine is then Reset and run
// again, and must reproduce the reference a second time, so Reset
// provably restores every piece of run state.
func TestFastSimMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite in short mode")
	}
	for _, p := range append(Kernels(), Applications()...) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range differentialModes {
				c, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: mode})
				if err != nil {
					t.Fatalf("%v: compile: %v", mode, err)
				}
				ref, err := c.Run()
				if err != nil {
					t.Fatalf("%v: reference: %v", mode, err)
				}
				cm, err := c.RunCompiled()
				if err != nil {
					t.Fatalf("%v: compiled: %v", mode, err)
				}
				n := len(cm.X)
				requireSameOutcome(t, mode.String(), ref, cm, n)
				cm.Reset()
				if cm.Cycles != 0 || cm.OpsExecuted != 0 || cm.MemAccesses != 0 ||
					cm.DualMemCycles != 0 || cm.BankConflicts != 0 {
					t.Fatalf("%v: counters not reset: %+v", mode, cm.Counters())
				}
				if err := cm.Run(); err != nil {
					t.Fatalf("%v: compiled rerun: %v", mode, err)
				}
				requireSameOutcome(t, mode.String()+" after Reset", ref, cm, n)
			}
		})
	}
}

// TestCompiledSimMatchesReference pins the compiled threaded-code
// engine on the harness's path — a shared sim.Batch recycling one
// machine's arenas across every mode — to the interpretive reference
// Machine, with the same rigor as TestFastSimMatchesReference.
func TestCompiledSimMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite in short mode")
	}
	for _, p := range append(Kernels(), Applications()...) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			var batch sim.Batch
			for _, mode := range differentialModes {
				c, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: mode})
				if err != nil {
					t.Fatalf("%v: compile: %v", mode, err)
				}
				ref, err := c.Run()
				if err != nil {
					t.Fatalf("%v: reference: %v", mode, err)
				}
				cp, err := sim.Compile(c.Sched)
				if err != nil {
					t.Fatalf("%v: lower: %v", mode, err)
				}
				cm, err := batch.Run(context.Background(), cp)
				if err != nil {
					t.Fatalf("%v: compiled: %v", mode, err)
				}
				requireSameOutcome(t, mode.String(), ref, cm, cp.MemWords())
			}
		})
	}
}

// TestFastMachineReset checks that Reset restores a CompiledMachine to
// its pristine state: a second run must reproduce the first exactly.
func TestFastMachineReset(t *testing.T) {
	p, _ := ByName("fir_32_1")
	c, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: alloc.CBDup})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sim.Compile(c.Sched)
	if err != nil {
		t.Fatal(err)
	}
	m := cp.NewMachine()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	first := m.Cycles
	firstX := append([]uint32(nil), m.X...)
	m.Reset()
	if m.Cycles != 0 || m.OpsExecuted != 0 {
		t.Fatalf("counters not reset: cycles=%d ops=%d", m.Cycles, m.OpsExecuted)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Cycles != first {
		t.Fatalf("second run: %d cycles, first %d", m.Cycles, first)
	}
	for i := range firstX {
		if m.X[i] != firstX[i] {
			t.Fatalf("X[%#x] differs after reset+rerun: %#x vs %#x", i, m.X[i], firstX[i])
		}
	}
}
