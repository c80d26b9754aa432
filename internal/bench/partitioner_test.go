package bench

import (
	"maps"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/compact"
	"dualbank/internal/core"
	"dualbank/internal/machine"
	"dualbank/internal/pipeline"
)

// TestPartitionerDifferential pins the fast partitioners to the
// Figure-5 greedy reference across the whole 23-benchmark suite: FM
// and KL must never produce a worse cut than greedy, and whenever the
// cut costs tie they must assign every symbol to the same bank —
// both algorithms start from the greedy walk and only ever commit
// strict improvements, so a tied cost with a different image would
// mean the replay has diverged.
func TestPartitionerDifferential(t *testing.T) {
	progs := append(Kernels(), Applications()...)
	if len(progs) != 23 {
		t.Fatalf("suite has %d benchmarks, want 23", len(progs))
	}
	type outcome struct {
		cost  int64
		banks map[string]machine.Bank
	}
	for _, p := range progs {
		compile := func(m core.Method) outcome {
			c, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{
				Mode: alloc.CB, Partitioner: m,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", p.Name, m, err)
			}
			if err := compact.Validate(c.Sched); err != nil {
				t.Fatalf("%s/%v: %v", p.Name, m, err)
			}
			banks := make(map[string]machine.Bank)
			for _, s := range c.IR.Symbols() {
				banks[s.Name] = s.Bank
			}
			return outcome{cost: c.Alloc.PartK.Cost, banks: banks}
		}
		greedy := compile(core.MethodGreedy)
		for _, m := range []core.Method{core.MethodFM, core.MethodKL} {
			o := compile(m)
			if o.cost > greedy.cost {
				t.Errorf("%s: %v cut cost %d worse than greedy %d", p.Name, m, o.cost, greedy.cost)
				continue
			}
			if o.cost == greedy.cost && !maps.Equal(o.banks, greedy.banks) {
				t.Errorf("%s: %v ties greedy at cut cost %d but assigns different banks", p.Name, m, o.cost)
			}
		}
	}
}

// TestPartitionerComparison reproduces the Princeton finding the
// paper's related-work section leans on: a computationally expensive
// partitioner (simulated annealing) buys essentially nothing over the
// simple greedy heuristic — which is the paper's justification for
// using the greedy algorithm. Kernighan-Lin refinement likewise only
// marginally moves the needle.
func TestPartitionerComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison study in short mode")
	}
	suite := []string{
		"fir_256_64", "iir_4_64", "latnrm_32_64", "mult_10_10",
		"fft_256", "lpc", "edge_detect", "V32encode", "trellis",
	}
	methods := []core.Method{core.MethodGreedy, core.MethodKL, core.MethodAnneal}
	for _, name := range suite {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("no benchmark %q", name)
		}
		cycles := map[core.Method]int64{}
		for _, m := range methods {
			c, err := pipeline.Compile(p.Source, name, pipeline.Options{
				Mode: alloc.CB, Partitioner: m,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, m, err)
			}
			if err := compact.Validate(c.Sched); err != nil {
				t.Fatalf("%s/%v: %v", name, m, err)
			}
			mach, err := c.Run()
			if err != nil {
				t.Fatalf("%s/%v: %v", name, m, err)
			}
			if p.Check != nil {
				read := func(gn string, idx int) (uint32, error) {
					return mach.Word(c.Global(gn), idx)
				}
				if err := p.Check(read); err != nil {
					t.Fatalf("%s/%v: wrong output: %v", name, m, err)
				}
			}
			cycles[m] = mach.Cycles
		}
		greedy := float64(cycles[core.MethodGreedy])
		for _, m := range methods[1:] {
			ratio := float64(cycles[m]) / greedy
			// Comparable means within ~15% either way; typically they
			// are identical.
			if ratio > 1.15 || ratio < 0.70 {
				t.Errorf("%s: %v gives %d cycles vs greedy %d (ratio %.2f) — not comparable",
					name, m, cycles[m], cycles[core.MethodGreedy], ratio)
			}
		}
		t.Logf("%-14s greedy=%-8d kl=%-8d anneal=%-8d",
			name, cycles[core.MethodGreedy], cycles[core.MethodKL], cycles[core.MethodAnneal])
	}
}
