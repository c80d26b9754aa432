package bench

import (
	"maps"
	"testing"

	"dualbank/internal/alloc"
	"dualbank/internal/core"
	"dualbank/internal/machine"
	"dualbank/internal/pipeline"
)

// graphOf compiles p under CB and returns its interference graph.
func graphOf(t *testing.T, p Program) *core.Graph {
	t.Helper()
	c, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{Mode: alloc.CB})
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return c.Alloc.Graph
}

// TestFMZeroPassReplaysGreedy pins the property the certified gap
// report's determinism rests on: PartitionFMPasses(0) is the greedy
// walk replayed through gain buckets, sharing the canonical
// first-reference tie-break — identical cost, identical bank
// assignment, and identical move trace on every benchmark graph. A
// divergence here would make "greedy" mean different things in
// different reports.
func TestFMZeroPassReplaysGreedy(t *testing.T) {
	progs := append(Kernels(), Applications()...)
	if len(progs) != 23 {
		t.Fatalf("suite has %d benchmarks, want 23", len(progs))
	}
	for _, p := range progs {
		g := graphOf(t, p)
		greedy := g.Partition()
		replay := g.PartitionFMPasses(0)
		if replay.Cost != greedy.Cost {
			t.Errorf("%s: FMPasses(0) cost %d, greedy %d", p.Name, replay.Cost, greedy.Cost)
			continue
		}
		if replay.String() != greedy.String() {
			t.Errorf("%s: FMPasses(0) assignment diverges from greedy:\n%s\nvs\n%s",
				p.Name, replay, greedy)
		}
		if len(replay.Trace) != len(greedy.Trace) {
			t.Errorf("%s: FMPasses(0) trace %v, greedy %v", p.Name, replay.Trace, greedy.Trace)
			continue
		}
		for i := range replay.Trace {
			if replay.Trace[i] != greedy.Trace[i] {
				t.Errorf("%s: FMPasses(0) trace %v, greedy %v", p.Name, replay.Trace, greedy.Trace)
				break
			}
		}
	}
}

// TestAnnealArmDeterministic: the annealing arm the gap report scores
// is a pure function of (graph, seed) — repeated runs must agree
// exactly, or BENCH_gaps.json would drift between CI runs.
func TestAnnealArmDeterministic(t *testing.T) {
	for _, p := range append(Kernels(), Applications()...) {
		g := graphOf(t, p)
		a, b := g.PartitionAnneal(1), g.PartitionAnneal(1)
		if a.Cost != b.Cost || a.String() != b.String() {
			t.Errorf("%s: anneal(1) is not deterministic:\n%s\nvs\n%s", p.Name, a, b)
		}
	}
}

// TestExactArmNeverWorse extends the partitioner differential to the
// certified exact arm across the full suite: never a worse cut than
// any heuristic, reachable through the same pipeline surface.
func TestExactArmNeverWorse(t *testing.T) {
	for _, p := range append(Kernels(), Applications()...) {
		compile := func(m core.Method) (int64, map[string]machine.Bank) {
			c, err := pipeline.Compile(p.Source, p.Name, pipeline.Options{
				Mode: alloc.CB, Partitioner: m,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", p.Name, m, err)
			}
			banks := make(map[string]machine.Bank)
			for _, s := range c.IR.Symbols() {
				banks[s.Name] = s.Bank
			}
			return c.Alloc.PartK.Cost, banks
		}
		exactCost, exactBanks := compile(core.MethodExact)
		for _, m := range []core.Method{core.MethodGreedy, core.MethodFM, core.MethodKL, core.MethodAnneal} {
			if cost, _ := compile(m); exactCost > cost {
				t.Errorf("%s: exact cut cost %d worse than %v %d", p.Name, exactCost, m, cost)
			}
		}
		// The arm must also be stable through the pipeline: a second
		// compile gives the identical allocation.
		again, againBanks := compile(core.MethodExact)
		if again != exactCost || !maps.Equal(exactBanks, againBanks) {
			t.Errorf("%s: exact arm not deterministic through the pipeline", p.Name)
		}
	}
}
