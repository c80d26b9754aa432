package core

import (
	"math/rand"
	"testing"
)

// kwaySeeds mirrors the 200-seed random-graph sweep the bipartition
// property tests use; the k-way partitioner gets the same treatment.
const kwaySeeds = 200

// checkKPartitionShape verifies the structural invariants every
// KPartition must satisfy: k sets, every node in exactly one set, and
// the reported cost matching an independent recomputation from the
// bank assignment.
func checkKPartitionShape(t *testing.T, g *Graph, p *KPartition, k int) {
	t.Helper()
	if p.K != k {
		t.Fatalf("K = %d, want %d", p.K, k)
	}
	if len(p.Sets) != k {
		t.Fatalf("len(Sets) = %d, want %d", len(p.Sets), k)
	}
	side := make([]int32, len(g.Nodes))
	for i := range side {
		side[i] = -1
	}
	total := 0
	for b, set := range p.Sets {
		for _, s := range set {
			i, ok := g.index[s]
			if !ok {
				t.Fatalf("bank %d holds %s, which is not a graph node", b, s.Name)
			}
			if side[i] != -1 {
				t.Fatalf("node %s assigned to banks %d and %d", s.Name, side[i], b)
			}
			side[i] = int32(b)
			total++
		}
	}
	if total != len(g.Nodes) {
		t.Fatalf("partition covers %d nodes, graph has %d", total, len(g.Nodes))
	}
	if got := g.KPartitionFromSides(k, side).Cost; got != p.Cost {
		t.Fatalf("reported cost %d, recomputed %d", p.Cost, got)
	}
}

// TestKWayFMNeverWorseThanGreedy pins the guarantee partitionFMK is
// built on: it starts from the greedy-K result and commits only strict
// improvements, so across random graphs FM-K can never report a higher
// residual cost than greedy-K.
func TestKWayFMNeverWorseThanGreedy(t *testing.T) {
	for _, k := range []int{3, 4, 5} {
		for seed := int64(0); seed < kwaySeeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(30)
			g := randomGraph(rng, n, rng.Intn(4*n))
			greedy := g.PartitionK(k, MethodGreedy, 0)
			fm := g.PartitionK(k, MethodFM, -1)
			checkKPartitionShape(t, g, greedy, k)
			checkKPartitionShape(t, g, fm, k)
			if fm.Cost > greedy.Cost {
				t.Errorf("k=%d seed %d: FM-K cost %d > greedy-K cost %d", k, seed, fm.Cost, greedy.Cost)
			}
		}
	}
}

// TestKWayK2MatchesBipartition pins the N=2 equivalence at the
// partitioner layer: PartitionK(2, ...) must equal the bipartitioner
// for every method — same cost, same sets in the same order, same
// trace.
func TestKWayK2MatchesBipartition(t *testing.T) {
	cases := []struct {
		name   string
		m      Method
		passes int
	}{
		{"greedy", MethodGreedy, 0},
		{"kl", MethodKL, 0},
		{"anneal", MethodAnneal, 0},
		{"fm", MethodFM, -1},
		{"fm1", MethodFM, 1},
		{"fm2", MethodFM, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < kwaySeeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 2 + rng.Intn(30)
				g := randomGraph(rng, n, rng.Intn(4*n))
				kp := g.PartitionK(2, tc.m, tc.passes)
				bp := g.PartitionWithPasses(tc.m, tc.passes)
				checkKPartitionShape(t, g, kp, 2)
				if kp.Cost != bp.Cost {
					t.Fatalf("seed %d: k-way cost %d, bipartition cost %d", seed, kp.Cost, bp.Cost)
				}
				if !samePartition(kp.Bipartition(), bp) {
					t.Fatalf("seed %d: k=2 sets differ from bipartition", seed)
				}
				if len(kp.Trace) != len(bp.Trace) {
					t.Fatalf("seed %d: trace length %d vs %d", seed, len(kp.Trace), len(bp.Trace))
				}
				for i := range kp.Trace {
					if kp.Trace[i] != bp.Trace[i] {
						t.Fatalf("seed %d: trace[%d] = %d vs %d", seed, i, kp.Trace[i], bp.Trace[i])
					}
				}
			}
		})
	}
}

// TestKWayFigure4 sanity-checks the k-way walk on the paper's Figure 4
// graph: with more banks available than conflicting symbols, every
// positive-weight edge can be cut, and adding banks never hurts.
func TestKWayFigure4(t *testing.T) {
	g := figure4Graph()
	prev := g.PartitionK(2, MethodFM, -1).Cost
	for k := 3; k <= 6; k++ {
		p := g.PartitionK(k, MethodFM, -1)
		checkKPartitionShape(t, g, p, k)
		if p.Cost > prev {
			t.Errorf("k=%d cost %d worse than k=%d cost %d", k, p.Cost, k-1, prev)
		}
		prev = p.Cost
	}
}

// TestKWayMethodsProduceValidPartitions runs every heuristic method
// through the shape checker across ks — anneal included, which takes a
// different code path from the greedy/FM pair.
func TestKWayMethodsProduceValidPartitions(t *testing.T) {
	for _, m := range []Method{MethodGreedy, MethodKL, MethodAnneal, MethodFM} {
		for _, k := range []int{3, 4, 8} {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 2 + rng.Intn(24)
				g := randomGraph(rng, n, rng.Intn(3*n))
				checkKPartitionShape(t, g, g.PartitionK(k, m, 0), k)
			}
		}
	}
}

// FuzzKWayPartition drives PartitionK with fuzz-chosen graph shapes
// and bank counts, checking the structural invariants and the
// FM-K ≤ greedy-K guarantee on every input. CI runs it in the fuzz
// smoke job alongside the pipeline and exact-partition targets.
func FuzzKWayPartition(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(12), uint8(3))
	f.Add(int64(7), uint8(20), uint8(50), uint8(4))
	f.Add(int64(42), uint8(3), uint8(0), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, edgesRaw, kRaw uint8) {
		n := 2 + int(nRaw)%30
		edges := int(edgesRaw) % (4 * n)
		k := 2 + int(kRaw)%7
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, n, edges)
		greedy := g.PartitionK(k, MethodGreedy, 0)
		fm := g.PartitionK(k, MethodFM, -1)
		checkKPartitionShape(t, g, greedy, k)
		checkKPartitionShape(t, g, fm, k)
		checkKPartitionShape(t, g, g.PartitionK(k, MethodAnneal, 0), k)
		if fm.Cost > greedy.Cost {
			t.Errorf("k=%d: FM-K cost %d > greedy-K cost %d", k, fm.Cost, greedy.Cost)
		}
	})
}
