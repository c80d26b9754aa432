package core

import (
	"fmt"
	"math"
	"math/rand"
)

// This file provides alternative graph partitioners used to validate
// the paper's choice of the simple greedy algorithm:
//
//   - PartitionKL refines the greedy result with Kernighan–Lin-style
//     passes (the paper notes "other algorithms, such as graph
//     colouring, will probably work just as well").
//   - PartitionAnneal is a simulated-annealing partitioner in the
//     spirit of Sudarsanam & Malik's constraint-graph labelling, which
//     the paper's related-work section discusses; the Princeton study
//     found annealing performed no better than a greedy heuristic, a
//     result this reproduction's tests confirm on the benchmark suite.
//   - PartitionFM (partition_fm.go) is the fast path: a gain-bucket
//     Fiduccia–Mattheyses partitioner that reproduces the greedy walk
//     in near-linear time and then refines it.
//
// All are deterministic (the annealer takes an explicit seed).

// Method selects a partitioning algorithm.
type Method int8

const (
	// MethodGreedy is the paper's Figure 5 algorithm.
	MethodGreedy Method = iota
	// MethodKL is greedy followed by Kernighan–Lin refinement.
	MethodKL
	// MethodAnneal is simulated annealing.
	MethodAnneal
	// MethodFM is the gain-bucket Fiduccia–Mattheyses partitioner:
	// the greedy walk replayed with O(1) best-move extraction and
	// O(degree) incremental gain updates, followed by FM refinement
	// passes. Never worse than greedy, asymptotically faster.
	MethodFM
	// MethodExact is the certified branch-and-bound bipartitioner from
	// internal/exact: it seeds an incumbent from the heuristics and
	// proves optimality (or a bound) within a deterministic node
	// budget, so it is never costlier than any heuristic arm. The
	// implementation lives outside this package and registers itself
	// via RegisterExactKPartitioner; alloc links it, so every pipeline
	// caller has it available behind the -partitioner flag.
	MethodExact
)

func (m Method) String() string {
	switch m {
	case MethodKL:
		return "kl"
	case MethodAnneal:
		return "anneal"
	case MethodFM:
		return "fm"
	case MethodExact:
		return "exact"
	}
	return "greedy"
}

// ParseMethod parses a partitioner name as printed by Method.String.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "greedy":
		return MethodGreedy, nil
	case "kl":
		return MethodKL, nil
	case "anneal":
		return MethodAnneal, nil
	case "fm":
		return MethodFM, nil
	case "exact":
		return MethodExact, nil
	}
	return 0, fmt.Errorf("core: unknown partition method %q (want greedy, kl, anneal, fm, or exact)", s)
}

// PartitionWith partitions the graph with the chosen method.
func (g *Graph) PartitionWith(m Method) *Partition {
	return g.PartitionWithPasses(m, -1)
}

// PartitionWithPasses is PartitionWith with an explicit FM
// refinement-pass bound: fmPasses < 0 means the library default, and
// the bound only matters under MethodFM (the other methods fix their
// own refinement policy).
func (g *Graph) PartitionWithPasses(m Method, fmPasses int) *Partition {
	switch m {
	case MethodKL:
		return g.PartitionKL()
	case MethodAnneal:
		return g.PartitionAnneal(1)
	case MethodFM:
		if fmPasses < 0 {
			fmPasses = fmMaxPasses
		}
		return g.PartitionFMPasses(fmPasses)
	case MethodExact:
		return g.exactK(2).Bipartition()
	default:
		return g.Partition()
	}
}

// PartitionKL runs the greedy algorithm and then Kernighan–Lin
// refinement: repeated passes that tentatively flip every node in
// best-gain order (allowing temporarily negative gains), keep the best
// prefix, and stop when a pass yields no improvement.
func (g *Graph) PartitionKL() *Partition {
	greedy := g.Partition()
	n := len(g.Nodes)
	c := g.CSR()
	inY := make([]bool, n)
	for _, s := range greedy.SetY {
		inY[g.index[s]] = true
	}
	cost := greedy.Cost

	for pass := 0; pass < 8; pass++ {
		locked := make([]bool, n)
		cur := cost
		best := cost
		bestPrefix := 0
		var flips []int
		state := append([]bool(nil), inY...)
		for step := 0; step < n; step++ {
			bi, bg := -1, int64(math.MinInt64)
			for i := 0; i < n; i++ {
				if locked[i] {
					continue
				}
				if gn := c.moveGain(state, i); gn > bg {
					bi, bg = i, gn
				}
			}
			if bi < 0 {
				break
			}
			state[bi] = !state[bi]
			locked[bi] = true
			cur -= bg
			flips = append(flips, bi)
			if cur < best {
				best = cur
				bestPrefix = len(flips)
			}
		}
		if best >= cost {
			break
		}
		for _, i := range flips[:bestPrefix] {
			inY[i] = !inY[i]
		}
		cost = best
	}
	p := g.partitionFrom(inY)
	p.Trace = []int64{greedy.Cost, p.Cost}
	return p
}

// PartitionAnneal partitions by simulated annealing with a geometric
// cooling schedule. The seed makes it deterministic.
func (g *Graph) PartitionAnneal(seed int64) *Partition {
	n := len(g.Nodes)
	c := g.CSR()
	total := c.Total
	rng := rand.New(rand.NewSource(seed))
	inY := make([]bool, n)
	cost := c.cutCost(inY)
	bestY := append([]bool(nil), inY...)
	best := cost

	if n > 0 && total > 0 {
		temp := float64(total)
		const cooling = 0.95
		for ; temp > 0.01; temp *= cooling {
			for step := 0; step < 4*n; step++ {
				i := rng.Intn(n)
				gain := c.moveGain(inY, i)
				if gain >= 0 || rng.Float64() < math.Exp(float64(gain)/temp) {
					inY[i] = !inY[i]
					cost -= gain
					if cost < best {
						best = cost
						copy(bestY, inY)
					}
				}
			}
		}
	}
	p := g.partitionFrom(bestY)
	p.Trace = []int64{total, p.Cost}
	return p
}
