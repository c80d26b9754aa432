package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"dualbank/internal/ir"
)

// This file generalizes the bipartitioners to k-way partitioning for
// machines with more than two data banks. PartitionK is the allocation
// pass's one partitioning entry point; its k=2 case is the
// bipartitioners themselves (Partition, PartitionFM, PartitionKL,
// PartitionAnneal, the registered exact backend), which the paper's
// machine and the committed classic-machine goldens rest on.

// KPartition is the result of a k-way partition: Sets[b] holds the
// symbols assigned to bank b. Cost is the residual cost — the summed
// weight of edges whose endpoints share a bank. Trace records the cost
// after each committed greedy move, starting with the all-in-bank-0
// cost, exactly as Partition.Trace does for k=2.
type KPartition struct {
	K     int
	Sets  [][]*ir.Symbol
	Cost  int64
	Trace []int64
}

// Bipartition converts a 2-way KPartition to the legacy Partition
// shape. It panics for K != 2.
func (p *KPartition) Bipartition() *Partition {
	if p.K != 2 {
		panic(fmt.Sprintf("core: Bipartition on %d-way partition", p.K))
	}
	return &Partition{SetX: p.Sets[0], SetY: p.Sets[1], Cost: p.Cost, Trace: p.Trace}
}

// KFromBipartition lifts a legacy Partition into the k-way shape.
func KFromBipartition(p *Partition) *KPartition {
	return &KPartition{
		K:     2,
		Sets:  [][]*ir.Symbol{p.SetX, p.SetY},
		Cost:  p.Cost,
		Trace: p.Trace,
	}
}

// String renders the partition for diagnostics.
func (p *KPartition) String() string {
	var sb strings.Builder
	for b, set := range p.Sets {
		var ns []string
		for _, s := range set {
			ns = append(ns, s.Name)
		}
		fmt.Fprintf(&sb, "bank %d: {%s}\n", b, strings.Join(ns, ", "))
	}
	fmt.Fprintf(&sb, "cost: %d", p.Cost)
	return sb.String()
}

// exactKPartition is the registered certified-exact backend, for every
// k including the bipartition. It lives in internal/exact (which
// imports this package), so dispatch goes through a function value
// rather than a direct call.
var exactKPartition func(*Graph, int) *KPartition

// RegisterExactKPartitioner installs the MethodExact backend. Called
// from internal/exact's init; last registration wins.
func RegisterExactKPartitioner(f func(*Graph, int) *KPartition) { exactKPartition = f }

// exactK runs the registered exact backend at k banks.
func (g *Graph) exactK(k int) *KPartition {
	if exactKPartition == nil {
		panic("core: exact partitioner not linked (import dualbank/internal/exact)")
	}
	return exactKPartition(g, k)
}

// PartitionK partitions the graph's nodes into k banks with the chosen
// method. k == 2 delegates to the corresponding bipartitioner; k > 2
// runs the k-way generalizations below. fmPasses has the PartitionWithPasses meaning.
func (g *Graph) PartitionK(k int, m Method, fmPasses int) *KPartition {
	if k < 2 {
		panic(fmt.Sprintf("core: PartitionK with k = %d", k))
	}
	if k == 2 {
		return KFromBipartition(g.PartitionWithPasses(m, fmPasses))
	}
	switch m {
	case MethodKL:
		// KL is greedy plus flip-refinement; for k > 2 the FM-K
		// refinement passes are the same idea with the better data
		// structure, so KL folds into FM-K.
		return g.partitionFMK(k, fmMaxPasses)
	case MethodAnneal:
		return g.partitionAnnealK(k, 1)
	case MethodFM:
		if fmPasses < 0 {
			fmPasses = fmMaxPasses
		}
		return g.partitionFMK(k, fmPasses)
	case MethodExact:
		return g.exactK(k)
	default:
		return g.partitionGreedyK(k)
	}
}

// KPartitionFromSides materialises a KPartition from an explicit bank
// assignment (side[i] is node i's bank), computing the residual cost
// from the CSR view. The exact k-way backend and tests use it.
func (g *Graph) KPartitionFromSides(k int, side []int32) *KPartition {
	return g.kPartitionFrom(k, side)
}

func (g *Graph) kPartitionFrom(k int, side []int32) *KPartition {
	p := &KPartition{K: k, Sets: make([][]*ir.Symbol, k), Cost: g.CSR().cutCostK(side)}
	for i, s := range g.Nodes {
		p.Sets[side[i]] = append(p.Sets[side[i]], s)
	}
	return p
}

// cutCostK returns the summed weight of edges whose endpoints share a
// bank under the given assignment.
func (c *CSR) cutCostK(side []int32) int64 {
	var cost int64
	for i := range side {
		for h := c.Start[i]; h < c.Start[i+1]; h++ {
			if j := c.Adj[h]; int(j) > i && side[j] == side[i] {
				cost += c.W[h]
			}
		}
	}
	return cost
}

// moveGainK is the cost decrease from moving node i to bank dest: its
// edge weight into its current bank minus its edge weight into dest.
func (c *CSR) moveGainK(side []int32, i int, dest int32) int64 {
	var same, into int64
	for h := c.Start[i]; h < c.Start[i+1]; h++ {
		switch side[c.Adj[h]] {
		case side[i]:
			same += c.W[h]
		case dest:
			into += c.W[h]
		}
	}
	return same - into
}

// partitionGreedyK generalizes the paper's Figure 5 walk to k banks:
// every node starts in bank 0 and the walk repeatedly commits the
// (node, destination) move with the greatest net cost decrease,
// stopping when no move strictly decreases the cost. Ties break as in
// the bipartition walk — towards the preferred node (canonical
// first-reference rank on scanner-built graphs, node index otherwise)
// — and, between destinations of one node, towards the lowest bank
// index, which keeps the walk deterministic and makes bank indexes
// canonical (a fresh bank is only opened when no used bank does as
// well).
func (g *Graph) partitionGreedyK(k int) *KPartition {
	n := len(g.Nodes)
	c := g.CSR()
	side := make([]int32, n)

	pref := func(i int) int32 {
		if g.tiePref != nil {
			return g.tiePref[i]
		}
		return int32(i)
	}
	cost := c.Total
	trace := []int64{cost}
	for {
		bestI, bestDest, bestDelta := -1, int32(0), int64(0)
		for i := 0; i < n; i++ {
			for dest := int32(0); dest < int32(k); dest++ {
				if dest == side[i] {
					continue
				}
				delta := c.moveGainK(side, i, dest)
				if delta <= 0 {
					continue
				}
				better := delta > bestDelta
				if delta == bestDelta && bestI >= 0 {
					if p, bp := pref(i), pref(bestI); p > bp || (p == bp && dest < bestDest) {
						better = true
					}
				}
				if better {
					bestI, bestDest, bestDelta = i, dest, delta
				}
			}
		}
		if bestI < 0 {
			break
		}
		side[bestI] = bestDest
		cost -= bestDelta
		trace = append(trace, cost)
	}

	p := g.kPartitionFrom(k, side)
	p.Trace = trace
	return p
}

// partitionFMK refines the greedy k-way walk with FM-style passes:
// each pass tentatively moves every node once to its best alternative
// bank in best-gain order (negative gains allowed), keeps the best
// prefix of moves, and repeats until a pass fails to strictly improve.
// Because it starts from the greedy result and only commits strict
// improvements, FM-K is never worse than greedy-K — the property the
// k-way partitioner tests pin on random graphs.
func (g *Graph) partitionFMK(k, passes int) *KPartition {
	greedy := g.partitionGreedyK(k)
	n := len(g.Nodes)
	c := g.CSR()
	side := make([]int32, n)
	for b, set := range greedy.Sets {
		for _, s := range set {
			side[g.index[s]] = int32(b)
		}
	}
	cost := greedy.Cost

	type move struct {
		i    int32
		from int32
		to   int32
	}
	state := make([]int32, n)
	locked := make([]bool, n)
	for pass := 0; pass < passes; pass++ {
		copy(state, side)
		for i := range locked {
			locked[i] = false
		}
		cur, best, bestPrefix := cost, cost, 0
		var moves []move
		for step := 0; step < n; step++ {
			bi, bdest, bg := -1, int32(0), int64(math.MinInt64)
			for i := 0; i < n; i++ {
				if locked[i] {
					continue
				}
				for dest := int32(0); dest < int32(k); dest++ {
					if dest == state[i] {
						continue
					}
					if gn := c.moveGainK(state, i, dest); gn > bg {
						bi, bdest, bg = i, dest, gn
					}
				}
			}
			if bi < 0 {
				break
			}
			moves = append(moves, move{int32(bi), state[bi], bdest})
			state[bi] = bdest
			locked[bi] = true
			cur -= bg
			if cur < best {
				best, bestPrefix = cur, len(moves)
			}
		}
		if best >= cost {
			break
		}
		for _, mv := range moves[:bestPrefix] {
			side[mv.i] = mv.to
		}
		cost = best
	}

	p := g.kPartitionFrom(k, side)
	p.Trace = greedy.Trace
	return p
}

// partitionAnnealK is the k-way simulated annealer: the bipartition
// annealer's schedule with moves drawn as (random node, random other
// bank). The seed makes it deterministic.
func (g *Graph) partitionAnnealK(k int, seed int64) *KPartition {
	n := len(g.Nodes)
	c := g.CSR()
	total := c.Total
	rng := rand.New(rand.NewSource(seed))
	side := make([]int32, n)
	cost := c.cutCostK(side)
	bestSide := append([]int32(nil), side...)
	best := cost

	if n > 0 && total > 0 {
		temp := float64(total)
		const cooling = 0.95
		for ; temp > 0.01; temp *= cooling {
			for step := 0; step < 4*n; step++ {
				i := rng.Intn(n)
				dest := int32(rng.Intn(k - 1))
				if dest >= side[i] {
					dest++
				}
				gain := c.moveGainK(side, i, dest)
				if gain >= 0 || rng.Float64() < math.Exp(float64(gain)/temp) {
					side[i] = dest
					cost -= gain
					if cost < best {
						best = cost
						copy(bestSide, side)
					}
				}
			}
		}
	}
	p := g.kPartitionFrom(k, bestSide)
	p.Trace = []int64{total, p.Cost}
	return p
}
