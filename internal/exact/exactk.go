package exact

import (
	"sort"

	"dualbank/internal/core"
	"dualbank/internal/ir"
)

// This file generalizes the certified bipartitioner to k-way
// partitioning for machines with more than two banks. The k-way tree
// is far bushier (branching factor k instead of 2), so the solver uses
// a smaller default budget and a weaker bound — the triangle-packing
// term is dropped, because a triangle splits residual-free across
// three banks — and therefore falls back to Bounded verdicts sooner,
// which is the documented contract. Symmetry is broken k-ary: along
// any root-to-node path a node may only enter a bank index at most one
// past the highest index already used, so each set-partition is
// enumerated once rather than k! times.

// DefaultNodeBudgetK is the branch-and-bound node budget for the k-way
// solver when Options leaves it zero: a quarter of the 2-way budget,
// reflecting the bushier tree.
const DefaultNodeBudgetK = DefaultNodeBudget / 4

// ResultK pairs a solved k-way partition with its certificate.
// Part.Cost always equals Cert.Upper.
type ResultK struct {
	Part *core.KPartition
	Cert Certificate
}

func init() {
	core.RegisterExactKPartitioner(func(g *core.Graph, k int) *core.KPartition {
		return SolveK(g, k, Options{}).Part
	})
}

// SolveK runs the certified k-way partitioner on g. k == 2 delegates
// to the bipartition search, Solve.
func SolveK(g *core.Graph, k int, opt Options) *ResultK {
	if k == 2 {
		r := Solve(g, opt)
		return &ResultK{Part: core.KFromBipartition(r.Part), Cert: r.Cert}
	}
	if opt.NodeBudget <= 0 {
		opt.NodeBudget = DefaultNodeBudgetK
	}
	opt = opt.withDefaults()
	c := g.CSR()
	n := len(g.Nodes)

	// Incumbent: the best k-way heuristic (FM-K starts from greedy-K
	// and only improves, so it dominates the portfolio).
	seed := g.PartitionK(k, core.MethodFM, -1)
	seedSide := make([]int32, n)
	pos := make(map[*ir.Symbol]int32, n)
	for i, s := range g.Nodes {
		pos[s] = int32(i)
	}
	for b, set := range seed.Sets {
		for _, s := range set {
			seedSide[pos[s]] = int32(b)
		}
	}

	comps := components(c, n)
	sort.SliceStable(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) < len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})

	best := make([]int32, n) // isolated nodes stay in bank 0
	cert := Certificate{Budget: opt.NodeBudget}
	budget := opt.NodeBudget
	closedAll := true
	for _, comp := range comps {
		s := newCompSolverK(c, comp, k)
		local := make([]int32, len(comp))
		for li, v := range comp {
			local[li] = seedSide[v]
		}
		s.offerLocal(local)
		s.search(&budget)
		cert.Components++
		cert.BBNodes += s.nodes
		lb, closed := s.lowerBound()
		cert.Lower += lb
		cert.Upper += s.ub
		if closed {
			cert.Closed++
		} else {
			closedAll = false
		}
		for li, v := range comp {
			best[v] = s.bestSide[li]
		}
	}
	switch {
	case closedAll:
		cert.Verdict = Optimal
	case cert.Lower > 0:
		cert.Verdict = Bounded
	default:
		cert.Verdict = Budget
	}

	part := g.KPartitionFromSides(k, best)
	part.Trace = []int64{c.Total, part.Cost}
	return &ResultK{Part: part, Cert: cert}
}

// compSolverK is the branch-and-bound state for one component of the
// k-way search, over a local (remapped, sorted-adjacency) CSR copy.
type compSolverK struct {
	n, k  int
	start []int32
	adj   []int32
	w     []int64
	order []int32 // decision order: weighted degree descending

	assigned []bool
	side     []int32
	e        [][]int64 // e[v][b]: v's edge weight into assigned bank b
	fixed    int64
	sumMin   int64 // sum over unassigned of min_b e[v][b]

	ub       int64
	bestSide []int32
	nodes    int64
	minOpen  int64
	seeded   bool
}

func newCompSolverK(c *core.CSR, comp []int32, k int) *compSolverK {
	n := len(comp)
	local := make(map[int32]int32, n)
	for li, v := range comp {
		local[v] = int32(li)
	}
	s := &compSolverK{
		n: n, k: k,
		start:    make([]int32, n+1),
		assigned: make([]bool, n),
		side:     make([]int32, n),
		e:        make([][]int64, n),
		bestSide: make([]int32, n),
		ub:       infCost,
		minOpen:  infCost,
	}
	for i := range s.e {
		s.e[i] = make([]int64, k)
	}
	type half struct {
		to int32
		w  int64
	}
	rows := make([][]half, n)
	for li, v := range comp {
		for h := c.Start[v]; h < c.Start[v+1]; h++ {
			rows[li] = append(rows[li], half{local[c.Adj[h]], c.W[h]})
		}
		sort.Slice(rows[li], func(a, b int) bool { return rows[li][a].to < rows[li][b].to })
	}
	for li, row := range rows {
		s.start[li+1] = s.start[li] + int32(len(row))
		for _, h := range row {
			s.adj = append(s.adj, h.to)
			s.w = append(s.w, h.w)
		}
	}

	deg := make([]int64, n)
	s.order = make([]int32, n)
	for i := range s.order {
		s.order[i] = int32(i)
		for h := s.start[i]; h < s.start[i+1]; h++ {
			deg[i] += s.w[h]
		}
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		if deg[s.order[a]] != deg[s.order[b]] {
			return deg[s.order[a]] > deg[s.order[b]]
		}
		return s.order[a] < s.order[b]
	})
	return s
}

// offerLocal proposes a local bank assignment as an incumbent.
func (s *compSolverK) offerLocal(side []int32) {
	var cost int64
	for a := int32(0); a < int32(s.n); a++ {
		for h := s.start[a]; h < s.start[a+1]; h++ {
			if b := s.adj[h]; b > a && side[b] == side[a] {
				cost += s.w[h]
			}
		}
	}
	if cost < s.ub {
		s.ub = cost
		copy(s.bestSide, side)
		s.seeded = true
	}
}

func (s *compSolverK) search(budget *int64) { s.dfs(0, 0, budget) }

func (s *compSolverK) minE(v int32) int64 {
	m := s.e[v][0]
	for b := 1; b < s.k; b++ {
		if s.e[v][b] < m {
			m = s.e[v][b]
		}
	}
	return m
}

// dfs expands the decision at depth d. maxUsed is the highest bank
// index assigned along the current path (-1 at the root); the k-ary
// symmetry pin only allows banks 0..maxUsed+1, so relabelings of the
// same set-partition are never explored twice.
func (s *compSolverK) dfs(d int, maxUsed int, budget *int64) {
	bound := s.fixed + s.sumMin
	if bound >= s.ub {
		return
	}
	if d == s.n {
		s.ub = s.fixed
		copy(s.bestSide, s.side)
		return
	}
	if *budget <= 0 {
		if bound < s.minOpen {
			s.minOpen = bound
		}
		return
	}
	*budget--
	s.nodes++

	v := s.order[d]
	limit := maxUsed + 1
	if limit >= s.k {
		limit = s.k - 1
	}
	// Cheapest bank first among the permitted prefix; ties to the lower
	// bank index keep the search deterministic.
	tried := make([]bool, limit+1)
	for range tried {
		bb, bw := -1, infCost
		for b := 0; b <= limit; b++ {
			if !tried[b] && s.e[v][b] < bw {
				bb, bw = b, s.e[v][b]
			}
		}
		tried[bb] = true
		s.assign(v, int32(bb))
		mu := maxUsed
		if bb > mu {
			mu = bb
		}
		s.dfs(d+1, mu, budget)
		s.unassign(v, int32(bb))
	}
}

func (s *compSolverK) assign(v int32, b int32) {
	s.assigned[v] = true
	s.side[v] = b
	s.sumMin -= s.minE(v)
	s.fixed += s.e[v][b]
	for h := s.start[v]; h < s.start[v+1]; h++ {
		u := s.adj[h]
		if s.assigned[u] {
			continue
		}
		old := s.minE(u)
		s.e[u][b] += s.w[h]
		s.sumMin += s.minE(u) - old
	}
}

func (s *compSolverK) unassign(v int32, b int32) {
	for h := s.start[v]; h < s.start[v+1]; h++ {
		u := s.adj[h]
		if s.assigned[u] {
			continue
		}
		old := s.minE(u)
		s.e[u][b] -= s.w[h]
		s.sumMin += s.minE(u) - old
	}
	s.fixed -= s.e[v][b]
	s.sumMin += s.minE(v)
	s.assigned[v] = false
}

func (s *compSolverK) lowerBound() (int64, bool) {
	if s.minOpen >= s.ub {
		return s.ub, true
	}
	return s.minOpen, false
}
