package corpus

// Certified sample: the population-scale arm of the certified-
// optimality engine. Where Run re-tests the paper's cycle-count claims
// statistically, Certify re-tests the partitioner itself — it runs the
// internal/exact branch-and-bound on a seeded sample of generated
// programs' interference graphs and states, per archetype, what
// fraction of them each heuristic solves provably optimally.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"dualbank/internal/alloc"
	"dualbank/internal/exact"
	"dualbank/internal/genmc"
	"dualbank/internal/pipeline"
)

// CertifyOptions configures a certified sample.
type CertifyOptions struct {
	// N is the number of generated programs in the sample.
	N int
	// Seed selects the population exactly as Options.Seed does, so the
	// certified sample of (N, Seed) is a prefix-compatible slice of the
	// corpus Run measures.
	Seed uint64
	// Workers bounds parallelism (default GOMAXPROCS). Any width
	// produces an identical report.
	Workers int
	// NodeBudget is the branch-and-bound budget per program
	// (0 = exact.DefaultNodeBudget).
	NodeBudget int64
	// Progress, when non-nil, is called after each program completes.
	Progress func(done, total int)
}

// CertRow is one generated program's certification outcome.
type CertRow struct {
	Name      string `json:"name"`
	Archetype string `json:"archetype"`
	Verdict   string `json:"verdict"`
	Lower     int64  `json:"lower"`
	Upper     int64  `json:"upper"`
	Greedy    int64  `json:"greedy"`
	FM        int64  `json:"fm"`
	Anneal    int64  `json:"anneal"`
	BBNodes   int64  `json:"bb_nodes"`
}

// CertArchStats aggregates one archetype's certified sample.
type CertArchStats struct {
	Archetype string `json:"archetype"`
	Programs  int    `json:"programs"`
	// Certified counts programs whose search closed (verdict optimal);
	// the *Optimal fields count, among those, the programs each
	// heuristic solved to the proven optimum.
	Certified     int `json:"certified"`
	GreedyOptimal int `json:"greedy_optimal"`
	FMOptimal     int `json:"fm_optimal"`
	AnnealOptimal int `json:"anneal_optimal"`
}

// CertifyReport is a certified sample's outcome.
type CertifyReport struct {
	N          int             `json:"n"`
	Seed       uint64          `json:"seed"`
	NodeBudget int64           `json:"node_budget"`
	Stats      []CertArchStats `json:"stats"`
	Rows       []CertRow       `json:"rows"`

	// Certified counts programs with a closed (optimal) verdict;
	// FMOptimalPct is the headline number — the percentage of certified
	// programs FM solves provably optimally.
	Certified    int     `json:"certified"`
	FMOptimalPct float64 `json:"fm_optimal_pct"`
}

// Certify runs the certified sample: each generated program's CB
// interference graph goes through the exact solver, and every
// heuristic arm is scored against the proven optimum.
func Certify(ctx context.Context, o CertifyOptions) (*CertifyReport, error) {
	if o.N <= 0 {
		return nil, fmt.Errorf("corpus: N must be positive, got %d", o.N)
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pop := genmc.Population(o.N, o.Seed)
	rows := make([]CertRow, o.N)
	errs := make([]error, o.N)
	var mu sync.Mutex
	done := 0
	pipeline.ForEach(ctx, o.N, workers, func(cc *pipeline.Compiler, i int) {
		rows[i], errs[i] = certifyGenerated(ctx, genmc.Generate(pop[i]), cc, o.NodeBudget)
		if o.Progress != nil {
			mu.Lock()
			done++
			o.Progress(done, o.N)
			mu.Unlock()
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	r := &CertifyReport{N: o.N, Seed: o.Seed, Rows: rows}
	if r.NodeBudget = o.NodeBudget; r.NodeBudget <= 0 {
		r.NodeBudget = exact.DefaultNodeBudget
	}
	archs := genmc.Archetypes()
	r.Stats = make([]CertArchStats, len(archs))
	byArch := make(map[string]*CertArchStats, len(archs))
	for i, a := range archs {
		r.Stats[i] = CertArchStats{Archetype: a.String()}
		byArch[a.String()] = &r.Stats[i]
	}
	fmOptimal := 0
	for _, row := range rows {
		s := byArch[row.Archetype]
		if s == nil {
			return nil, fmt.Errorf("corpus: %s: unknown archetype %q", row.Name, row.Archetype)
		}
		s.Programs++
		if row.Verdict != "optimal" {
			continue
		}
		s.Certified++
		r.Certified++
		if row.Greedy == row.Upper {
			s.GreedyOptimal++
		}
		if row.FM == row.Upper {
			s.FMOptimal++
			fmOptimal++
		}
		if row.Anneal == row.Upper {
			s.AnnealOptimal++
		}
	}
	if r.Certified > 0 {
		r.FMOptimalPct = round3(100 * float64(fmOptimal) / float64(r.Certified))
	}
	return r, nil
}

// certifyGenerated certifies one generated program's CB partition.
func certifyGenerated(ctx context.Context, gp genmc.Program, cc *pipeline.Compiler, budget int64) (CertRow, error) {
	c, err := cc.CompileCtx(ctx, gp.Source, gp.Name, pipeline.Options{Mode: alloc.CB})
	if err != nil {
		return CertRow{}, fmt.Errorf("corpus: %s: compile: %w", gp.Name, err)
	}
	g := c.Alloc.Graph
	row := CertRow{
		Name:      gp.Name,
		Archetype: gp.Knobs.Archetype.String(),
		Greedy:    g.Partition().Cost,
		FM:        g.PartitionFM().Cost,
		Anneal:    g.PartitionAnneal(1).Cost,
	}
	res := exact.Solve(g, exact.Options{NodeBudget: budget})
	row.Verdict = res.Cert.Verdict.String()
	row.Lower, row.Upper = res.Cert.Lower, res.Cert.Upper
	row.BBNodes = res.Cert.BBNodes
	for _, arm := range []struct {
		name string
		cost int64
	}{{"greedy", row.Greedy}, {"fm", row.FM}, {"anneal", row.Anneal}} {
		if arm.cost < row.Upper {
			return row, fmt.Errorf("corpus: %s: exact cost %d exceeds %s arm's %d — solver invariant broken",
				gp.Name, row.Upper, arm.name, arm.cost)
		}
	}
	return row, nil
}

// WriteText prints the per-archetype certified-sample table.
func (r *CertifyReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "certified sample: %d generated programs (seed %d), %d certified optimal closures\n",
		r.N, r.Seed, r.Certified)
	fmt.Fprintf(w, "%-10s %5s %9s %10s %10s %10s\n",
		"archetype", "progs", "certified", "greedy-opt", "fm-opt", "anneal-opt")
	for _, s := range r.Stats {
		fmt.Fprintf(w, "%-10s %5d %9d %10d %10d %10d\n",
			s.Archetype, s.Programs, s.Certified, s.GreedyOptimal, s.FMOptimal, s.AnnealOptimal)
	}
	fmt.Fprintf(w, "FM provably optimal on %.3g%% of certified programs\n", r.FMOptimalPct)
}
