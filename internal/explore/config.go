package explore

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dualbank/internal/alloc"
	"dualbank/internal/bench"
	"dualbank/internal/core"
	"dualbank/internal/machine"
)

// Config is one point of the explorer's design space: the knobs the
// back-end exposes per benchmark. The zero value is the paper's fixed
// CB mode (greedy partitioner, static weights, no duplication).
type Config struct {
	// Single selects the single-bank baseline; every other field is
	// ignored (and must be zero for the key to be canonical).
	Single bool `json:"single,omitempty"`
	// Part is the graph-partitioning algorithm.
	Part core.Method `json:"-"`
	// Profiled uses profile-derived interference-edge weights.
	Profiled bool `json:"profiled,omitempty"`
	// FMPasses bounds FM refinement: 0 = library default, negative =
	// greedy-equivalent phase 1 only. Only meaningful when Part is
	// core.MethodFM.
	FMPasses int `json:"fm_passes,omitempty"`
	// DupAll duplicates every array the interference analysis marks —
	// the paper's Dup policy.
	DupAll bool `json:"dup_all,omitempty"`
	// Dup, when non-empty, is an explicit duplication subset (sorted).
	// Mutually exclusive with DupAll.
	Dup []string `json:"dup,omitempty"`
	// Banks and Ports are the hardware axis: bank count and ports per
	// bank. Zero values are the classic 2-bank, single-ported machine
	// (and 2/1 canonicalize to zero), so classic design points render
	// the same keys they always did.
	Banks int `json:"banks,omitempty"`
	Ports int `json:"ports,omitempty"`
}

// Canon returns the canonical form of c: irrelevant knobs zeroed and
// the duplication set sorted and deduplicated, so equal design points
// always render equal keys.
func (c Config) Canon() Config {
	if c.Banks == 2 {
		c.Banks = 0
	}
	if c.Ports == 1 {
		c.Ports = 0
	}
	if c.Single {
		return Config{Single: true, Banks: c.Banks, Ports: c.Ports}
	}
	if c.Part != core.MethodFM {
		c.FMPasses = 0
	}
	if c.FMPasses < 0 {
		c.FMPasses = -1
	}
	if c.DupAll {
		c.Dup = nil
	} else if len(c.Dup) > 0 {
		d := append([]string(nil), c.Dup...)
		sort.Strings(d)
		c.Dup = slices.Compact(d)
	} else {
		c.Dup = nil
	}
	return c
}

// Key renders the canonical, human-readable identity of the
// configuration — the string the frontier, the checkpoint store, and
// the wire schema all use.
func (c Config) Key() string {
	c = c.Canon()
	var sb strings.Builder
	if c.Single {
		sb.WriteString("single")
	} else {
		sb.WriteString("part=")
		sb.WriteString(c.Part.String())
		if c.FMPasses != 0 {
			fmt.Fprintf(&sb, ";fmp=%d", c.FMPasses)
		}
		if c.Profiled {
			sb.WriteString(";prof")
		}
		switch {
		case c.DupAll:
			sb.WriteString(";dup=all")
		case len(c.Dup) > 0:
			sb.WriteString(";dup=")
			sb.WriteString(strings.Join(c.Dup, ","))
		}
	}
	if c.Banks != 0 || c.Ports != 0 {
		// The hardware term appears only off the classic machine, so
		// classic keys carry no geometry.
		fmt.Fprintf(&sb, ";hw=%s", c.Spec().Norm())
	}
	return sb.String()
}

// Spec returns the machine geometry of the design point (the zero
// value for the classic machine).
func (c Config) Spec() machine.BankSpec {
	return machine.BankSpec{Banks: c.Banks, PortsPerBank: c.Ports}
}

// ParseConfig inverts Key. It accepts exactly the strings Key renders
// (plus field reordering), so checkpoint records and wire requests can
// round-trip configurations.
func ParseConfig(s string) (Config, error) {
	if s == "single" {
		return Config{Single: true}, nil
	}
	var c Config
	sawPart := false
	for _, field := range strings.Split(s, ";") {
		k, v, _ := strings.Cut(field, "=")
		switch k {
		case "single":
			c.Single = true
		case "part":
			m, err := core.ParseMethod(v)
			if err != nil {
				return Config{}, fmt.Errorf("explore: config %q: %w", s, err)
			}
			c.Part, sawPart = m, true
		case "fmp":
			if _, err := fmt.Sscanf(v, "%d", &c.FMPasses); err != nil {
				return Config{}, fmt.Errorf("explore: config %q: bad fmp %q", s, v)
			}
		case "prof":
			c.Profiled = true
		case "dup":
			if v == "all" {
				c.DupAll = true
			} else {
				c.Dup = strings.Split(v, ",")
			}
		case "hw":
			if _, err := fmt.Sscanf(v, "%dx%d", &c.Banks, &c.Ports); err != nil {
				return Config{}, fmt.Errorf("explore: config %q: bad hw %q", s, v)
			}
			if err := c.Spec().Validate(); err != nil {
				return Config{}, fmt.Errorf("explore: config %q: %w", s, err)
			}
		default:
			return Config{}, fmt.Errorf("explore: config %q: unknown field %q", s, field)
		}
	}
	if c.Single {
		return Config{Single: true, Banks: c.Banks, Ports: c.Ports}.Canon(), nil
	}
	if !sawPart {
		return Config{}, fmt.Errorf("explore: config %q: missing part=", s)
	}
	return c.Canon(), nil
}

// Mode maps the configuration onto the allocation mode the pipeline
// runs: the baseline, plain CB partitioning, or CB plus duplication.
func (c Config) Mode() alloc.Mode {
	switch {
	case c.Single:
		return alloc.SingleBank
	case c.DupAll || len(c.Dup) > 0:
		return alloc.CBDup
	default:
		return alloc.CB
	}
}

// RunOptions maps the configuration onto the harness's measurement
// options.
func (c Config) RunOptions() bench.RunOptions {
	c = c.Canon()
	ro := bench.RunOptions{
		Partitioner: c.Part, FMPasses: c.FMPasses, Profiled: c.Profiled,
		Banks: c.Banks, Ports: c.Ports,
	}
	if !c.Single && !c.DupAll && c.Dup != nil {
		ro.DupOnly = c.Dup
	}
	return ro
}

// FixedCB is the paper's fixed CB design point — the reference the
// acceptance criterion measures domination against.
var FixedCB = Config{Part: core.MethodGreedy}

// enumerate produces the deterministic candidate order for one
// benchmark. marked is the probe's duplication-candidate set (the
// arrays the paper's analysis would replicate), arrays every
// partitioned array, both sorted. The order front-loads the paper's
// own design points and the cheap grid so small budgets still cover
// the headline comparisons, then sweeps FM pass bounds, then
// duplication subsets (exactly when len(arrays) <= exactK; the
// adaptive phase in explore.go takes over beyond that).
func enumerate(marked, arrays []string, exactK int) []Config {
	var out []Config
	seen := make(map[string]bool)
	add := func(c Config) {
		c = c.Canon()
		// An explicit subset equal to the full marked set is the DupAll
		// point; keep only the canonical spelling.
		if !c.DupAll && len(c.Dup) > 0 && slices.Equal(c.Dup, marked) {
			c.DupAll, c.Dup = true, nil
		}
		if k := c.Key(); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}

	// The paper's fixed arms first: baseline, CB, Pr, Dup.
	add(Config{Single: true})
	add(Config{Part: core.MethodGreedy})
	add(Config{Part: core.MethodGreedy, Profiled: true})
	add(Config{Part: core.MethodGreedy, DupAll: true})

	// The base grid: every partitioner × weighting × coarse
	// duplication policy.
	parts := []core.Method{core.MethodGreedy, core.MethodFM, core.MethodKL, core.MethodAnneal}
	for _, part := range parts {
		for _, prof := range []bool{false, true} {
			for _, dupAll := range []bool{false, true} {
				add(Config{Part: part, Profiled: prof, DupAll: dupAll})
			}
		}
	}

	// FM refinement-pass sweep.
	for _, passes := range []int{-1, 1, 2} {
		for _, prof := range []bool{false, true} {
			for _, dupAll := range []bool{false, true} {
				add(Config{Part: core.MethodFM, FMPasses: passes, Profiled: prof, DupAll: dupAll})
			}
		}
	}

	// Exact duplication-subset enumeration under three carrier
	// configurations, cheapest carrier first. Masks count up, so the
	// order (and therefore the frontier under a budget) is fixed.
	if n := len(arrays); n > 0 && n <= exactK {
		carriers := []Config{
			{Part: core.MethodGreedy},
			{Part: core.MethodFM},
			{Part: core.MethodGreedy, Profiled: true},
		}
		for _, carrier := range carriers {
			for mask := 1; mask < 1<<n; mask++ {
				c := carrier
				c.Dup = subset(arrays, mask)
				add(c)
			}
		}
	}
	return out
}

// subset materializes the bitmask-selected subset of sorted names.
func subset(names []string, mask int) []string {
	var out []string
	for i, name := range names {
		if mask&(1<<i) != 0 {
			out = append(out, name)
		}
	}
	return out
}
