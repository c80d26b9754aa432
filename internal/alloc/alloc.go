// Package alloc implements the data allocation pass of the paper's
// back-end (§3). It runs after register allocation and before the
// operation-compaction pass, and decides where every variable and array
// lives:
//
//   - Under CB partitioning it builds the interference graph, runs the
//     greedy min-cost partition, and assigns each symbol to one bank —
//     X or Y on the paper's machine, one of k on a k-bank machine.
//     Callee-save slots are assigned to alternating banks
//     mechanically, outside the graph, exactly as §3.1 prescribes.
//   - Under partial duplication it additionally replicates every array
//     the graph marked for duplication into every bank and inserts the
//     coherence stores that keep the other copies current after each
//     store to the first.
//   - Full duplication replicates everything; the single-bank baseline
//     and the Ideal dual-ported configuration disable partitioning.
//
// Finally the pass assigns word addresses. Duplicated symbols are laid
// out first, at equal addresses in every bank, so one address (or one
// frame offset) reaches either copy (§3.2); bank-private globals and
// the static stack frames follow. Every memory operation is then
// tagged with the bank holding its data, the information the
// compaction pass uses to pick memory units.
package alloc

import (
	"fmt"
	"strings"

	"dualbank/internal/core"
	_ "dualbank/internal/exact" // registers the MethodExact backend
	"dualbank/internal/ir"
	"dualbank/internal/machine"
)

// Mode selects the data-allocation strategy; these are the experiment
// arms of Figures 7–8 and Table 3.
type Mode int8

const (
	// SingleBank disables the allocation pass: all data in bank X.
	// This is the paper's unoptimized reference.
	SingleBank Mode = iota
	// CB is compaction-based partitioning with static (loop-depth)
	// edge weights.
	CB
	// CBProfiled is CB with profile-derived edge weights (Pr).
	CBProfiled
	// CBDup is CB plus partial data duplication (Dup).
	CBDup
	// FullDup duplicates every variable and array in both banks.
	FullDup
	// Ideal models dual-ported memory cells: placement is irrelevant
	// because either memory unit reaches either bank.
	Ideal
	// LowOrder models the alternative memory organisation the paper
	// argues against: consecutive addresses interleave across the
	// banks, the compiler issues accesses pairwise and the hardware
	// stalls a cycle on a run-time bank conflict. Used by the
	// organisation-comparison study.
	LowOrder
)

var modeNames = map[Mode]string{
	SingleBank: "single-bank", CB: "CB", CBProfiled: "Pr",
	CBDup: "Dup", FullDup: "full-dup", Ideal: "Ideal",
	LowOrder: "low-order",
}

func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Mode(%d)", int8(m))
}

// MarshalText renders the mode by name, so JSON maps keyed by Mode use
// "CB", "Dup", ... rather than raw integers.
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses a mode name produced by MarshalText.
func (m *Mode) UnmarshalText(text []byte) error {
	for mode, name := range modeNames {
		if name == string(text) {
			*m = mode
			return nil
		}
	}
	return fmt.Errorf("alloc: unknown mode %q", text)
}

// Partitioned reports whether the mode runs the CB partitioner.
func (m Mode) Partitioned() bool { return m == CB || m == CBProfiled || m == CBDup }

// Options configures the pass.
type Options struct {
	Mode Mode
	// InterruptSafe brackets each duplicated-store pair so both copies
	// commit in one instruction (the store-lock/store-unlock discipline
	// discussed in §3.2). Off by default, as in the paper's evaluation.
	InterruptSafe bool
	// DupFilter, when non-nil, selects exactly which partitioned
	// arrays CBDup mode duplicates: every array node the filter
	// accepts is replicated, whether or not the interference analysis
	// marked it. When nil, duplication follows the paper's policy and
	// replicates the marked arrays only. The selective-duplication
	// refinement of §5 and the design-space explorer both drive this.
	DupFilter func(*ir.Symbol) bool
	// Method selects the graph-partitioning algorithm (greedy by
	// default; Kernighan-Lin refinement, simulated annealing, and the
	// gain-bucket FM partitioner are available for the
	// algorithm-comparison study).
	Method core.Method
	// FMPasses bounds the FM partitioner's refinement passes: 0 means
	// the library default, negative stops after the greedy-equivalent
	// first phase. Ignored unless Method is core.MethodFM.
	FMPasses int
	// Profiled forces profile-derived interference-edge weights for
	// any partitioned mode, decoupling the weighting policy from the
	// CBProfiled mode so the explorer can combine profiling with
	// duplication. The caller must have run a profiling pass first
	// (the pipeline does when asked).
	Profiled bool
	// Scanner, when non-nil, supplies reusable scratch storage for
	// interference-graph construction, so pipelines that allocate many
	// programs back to back avoid rebuilding it each time.
	Scanner *core.Scanner
	// SwapBanks mirrors the whole assignment: every symbol the pass
	// would place in bank X lands in bank Y and vice versa, including
	// the save-slot alternation start and the coherence-store pair
	// order. The banks are architecturally identical, so a swapped
	// allocation must schedule and simulate to the same cycle count —
	// the metamorphic test suite relies on this. Modes that do not
	// steer banks (LowOrder, FullDup, Ideal ports) are unaffected.
	// It is sugar for BankPerm = {1, 0}, folded into the permutation
	// when BankPerm is nil.
	SwapBanks bool
	// Spec is the bank/port geometry; the zero value is the classic
	// 2-bank, 1-port machine, the k=2 case of the one k-way pass.
	// Ideal and LowOrder are defined on the paper's 2-bank machine
	// only; every other mode runs on any spec.
	Spec machine.BankSpec
	// BankPerm generalizes SwapBanks to an arbitrary permutation of
	// the spec's banks: a symbol the pass would place in bank b lands
	// in bank BankPerm[b], including the save-slot rotation and the
	// coherence-store order. Nil means identity. The banks are
	// architecturally identical, so a permuted allocation schedules
	// and simulates to the same cycle count — the k-ary metamorphic
	// invariance the corpus gauntlet asserts.
	BankPerm []int
}

// Result describes the allocation for reporting and the cost model.
type Result struct {
	Mode  Mode
	Graph *core.Graph // nil unless the mode partitions
	// PartK is the k-way partition (nil unless the mode partitions):
	// PartK.Sets[b] holds the symbols assigned to bank b before the
	// bank permutation. On the 2-bank machine PartK.Bipartition()
	// gives the X/Y view.
	PartK *core.KPartition

	Duplicated []*ir.Symbol
	DupStores  int // coherence stores inserted

	// Word accounting for the cost model: the shared duplicated region
	// (present in all banks), then per-bank globals and per-bank
	// static stack (locals, parameter slots, spills, save slots), one
	// entry per bank of the spec.
	DupWords   int
	GlobalBank []int
	StackBank  []int

	Ports machine.PortModel
	// Spec echoes the bank/port geometry the allocation ran under.
	Spec machine.BankSpec
}

// Run performs data allocation on p according to opts: it assigns
// every symbol to one of the spec's k banks (or to all of them when
// duplicated), expands stores to duplicated symbols into coherence
// stores, tags memory operations and lays out addresses. It mutates
// symbol bank/address assignments and memory-op tags.
func Run(p *ir.Program, opts Options) (*Result, error) {
	if err := opts.Spec.Validate(); err != nil {
		return nil, err
	}
	spec := opts.Spec.Norm()
	k := spec.Banks
	res := &Result{Mode: opts.Mode, Ports: machine.PortsBanked, Spec: opts.Spec}

	perm := opts.BankPerm
	if perm == nil {
		perm = make([]int, k)
		for i := range perm {
			perm[i] = i
		}
		if opts.SwapBanks {
			perm[0], perm[1] = 1, 0
		}
	}
	if err := checkPerm(perm, k); err != nil {
		return nil, err
	}
	bankAt := func(b int) machine.Bank { return machine.BankAt(perm[b]) }

	switch opts.Mode {
	case SingleBank:
		for _, s := range p.Symbols() {
			s.Bank = bankAt(0)
			s.Duplicated = false
		}
	case Ideal, LowOrder:
		// Both modes are defined against the paper's fixed 2-bank
		// machine: Ideal is its dual-ported upper bound, LowOrder its
		// address-interleaved rival. Multi-port upper bounds on wider
		// machines are expressed as PortsPerBank > 1 instead.
		if !opts.Spec.IsDefault() {
			return nil, fmt.Errorf("alloc: mode %v requires the default 2-bank machine (spec %s)",
				opts.Mode, spec)
		}
		bank := bankAt(0)
		res.Ports = machine.PortsDualPorted
		if opts.Mode == LowOrder {
			// Placement cannot steer banks: the bank is the address
			// parity. Symbols are laid out flat; memory operations stay
			// untagged and the scheduler pairs them freely, betting on
			// the hardware.
			bank = machine.BankNone
			res.Ports = machine.PortsLowOrder
		}
		for _, s := range p.Symbols() {
			s.Bank = bank
			s.Duplicated = false
		}
	case FullDup:
		for _, s := range p.Symbols() {
			s.Bank = machine.BankBoth
			s.Duplicated = true
		}
	case CB, CBProfiled, CBDup:
		policy := core.WeightStatic
		if opts.Mode == CBProfiled || opts.Profiled {
			policy = core.WeightProfiled
		}
		sc := opts.Scanner
		if sc == nil {
			sc = new(core.Scanner)
		}
		g := sc.BuildGraph(p, policy)
		fmPasses := -1
		if opts.FMPasses > 0 {
			fmPasses = opts.FMPasses
		} else if opts.FMPasses < 0 {
			fmPasses = 0
		}
		part := g.PartitionK(k, opts.Method, fmPasses)
		res.Graph, res.PartK = g, part
		for b, set := range part.Sets {
			for _, s := range set {
				s.Bank = bankAt(b)
				s.Duplicated = false
			}
		}
		if opts.Mode == CBDup {
			// Partial duplication. With no filter, replicate the arrays
			// flagged while building the graph — those with simultaneous
			// data-ready accesses that no partition can separate
			// (Figure 6). With a filter, the caller names the exact
			// duplication set: any partitioned array it accepts is
			// replicated, marked or not, which is how the explorer
			// searches duplication subsets beyond the paper's policy.
			for _, s := range g.Nodes {
				if !s.IsArray() {
					continue
				}
				if opts.DupFilter != nil {
					if !opts.DupFilter(s) {
						continue
					}
				} else if !g.DupMarks[s] {
					continue
				}
				s.Bank = machine.BankBoth
				s.Duplicated = true
			}
		}
		// Save/restore slots are partitioned mechanically: successive
		// slots of each function rotate through the banks in
		// permutation order — §3.1's alternation between X and Y on the
		// 2-bank machine.
		for _, f := range p.Funcs {
			next := 0
			for _, s := range f.Locals {
				if !s.Save {
					continue
				}
				s.Bank = bankAt(next)
				s.Duplicated = false
				next = (next + 1) % k
			}
		}
	default:
		return nil, fmt.Errorf("alloc: unknown mode %v", opts.Mode)
	}

	if err := insertCoherenceStores(p, opts, res, perm); err != nil {
		return nil, err
	}
	tagMemOps(p)
	if err := layout(p, res, k); err != nil {
		return nil, err
	}
	if err := ir.Verify(p); err != nil {
		return nil, fmt.Errorf("alloc: %w", err)
	}
	return res, nil
}

// checkPerm validates a bank permutation for k banks.
func checkPerm(perm []int, k int) error {
	if len(perm) != k {
		return fmt.Errorf("alloc: bank permutation %v has %d entries, want %d", perm, len(perm), k)
	}
	seen := make([]bool, k)
	for _, b := range perm {
		if b < 0 || b >= k || seen[b] {
			return fmt.Errorf("alloc: bank permutation %v is not a permutation of 0..%d", perm, k-1)
		}
		seen[b] = true
	}
	return nil
}

// insertCoherenceStores expands every store to a duplicated symbol
// into k stores: the original targets the permutation's first bank and
// k-1 clones, inserted immediately after it, target the remaining
// banks in permutation order (on the 2-bank machine: the X copy, then
// the Y copy). Each carries a distinct single-bank tag, so the
// dependence graph lets all k issue in one long instruction when
// enough memory units are free.
func insertCoherenceStores(p *ir.Program, opts Options, res *Result, perm []int) error {
	k := len(perm)
	if opts.InterruptSafe && k > 2 {
		// The store-lock discipline is a pairwise instruction-bundling
		// contract; an atomic k-way bundle is not modeled.
		return fmt.Errorf("alloc: interrupt-safe duplication requires the 2-bank machine (%d banks)", k)
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			var out []*ir.Op
			for _, op := range b.Ops {
				if op.Kind == ir.OpStore && op.Sym.Duplicated {
					op.Bank = machine.BankAt(perm[0])
					out = append(out, op)
					for c := 1; c < k; c++ {
						clone := &ir.Op{
							Kind: ir.OpStore,
							Args: op.Args,
							Idx:  op.Idx,
							Sym:  op.Sym,
							Bank: machine.BankAt(perm[c]),
						}
						if c == 1 {
							op.DupPair, clone.DupPair = clone, op
							if opts.InterruptSafe {
								op.Atomic, clone.Atomic = true, true
							}
						}
						out = append(out, clone)
						res.DupStores++
					}
					continue
				}
				out = append(out, op)
			}
			b.Ops = out
		}
	}
	for _, s := range p.Symbols() {
		if s.Duplicated {
			res.Duplicated = append(res.Duplicated, s)
		}
	}
	return nil
}

// tagMemOps stamps every remaining memory operation with its symbol's
// bank. Loads from duplicated symbols stay BankBoth: the scheduler may
// satisfy them from any copy.
func tagMemOps(p *ir.Program) {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				if !op.IsMem() {
					continue
				}
				if op.Kind == ir.OpStore && op.Sym.Duplicated {
					continue // already tagged by the expansion
				}
				op.Bank = op.Sym.Bank
			}
		}
	}
}

// layout assigns word addresses over k banks: first the duplicated
// region (equal addresses in every bank), then each bank's globals,
// then the static stack frames, with one cursor per bank.
func layout(p *ir.Program, res *Result, k int) error {
	cursorDup := 0
	for _, s := range p.Symbols() {
		if s.Duplicated {
			s.Addr = cursorDup
			cursorDup += s.Size
		}
	}
	res.DupWords = cursorDup

	cur := make([]int, k)
	for b := range cur {
		cur[b] = cursorDup
	}
	bankOf := func(s *ir.Symbol) int {
		if i := s.Bank.Index(); i >= 0 && i < k {
			return i
		}
		return 0 // unassigned data lives in bank 0 (baseline layout)
	}
	place := func(s *ir.Symbol) {
		b := bankOf(s)
		s.Addr = cur[b]
		cur[b] += s.Size
	}
	for _, s := range p.Globals {
		if !s.Duplicated {
			place(s)
		}
	}
	res.GlobalBank = make([]int, k)
	for b := range cur {
		res.GlobalBank[b] = cur[b] - cursorDup
	}

	afterGlobals := append([]int(nil), cur...)
	for _, f := range p.Funcs {
		fx, fy := 0, 0
		for _, s := range f.Locals {
			if s.Duplicated {
				continue
			}
			switch bankOf(s) {
			case 0:
				fx += s.Size
			case 1:
				fy += s.Size
			}
		}
		f.FrameWordsX, f.FrameWordsY = fx, fy
		for _, s := range f.Locals {
			if !s.Duplicated {
				place(s)
			}
		}
	}
	res.StackBank = make([]int, k)
	for b := range cur {
		res.StackBank[b] = cur[b] - afterGlobals[b]
	}

	for _, c := range cur {
		if c > machine.BankWords {
			var sb strings.Builder
			for b, c := range cur {
				fmt.Fprintf(&sb, "%s=%d ", machine.BankAt(b), c)
			}
			return fmt.Errorf("alloc: data exceeds bank capacity (%swords, capacity %d)",
				sb.String(), machine.BankWords)
		}
	}
	return nil
}
