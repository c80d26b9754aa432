package bench

import (
	"fmt"
	"sort"
	"strings"

	"dualbank/internal/alloc"
	"dualbank/internal/cost"
)

// This file holds the experiments' rows, arms and renderers for the
// paper's Figure 7 (kernel performance gains), Figure 8 (application
// gains under CB, Pr, Dup and Ideal) and Table 3 (performance/cost
// trade-offs of duplication); the Harness methods in harness.go
// measure them.

// FigureRow is one benchmark's gains, in percent over the single-bank
// baseline, per mode.
type FigureRow struct {
	Bench      string
	BaseCycles int64
	Gains      map[alloc.Mode]float64
	Cycles     map[alloc.Mode]int64
	Duplicated []string
}

// Figure7Modes and Figure8Modes are the experiment arms shown in each
// figure; OrganizationModes is the extra memory-organisation study
// (high-order banked with CB partitioning vs low-order interleaved
// with hardware conflict stalls vs dual-ported).
var (
	Figure7Modes      = []alloc.Mode{alloc.CB, alloc.Ideal}
	Figure8Modes      = []alloc.Mode{alloc.CB, alloc.CBProfiled, alloc.CBDup, alloc.Ideal}
	OrganizationModes = []alloc.Mode{alloc.LowOrder, alloc.CB, alloc.CBDup, alloc.Ideal}
)

// RenderFigure formats rows as a text table.
func RenderFigure(title string, rows []FigureRow, modes []alloc.Mode) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-14s %12s", "benchmark", "base cycles")
	for _, m := range modes {
		fmt.Fprintf(&sb, " %9s", m)
	}
	sb.WriteString("\n")
	sums := make(map[alloc.Mode]float64)
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %12d", r.Bench, r.BaseCycles)
		for _, m := range modes {
			fmt.Fprintf(&sb, " %8.1f%%", r.Gains[m])
			sums[m] += r.Gains[m]
		}
		if len(r.Duplicated) > 0 {
			fmt.Fprintf(&sb, "   dup: %s", strings.Join(r.Duplicated, ","))
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "%-14s %12s", "average", "")
	for _, m := range modes {
		fmt.Fprintf(&sb, " %8.1f%%", sums[m]/float64(len(rows)))
	}
	sb.WriteString("\n")
	return sb.String()
}

// Table3Row is one application's performance/cost metrics for the four
// techniques of Table 3.
type Table3Row struct {
	Bench   string
	Metrics map[alloc.Mode]cost.Metrics
}

// Table3Modes are the techniques compared in Table 3.
var Table3Modes = []alloc.Mode{alloc.FullDup, alloc.CBDup, alloc.CB, alloc.Ideal}

// RenderTable3 formats the table with the paper's PG/CI/PCR columns
// and arithmetic means.
func RenderTable3(rows []Table3Row) string {
	var sb strings.Builder
	sb.WriteString("Table 3: Performance/Cost Trade-Offs of Exploiting Dual Data-Memory Banks\n")
	fmt.Fprintf(&sb, "%-14s", "application")
	for _, m := range Table3Modes {
		fmt.Fprintf(&sb, " |%7s: PG    CI   PCR", m)
	}
	sb.WriteString("\n")
	type acc struct{ pg, ci, pcr float64 }
	accs := make(map[alloc.Mode]*acc)
	for _, m := range Table3Modes {
		accs[m] = &acc{}
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s", r.Bench)
		for _, m := range Table3Modes {
			mt := r.Metrics[m]
			fmt.Fprintf(&sb, " | %12.2f %5.2f %5.2f", mt.PG, mt.CI, mt.PCR)
			accs[m].pg += mt.PG
			accs[m].ci += mt.CI
			accs[m].pcr += mt.PCR
		}
		sb.WriteString("\n")
	}
	n := float64(len(rows))
	fmt.Fprintf(&sb, "%-14s", "mean")
	for _, m := range Table3Modes {
		a := accs[m]
		fmt.Fprintf(&sb, " | %12.2f %5.2f %5.2f", a.pg/n, a.ci/n, a.pcr/n)
	}
	sb.WriteString("\n")
	return sb.String()
}

// SweepRow is one point of a kernel-size sensitivity sweep.
type SweepRow struct {
	Label      string
	BaseCycles int64
	CBGain     float64
}

// RenderSweep formats a sweep.
func RenderSweep(title string, rows []SweepRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%-16s %12s %9s\n", title, "kernel", "base cycles", "CB")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %12d %8.1f%%\n", r.Label, r.BaseCycles, r.CBGain)
	}
	return sb.String()
}

// RenderTables renders Tables 1 and 2 of the paper: the benchmark
// inventories with their descriptions.
func RenderTables() string {
	var sb strings.Builder
	sb.WriteString("Table 1: DSP Kernel Benchmarks\n")
	for _, p := range Kernels() {
		fmt.Fprintf(&sb, "  %-14s %s\n", p.Name, p.Desc)
	}
	sb.WriteString("\nTable 2: DSP Application Benchmarks\n")
	for _, p := range Applications() {
		fmt.Fprintf(&sb, "  %-14s %s\n", p.Name, p.Desc)
	}
	return sb.String()
}

// Names lists the benchmark names of a suite, sorted, for CLI help.
func Names() []string {
	var out []string
	for _, p := range Kernels() {
		out = append(out, p.Name)
	}
	for _, p := range Applications() {
		out = append(out, p.Name)
	}
	sort.Strings(out)
	return out
}
