package explore

import (
	"fmt"
	"io"

	"dualbank/internal/alloc"
	"dualbank/internal/pipeline"
)

// This file is the explorer's static analysis view: the interference
// graph, the greedy partition walk, and the bank assignment of one
// compiled program — what the paper's Figures 4 and 5 show. The
// explorer example is a thin wrapper over it.

// Analysis is the partitioning analysis of one program.
type Analysis struct {
	Compiled *pipeline.Compiled
}

// Analyze compiles source under CB partitioning and returns its
// analysis.
func Analyze(source, name string) (*Analysis, error) {
	c, err := pipeline.Compile(source, name, pipeline.Options{Mode: alloc.CB})
	if err != nil {
		return nil, err
	}
	return &Analysis{Compiled: c}, nil
}

// Dot renders the interference graph in Graphviz format, colored by
// the final partition.
func (a *Analysis) Dot() string {
	return a.Compiled.Alloc.Graph.Dot(a.Compiled.Alloc.PartK.Bipartition())
}

// WriteText renders the full analysis: the weighted interference
// graph, the greedy walk's cost trace (Figure 5), the final
// partition, and every global's bank assignment.
func (a *Analysis) WriteText(w io.Writer) {
	al := a.Compiled.Alloc
	part := al.PartK.Bipartition()
	fmt.Fprintln(w, "Interference graph (edge weight = loop nesting depth + 1):")
	fmt.Fprint(w, al.Graph.String())
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Greedy partition (Figure 5): cost after each move:")
	fmt.Fprintf(w, "  %v\n\n", part.Trace)
	fmt.Fprintln(w, "Final partition:")
	fmt.Fprintln(w, part)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Bank assignment:")
	for _, g := range a.Compiled.IR.Globals {
		fmt.Fprintf(w, "  %-12s bank %-2s addr %4d  (%d words)\n", g.Name, g.Bank, g.Addr, g.Size)
	}
}
