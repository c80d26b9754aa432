// Package cost implements the paper's first-order memory cost model
// (§4.2):
//
//	Cost = X + Y + 2·S + I
//
// where X and Y are the data sizes of the two memory banks in words, S
// is the stack size (reserved symmetrically in both banks, hence the
// factor of two), and I is the instruction-memory size — the paper
// assumes one word per long instruction. From two cost figures the
// package derives the Cost Increase (CI) and, combined with cycle
// counts, the Performance Gain (PG) and Performance/Cost Ratio (PCR)
// reported in Table 3.
package cost

import (
	"dualbank/internal/alloc"
	"dualbank/internal/compact"
)

// Memory is the word-level memory footprint of a compiled program.
type Memory struct {
	// XData and YData are each bank's data size: the duplicated region
	// (present in every bank) plus the bank's private globals.
	XData, YData int
	// Extra are the data sizes of banks beyond the classic X/Y pair,
	// in bank order; nil on the 2-bank machine.
	Extra []int
	// Stack is the static stack reservation S; every bank reserves it.
	Stack int
	// Instr is the instruction-memory size in words (one per long
	// instruction).
	Instr int
	// NBanks is the number of banks reserving the stack when it is
	// more than two. On the 2-bank machine it is 0, the canonical
	// classic value: Total then applies the paper's 2·S term, and the
	// field is absent from the wire format and checkpoint records.
	NBanks int
}

// Of computes the footprint from an allocation result and a schedule:
// one data term per bank and the largest per-bank stack, reserved in
// every bank.
func Of(a *alloc.Result, sched *compact.Program) Memory {
	m := Memory{Instr: sched.StaticInstrs()}
	for b, g := range a.GlobalBank {
		data := a.DupWords + g
		switch b {
		case 0:
			m.XData = data
		case 1:
			m.YData = data
		default:
			m.Extra = append(m.Extra, data)
		}
		m.Stack = max(m.Stack, a.StackBank[b])
	}
	if k := len(a.GlobalBank); k > 2 {
		m.NBanks = k
	}
	return m
}

// Total evaluates the cost model, generalized to k banks: every bank's
// data plus k·S plus instruction memory (the paper's X + Y + 2·S + I
// on the classic machine).
func (m Memory) Total() int {
	nb := m.NBanks
	if nb < 2 {
		nb = 2
	}
	t := m.XData + m.YData + nb*m.Stack + m.Instr
	for _, e := range m.Extra {
		t += e
	}
	return t
}

// Metrics bundles the Table 3 quantities for one technique relative to
// the unoptimized (single-bank) reference.
type Metrics struct {
	PG  float64 // performance gain: baseCycles / cycles
	CI  float64 // cost increase: cost / baseCost
	PCR float64 // performance/cost ratio: PG / CI
}

// Compare derives PG/CI/PCR for a technique against the baseline.
func Compare(baseCycles, cycles int64, base, mem Memory) Metrics {
	pg := float64(baseCycles) / float64(cycles)
	ci := float64(mem.Total()) / float64(base.Total())
	return Metrics{PG: pg, CI: ci, PCR: pg / ci}
}
