package sim_test

import (
	"strings"
	"testing"

	"dualbank/internal/compact"
	"dualbank/internal/ir"
	"dualbank/internal/machine"
	"dualbank/internal/sim"
)

// The compiled engine commits each operation's result immediately
// wherever it can prove an execution order equivalent to the
// reference's read-all-then-write-all semantics. A long instruction
// with a genuine anti-dependence cycle — a register swap packed into
// one instruction — has no such order and runs in staged form. The
// compiler's scheduler never emits one for the benchmark suite, so
// these tests build the schedules by hand.

// slot places one operation on a functional unit.
type slot struct {
	unit machine.Unit
	op   *ir.Op
}

// stagedGlobals is the data layout every hand-built program shares:
// a and b are small arrays, s1..s3 scalars. Addresses are disjoint so
// one layout serves the banked, dual-ported and low-order models.
func stagedGlobals() (a, b, s1, s2, s3 *ir.Symbol) {
	a = &ir.Symbol{Name: "a", Kind: ir.SymGlobal, Elem: ir.TInt, Size: 4, Dims: []int{4},
		Init: []uint32{10, 20, 30, 40}, Bank: machine.BankX, Addr: 0}
	b = &ir.Symbol{Name: "b", Kind: ir.SymGlobal, Elem: ir.TInt, Size: 4, Dims: []int{4},
		Init: []uint32{1, 2, 3, 4}, Bank: machine.BankY, Addr: 4}
	s1 = &ir.Symbol{Name: "s1", Kind: ir.SymGlobal, Elem: ir.TInt, Size: 1, Bank: machine.BankX, Addr: 8}
	s2 = &ir.Symbol{Name: "s2", Kind: ir.SymGlobal, Elem: ir.TInt, Size: 1, Bank: machine.BankY, Addr: 9}
	s3 = &ir.Symbol{Name: "s3", Kind: ir.SymGlobal, Elem: ir.TInt, Size: 1, Bank: machine.BankX, Addr: 10}
	return
}

// handProgram assembles a one-block main from hand-placed long
// instructions (a final instruction holding ret is appended) under a
// port model. Memory operations are tagged with their symbol's bank.
func handProgram(ports machine.PortModel, globals []*ir.Symbol, instrs ...[]slot) *compact.Program {
	f := ir.NewFunc("main", ir.TVoid)
	f.SetPhysRegTable()
	blk := f.NewBlock()
	src := &ir.Program{Name: "hand", Globals: globals}
	src.AddFunc(f)
	cb := &compact.Block{Src: blk}
	ret := &ir.Op{Kind: ir.OpRet}
	for _, in := range append(instrs, []slot{{machine.PCU, ret}}) {
		ci := &compact.Instr{}
		for _, s := range in {
			if s.op.IsMem() {
				s.op.Bank = s.op.Sym.Bank
			}
			ci.Slots[s.unit] = s.op
			blk.Ops = append(blk.Ops, s.op)
		}
		cb.Instrs = append(cb.Instrs, ci)
	}
	return &compact.Program{
		Src:   src,
		Funcs: map[string]*compact.Func{"main": {Src: f, Blocks: []*compact.Block{cb}}},
		Ports: ports,
	}
}

// Op constructors over physical registers.
func iconst(dst, v int) *ir.Op {
	return &ir.Op{Kind: ir.OpConst, Type: ir.TInt, Dst: ir.PhysInt(dst), Imm: int64(v)}
}
func fconst(dst int, v float64) *ir.Op {
	return &ir.Op{Kind: ir.OpFConst, Type: ir.TFloat, Dst: ir.PhysFloat(dst), FImm: v}
}
func binop(k ir.OpKind, dst, a0, a1 ir.Reg) *ir.Op {
	return &ir.Op{Kind: k, Dst: dst, Args: [2]ir.Reg{a0, a1}}
}
func load(dst ir.Reg, sym *ir.Symbol, idx ir.Reg) *ir.Op {
	return &ir.Op{Kind: ir.OpLoad, Type: ir.TInt, Dst: dst, Sym: sym, Idx: idx}
}
func store(sym *ir.Symbol, idx, val ir.Reg) *ir.Op {
	return &ir.Op{Kind: ir.OpStore, Args: [2]ir.Reg{val}, Sym: sym, Idx: idx}
}

// swapProgram is the staged-path workload: every staged instruction
// packs the r1<->r2 swap (a two-register anti-dependence cycle) with
// other operations reading registers the same instruction writes.
//
//   - I3 stores the pre-swap r1 to b[r4] while loading a[r3] and
//     incrementing r3: the load must index with the old r3, and the
//     store must write the old r1. Under the low-order model a[2] is
//     even and b[1] odd, so the pair issues in parallel.
//   - I4 repeats the load and store with r3 now 3: both addresses are
//     odd, a low-order bank conflict the staged path must stall on.
//   - I4..I6 also carry scalar operations of every evaluator family in
//     staged form (integer, division, multiply-accumulate, float,
//     float compare, conversions).
//   - I7 and I8 store the swapped registers and the first loaded
//     word, so the memory image shows the staged results.
func swapProgram(ports machine.PortModel) *compact.Program {
	a, b, s1, s2, s3 := stagedGlobals()
	r := ir.PhysInt
	f := ir.PhysFloat
	swap := func() []slot {
		return []slot{
			{machine.AU0, binop(ir.OpMov, r(1), r(2), ir.NoReg)},
			{machine.AU1, binop(ir.OpMov, r(2), r(1), ir.NoReg)},
		}
	}
	return handProgram(ports, []*ir.Symbol{a, b, s1, s2, s3},
		[]slot{{machine.AU0, iconst(1, 5)}, {machine.AU1, iconst(2, 7)},
			{machine.DU0, iconst(3, 2)}, {machine.DU1, iconst(4, 1)},
			{machine.FPU0, fconst(1, 1.5)}, {machine.FPU1, fconst(2, -2.25)}},
		[]slot{{machine.DU0, iconst(6, -9)}, {machine.DU1, iconst(7, 3)}},
		append(swap(),
			slot{machine.MU0, load(r(5), a, r(3))},
			slot{machine.MU1, store(b, r(4), r(1))},
			slot{machine.DU0, binop(ir.OpAdd, r(3), r(3), r(4))}),
		append(swap(),
			slot{machine.MU0, load(r(8), a, r(3))},
			slot{machine.MU1, store(b, r(4), r(2))},
			slot{machine.DU0, binop(ir.OpSub, r(9), r(6), r(1))},
			slot{machine.DU1, binop(ir.OpDiv, r(10), r(6), r(7))}),
		append(swap(),
			slot{machine.DU0, binop(ir.OpMac, r(6), r(1), r(2))},
			slot{machine.DU1, binop(ir.OpRem, r(11), r(1), r(7))},
			slot{machine.FPU0, binop(ir.OpFMac, f(1), f(1), f(2))},
			slot{machine.FPU1, binop(ir.OpFSetLT, r(12), f(2), f(1))}),
		append(swap(),
			slot{machine.DU0, binop(ir.OpShl, r(13), r(1), r(7))},
			slot{machine.DU1, binop(ir.OpSetGE, r(14), r(1), r(2))},
			slot{machine.FPU0, binop(ir.OpIntToFloat, f(3), r(1), ir.NoReg)},
			slot{machine.FPU1, binop(ir.OpFloatToInt, r(15), f(1), ir.NoReg)}),
		[]slot{{machine.MU0, store(s1, ir.NoReg, r(1))}, {machine.MU1, store(s2, ir.NoReg, r(2))}},
		[]slot{{machine.MU0, store(s3, ir.NoReg, r(5))}},
	)
}

// TestCompiledStagedMatchesMachine runs the hand-built swap schedule
// on the reference and the compiled engine under the banked,
// dual-ported and low-order port models, and requires identical
// counters, register files and memory images. It also pins the
// expected outcome so the staged path cannot agree with the reference
// by both committing early.
func TestCompiledStagedMatchesMachine(t *testing.T) {
	for _, ports := range []machine.PortModel{machine.PortsBanked, machine.PortsDualPorted, machine.PortsLowOrder} {
		sched := swapProgram(ports)
		ref := sim.NewMachine(sched)
		ref.CheckPorts = ports == machine.PortsBanked
		if err := ref.Run(); err != nil {
			t.Fatalf("%v: reference: %v", ports, err)
		}
		cp, err := sim.Compile(sched)
		if err != nil {
			t.Fatalf("%v: lower: %v", ports, err)
		}
		cm := cp.NewMachine()
		if err := cm.Run(); err != nil {
			t.Fatalf("%v: compiled: %v", ports, err)
		}
		requireSameState(t, ports.String(), ref, cm, cp.MemWords())

		// Four swaps leave r1/r2 where they started; the staged loads
		// read a[2] and a[3] with the pre-increment index; both stores
		// wrote 5 to b[1], the value their register held before that
		// instruction's swap (after it, r1 and then r2 hold 7).
		src := sched.Src
		want := map[string][]int32{"a": {10, 20, 30, 40}, "b": {1, 5, 3, 4}, "s1": {5}, "s2": {7}, "s3": {30}}
		for _, g := range src.Globals {
			for i, w := range want[g.Name] {
				got, err := cm.Int32(g, i)
				if err != nil {
					t.Fatal(err)
				}
				if got != w {
					t.Errorf("%v: %s[%d] = %d, want %d", ports, g.Name, i, got, w)
				}
			}
		}
		if cm.Regs[ir.PhysInt(8)] != 40 || cm.Regs[ir.PhysInt(3)] != 3 {
			t.Errorf("%v: second staged load r8=%d with r3=%d, want a[3]=40 and r3=3",
				ports, cm.Regs[ir.PhysInt(8)], cm.Regs[ir.PhysInt(3)])
		}
		wantConflicts := int64(0)
		if ports == machine.PortsLowOrder {
			wantConflicts = 1 // I4: a[3] and b[1] are both odd
		}
		if cm.BankConflicts != wantConflicts {
			t.Errorf("%v: %d bank conflicts, want %d", ports, cm.BankConflicts, wantConflicts)
		}
	}
}

// TestCompiledStagedFaults pins the staged path's fault verdicts to
// the reference's: an out-of-range staged load or store and a staged
// division by zero abort both engines for the same cause.
func TestCompiledStagedFaults(t *testing.T) {
	r := ir.PhysInt
	swap := []slot{
		{machine.AU0, binop(ir.OpMov, r(1), r(2), ir.NoReg)},
		{machine.AU1, binop(ir.OpMov, r(2), r(1), ir.NoReg)},
	}
	cases := []struct {
		name string
		ops  func(a, b *ir.Symbol) []slot
		want string
	}{
		{"load", func(a, b *ir.Symbol) []slot {
			return []slot{{machine.MU0, load(r(5), a, r(3))}}
		}, "index 9 out of range"},
		{"store", func(a, b *ir.Symbol) []slot {
			return []slot{{machine.MU1, store(b, r(3), r(1))}}
		}, "index 9 out of range"},
		{"division", func(a, b *ir.Symbol) []slot {
			return []slot{{machine.DU0, binop(ir.OpDiv, r(5), r(1), r(4))}}
		}, "integer division by zero"},
	}
	for _, ports := range []machine.PortModel{machine.PortsBanked, machine.PortsLowOrder} {
		for _, c := range cases {
			a, b, s1, s2, s3 := stagedGlobals()
			staged := append(append([]slot(nil), swap...), c.ops(a, b)...)
			sched := handProgram(ports, []*ir.Symbol{a, b, s1, s2, s3},
				[]slot{{machine.AU0, iconst(1, 5)}, {machine.AU1, iconst(2, 7)},
					{machine.DU0, iconst(3, 9)}, {machine.DU1, iconst(4, 0)}},
				staged)
			refErr := sim.NewMachine(sched).Run()
			if refErr == nil || !strings.Contains(refErr.Error(), c.want) {
				t.Fatalf("%v/%s: reference err %v, want one mentioning %q", ports, c.name, refErr, c.want)
			}
			cp, err := sim.Compile(sched)
			if err != nil {
				t.Fatalf("%v/%s: lower: %v", ports, c.name, err)
			}
			cmErr := cp.NewMachine().Run()
			if cmErr == nil || !strings.Contains(cmErr.Error(), c.want) {
				t.Errorf("%v/%s: compiled err %v, want one mentioning %q", ports, c.name, cmErr, c.want)
			}
		}
	}
}

// TestCompiledStagedEvaluators runs every scalar operation kind in
// staged form — one hand-built program per kind, the operation packed
// with the r1<->r2 swap that forces the staged path — and requires the
// compiled engine to end in the reference's exact state. Operands
// include a negative dividend and a negative float so sign handling in
// the staged evaluators is exercised.
func TestCompiledStagedEvaluators(t *testing.T) {
	r, f := ir.PhysInt, ir.PhysFloat
	intArgs := [2]ir.Reg{r(3), r(4)}
	fltArgs := [2]ir.Reg{f(1), f(2)}
	cases := []struct {
		kind ir.OpKind
		dst  ir.Reg
		args [2]ir.Reg
	}{
		{ir.OpMov, r(5), intArgs},
		{ir.OpAdd, r(5), intArgs}, {ir.OpSub, r(5), intArgs}, {ir.OpMul, r(5), intArgs},
		{ir.OpDiv, r(5), intArgs}, {ir.OpRem, r(5), intArgs}, {ir.OpNeg, r(5), intArgs},
		{ir.OpAnd, r(5), intArgs}, {ir.OpOr, r(5), intArgs}, {ir.OpXor, r(5), intArgs},
		{ir.OpNot, r(5), intArgs}, {ir.OpShl, r(5), intArgs}, {ir.OpShr, r(5), intArgs},
		{ir.OpMac, r(5), intArgs},
		{ir.OpSetEQ, r(5), intArgs}, {ir.OpSetNE, r(5), intArgs}, {ir.OpSetLT, r(5), intArgs},
		{ir.OpSetLE, r(5), intArgs}, {ir.OpSetGT, r(5), intArgs}, {ir.OpSetGE, r(5), intArgs},
		{ir.OpFAdd, f(3), fltArgs}, {ir.OpFSub, f(3), fltArgs}, {ir.OpFMul, f(3), fltArgs},
		{ir.OpFDiv, f(3), fltArgs}, {ir.OpFNeg, f(3), fltArgs}, {ir.OpFMac, f(3), fltArgs},
		{ir.OpFSetEQ, r(5), fltArgs}, {ir.OpFSetNE, r(5), fltArgs}, {ir.OpFSetLT, r(5), fltArgs},
		{ir.OpFSetLE, r(5), fltArgs}, {ir.OpFSetGT, r(5), fltArgs}, {ir.OpFSetGE, r(5), fltArgs},
		{ir.OpIntToFloat, f(3), intArgs}, {ir.OpFloatToInt, r(5), fltArgs},
	}
	for _, c := range cases {
		op := binop(c.kind, c.dst, c.args[0], c.args[1])
		unit := machine.DU0
		if c.dst == f(3) || c.args == fltArgs {
			unit = machine.FPU0
		}
		sched := handProgram(machine.PortsBanked, nil,
			[]slot{{machine.AU0, iconst(1, 5)}, {machine.AU1, iconst(2, 7)},
				{machine.DU0, iconst(3, -13)}, {machine.DU1, iconst(4, 3)},
				{machine.FPU0, fconst(1, -2.75)}, {machine.FPU1, fconst(2, 0.5)}},
			[]slot{{machine.DU0, iconst(5, 11)}, {machine.FPU0, fconst(3, 4.25)}},
			[]slot{
				{machine.AU0, binop(ir.OpMov, r(1), r(2), ir.NoReg)},
				{machine.AU1, binop(ir.OpMov, r(2), r(1), ir.NoReg)},
				{unit, op},
			})
		ref := sim.NewMachine(sched)
		if err := ref.Run(); err != nil {
			t.Fatalf("%s: reference: %v", c.kind, err)
		}
		cp, err := sim.Compile(sched)
		if err != nil {
			t.Fatalf("%s: lower: %v", c.kind, err)
		}
		cm := cp.NewMachine()
		if err := cm.Run(); err != nil {
			t.Fatalf("%s: compiled: %v", c.kind, err)
		}
		requireSameState(t, c.kind.String(), ref, cm, cp.MemWords())
		if cm.Regs[r(1)] != 7 || cm.Regs[r(2)] != 5 {
			t.Errorf("%s: swap not staged: r1=%d r2=%d, want 7 5", c.kind, cm.Regs[r(1)], cm.Regs[r(2)])
		}
	}
}
