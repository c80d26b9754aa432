package compact

import (
	"testing"

	"dualbank/internal/ir"
	"dualbank/internal/machine"
)

// allocTestBlock builds a representative basic block: a software-
// pipelined-looking body with loads from both banks, integer and
// float arithmetic, and stores — enough to exercise the scheduler's
// data-ready recomputation and unit placement paths.
func allocTestBlock() (*ir.Func, *ir.Block) {
	f := ir.NewFunc("t", ir.TVoid)
	a := &ir.Symbol{Name: "A", Elem: ir.TFloat, Size: 8, Dims: []int{8}}
	bb := &ir.Symbol{Name: "B", Elem: ir.TFloat, Size: 8, Dims: []int{8}}
	c := &ir.Symbol{Name: "C", Elem: ir.TFloat, Size: 8, Dims: []int{8}}
	blk := f.NewBlock()
	var ops []*ir.Op
	idx := f.NewReg(ir.TInt)
	ops = append(ops, &ir.Op{Kind: ir.OpConst, Type: ir.TInt, Dst: idx, Imm: 0})
	for i := 0; i < 6; i++ {
		va := f.NewReg(ir.TFloat)
		vb := f.NewReg(ir.TFloat)
		vs := f.NewReg(ir.TFloat)
		vp := f.NewReg(ir.TFloat)
		ops = append(ops,
			&ir.Op{Kind: ir.OpLoad, Type: ir.TFloat, Dst: va, Sym: a, Idx: idx, Bank: machine.BankX},
			&ir.Op{Kind: ir.OpLoad, Type: ir.TFloat, Dst: vb, Sym: bb, Idx: idx, Bank: machine.BankY},
			&ir.Op{Kind: ir.OpFMul, Type: ir.TFloat, Dst: vp, Args: [2]ir.Reg{va, vb}},
			&ir.Op{Kind: ir.OpFAdd, Type: ir.TFloat, Dst: vs, Args: [2]ir.Reg{vp, va}},
			&ir.Op{Kind: ir.OpStore, Type: ir.TFloat, Sym: c, Idx: idx, Args: [2]ir.Reg{vs}, Bank: machine.BankX},
		)
	}
	ops = append(ops, &ir.Op{Kind: ir.OpRet})
	blk.Ops = ops
	return f, blk
}

// TestScheduleBlockZeroAlloc enforces the fast compile path's
// steady-state contract: with a warm Scratch, scheduling a block
// performs zero heap allocations (the sealed output block is built
// separately, by seal, and the unit-preference table once per program,
// by normalize).
func TestScheduleBlockZeroAlloc(t *testing.T) {
	_, blk := allocTestBlock()
	for _, cfg := range []Config{
		{Ports: machine.PortsBanked},
		{Ports: machine.PortsBanked, MirrorBanks: true},
		{Ports: machine.PortsDualPorted},
		{Spec: machine.BankSpec{Banks: 4, PortsPerBank: 2}},
	} {
		s := new(Scratch)
		su := cfg.normalize()
		if _, err := s.scheduleBlock(blk, su); err != nil { // warm the scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := s.scheduleBlock(blk, su); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%+v: scheduleBlock allocates %.1f objects/op with warm scratch, want 0", cfg, allocs)
		}
	}
}

// TestScheduleWithMatchesSchedule pins the scratch-reusing entry point
// to the one-shot one: same blocks, same instruction slots.
func TestScheduleWithMatchesSchedule(t *testing.T) {
	f, _ := allocTestBlock()
	p := &ir.Program{Funcs: []*ir.Func{f}}
	for _, ports := range []machine.PortModel{machine.PortsBanked, machine.PortsDualPorted} {
		cfg := Config{Ports: ports}
		one, err := Schedule(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := new(Scratch)
		for round := 0; round < 3; round++ { // reuse across rounds
			two, err := ScheduleWith(p, cfg, s)
			if err != nil {
				t.Fatal(err)
			}
			fa, fb := one.Funcs["t"], two.Funcs["t"]
			if len(fa.Blocks) != len(fb.Blocks) {
				t.Fatalf("block counts differ: %d vs %d", len(fa.Blocks), len(fb.Blocks))
			}
			for bi := range fa.Blocks {
				ia, ib := fa.Blocks[bi].Instrs, fb.Blocks[bi].Instrs
				if len(ia) != len(ib) {
					t.Fatalf("ports=%v block %d: %d instrs vs %d", ports, bi, len(ia), len(ib))
				}
				for ci := range ia {
					if ia[ci].Slots != ib[ci].Slots {
						t.Fatalf("ports=%v block %d cycle %d: slots differ", ports, bi, ci)
					}
				}
			}
		}
	}
}

func BenchmarkScheduleBlock(b *testing.B) {
	_, blk := allocTestBlock()
	s := new(Scratch)
	cfg := Config{Ports: machine.PortsBanked}
	su := cfg.normalize()
	if _, err := s.scheduleBlock(blk, su); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.scheduleBlock(blk, su); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleProgram(b *testing.B) {
	f, _ := allocTestBlock()
	p := &ir.Program{Funcs: []*ir.Func{f}}
	s := new(Scratch)
	cfg := Config{Ports: machine.PortsBanked}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleWith(p, cfg, s); err != nil {
			b.Fatal(err)
		}
	}
}
