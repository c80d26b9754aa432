package machine

import "testing"

func TestBankOther(t *testing.T) {
	if BankX.Other() != BankY || BankY.Other() != BankX {
		t.Fatal("Other() does not swap banks")
	}
}

func TestBankOtherPanics(t *testing.T) {
	for _, b := range []Bank{BankNone, BankBoth} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Other(%v) did not panic", b)
				}
			}()
			b.Other()
		}()
	}
}

func TestBankStrings(t *testing.T) {
	cases := map[Bank]string{
		BankNone: "-", BankX: "X", BankY: "Y", BankBoth: "XY",
	}
	for b, want := range cases {
		if got := b.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", b, got, want)
		}
	}
}

func TestUnitNames(t *testing.T) {
	want := []string{"PCU", "MU0", "MU1", "AU0", "AU1", "DU0", "DU1", "FPU0", "FPU1"}
	for i, w := range want {
		if got := Unit(i).String(); got != w {
			t.Errorf("Unit(%d) = %q, want %q", i, got, w)
		}
	}
	if NumUnits != len(want) {
		t.Errorf("NumUnits = %d, want %d", NumUnits, len(want))
	}
}

func TestUnitsOfClasses(t *testing.T) {
	// Figure 2: one PCU, two memory units, four scalar integer units
	// (AU0/AU1/DU0/DU1), two floating-point units.
	if got := UnitsOf(ClassControl); len(got) != 1 || got[0] != PCU {
		t.Errorf("control units = %v", got)
	}
	if got := UnitsOf(ClassMemory); len(got) != 2 || got[0] != MU0 || got[1] != MU1 {
		t.Errorf("memory units = %v", got)
	}
	if got := UnitsOf(ClassInteger); len(got) != 4 {
		t.Errorf("integer units = %v", got)
	}
	if got := UnitsOf(ClassFloat); len(got) != 2 {
		t.Errorf("float units = %v", got)
	}
}

// TestDefaultSpecUnitBinding pins the paper's wiring on the zero-value
// spec: two memory units, MU0 the only unit reaching bank X and MU1
// the only unit reaching bank Y.
func TestDefaultSpecUnitBinding(t *testing.T) {
	var s BankSpec
	if got := s.UnitsForBankIndex(0); len(got) != 1 || got[0] != MU0 {
		t.Errorf("bank X units = %v, want [MU0]", got)
	}
	if got := s.UnitsForBankIndex(1); len(got) != 1 || got[0] != MU1 {
		t.Errorf("bank Y units = %v, want [MU1]", got)
	}
	if got := s.MemUnits(); len(got) != 2 || got[0] != MU0 || got[1] != MU1 {
		t.Errorf("memory units = %v, want [MU0 MU1]", got)
	}
}

func TestBankOfUnit(t *testing.T) {
	var s BankSpec
	if s.BankOfUnit(MU0) != BankX || s.BankOfUnit(MU1) != BankY {
		t.Fatal("memory unit bank binding wrong")
	}
	if s.BankOfUnit(DU0) != BankNone {
		t.Fatal("non-memory unit should have no bank")
	}
}
