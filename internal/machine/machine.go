// Package machine describes the target VLIW model DSP architecture from
// Figure 2 of the paper: nine single-cycle functional units, three
// 32-entry register files, and two single-ported, high-order-interleaved
// data-memory banks (X and Y) reached through dedicated memory units
// (MU0 accesses bank X, MU1 accesses bank Y).
package machine

import "fmt"

// Bank identifies a data-memory bank. The model DSP has two data banks
// plus a separate instruction memory (not addressable by data ops).
type Bank int8

const (
	// BankNone marks an operation or symbol with no bank assignment yet.
	BankNone Bank = iota
	// BankX is the X data-memory bank, accessed by memory unit MU0.
	BankX
	// BankY is the Y data-memory bank, accessed by memory unit MU1.
	BankY
	// BankBoth marks a duplicated symbol stored in both banks at the
	// same offset. Loads may use either memory unit; stores must be
	// issued to both banks to keep the copies coherent.
	BankBoth
)

func (b Bank) String() string {
	switch b {
	case BankNone:
		return "-"
	case BankX:
		return "X"
	case BankY:
		return "Y"
	case BankBoth:
		return "XY"
	}
	if b >= 4 {
		// Banks beyond the classic pair (see BankAt in spec.go).
		return fmt.Sprintf("B%d", int(b)-2)
	}
	return fmt.Sprintf("Bank(%d)", int8(b))
}

// Other returns the opposite single bank. Other(BankX) == BankY and
// vice versa; it panics for BankNone and BankBoth.
func (b Bank) Other() Bank {
	switch b {
	case BankX:
		return BankY
	case BankY:
		return BankX
	}
	panic("machine: Other on non-single bank " + b.String())
}

// Unit identifies one of the nine functional units.
type Unit int8

const (
	// PCU is the program-control unit: branches, calls, returns, and
	// the low-overhead loop hardware.
	PCU Unit = iota
	// MU0 is the memory unit wired to bank X.
	MU0
	// MU1 is the memory unit wired to bank Y.
	MU1
	// AU0 and AU1 are the address-arithmetic units.
	AU0
	AU1
	// DU0 and DU1 are the integer data units.
	DU0
	DU1
	// FPU0 and FPU1 are the floating-point units.
	FPU0
	FPU1

	// NumUnits is the total number of functional units.
	NumUnits = 9
)

var unitNames = [NumUnits]string{"PCU", "MU0", "MU1", "AU0", "AU1", "DU0", "DU1", "FPU0", "FPU1"}

func (u Unit) String() string {
	if u >= NumUnits && u < MaxUnits {
		// Memory units appended past FPU1 (see MemUnit in spec.go).
		return fmt.Sprintf("MU%d", int(u)-NumUnits+2)
	}
	if u < 0 || int(u) >= NumUnits {
		return fmt.Sprintf("Unit(%d)", int8(u))
	}
	return unitNames[u]
}

// Class groups functional units able to execute the same kind of
// operation. The compaction pass assigns each operation a class and
// then picks any free unit of that class.
type Class int8

const (
	// ClassControl ops execute on the PCU.
	ClassControl Class = iota
	// ClassMemory ops execute on MU0 or MU1, subject to the bank
	// binding enforced by the port model.
	ClassMemory
	// ClassInteger ops execute on any of AU0, AU1, DU0, DU1. The model
	// architecture places no bank-related restrictions on registers, so
	// integer and address arithmetic share the four scalar units.
	ClassInteger
	// ClassFloat ops execute on FPU0 or FPU1.
	ClassFloat

	// NumClasses is the number of unit classes.
	NumClasses = 4
)

func (c Class) String() string {
	switch c {
	case ClassControl:
		return "control"
	case ClassMemory:
		return "memory"
	case ClassInteger:
		return "integer"
	case ClassFloat:
		return "float"
	}
	return fmt.Sprintf("Class(%d)", int8(c))
}

// Shared unit-preference slices: UnitsOf sits on the scheduler's
// per-operation hot path, so it hands out preallocated slices instead
// of building a fresh literal per call. Callers must treat the
// returned slices as read-only.
var (
	unitsControl = []Unit{PCU}
	unitsMemory  = []Unit{MU0, MU1}
	unitsInteger = []Unit{DU0, DU1, AU0, AU1}
	unitsFloat   = []Unit{FPU0, FPU1}
)

// UnitsOf returns the functional units that can execute operations of
// class c, in the order the scheduler should try them. The returned
// slice is shared; callers must not modify it.
func UnitsOf(c Class) []Unit {
	switch c {
	case ClassControl:
		return unitsControl
	case ClassMemory:
		return unitsMemory
	case ClassInteger:
		return unitsInteger
	case ClassFloat:
		return unitsFloat
	}
	return nil
}

// Register-file geometry (Figure 2: three 32 x 32-bit register files).
const (
	// NumIntRegs is the size of the integer register file.
	NumIntRegs = 32
	// NumFloatRegs is the size of the floating-point register file.
	NumFloatRegs = 32
	// NumAddrRegs is the size of the address register file. The
	// reproduction reserves two address registers for the dual stack
	// pointers (SPX and SPY).
	NumAddrRegs = 32
)

// Memory geometry. On-chip memories in the DSPs the paper surveys range
// from 16KB to 200KB; 64K 32-bit words per bank sits comfortably in that
// envelope and holds every benchmark.
const (
	// BankWords is the capacity of each data bank in 32-bit words.
	BankWords = 1 << 16
	// StackWords is the size reserved at the top of each bank for that
	// bank's program stack.
	StackWords = 1 << 12
)

// PortModel describes how memory units reach the data banks. It is the
// single knob distinguishing the real machine from the Ideal dual-ported
// configuration used as the paper's upper bound.
type PortModel int8

const (
	// PortsBanked is the real machine: MU0 reaches only bank X and MU1
	// only bank Y, one access per bank per cycle.
	PortsBanked PortModel = iota
	// PortsDualPorted is the Ideal configuration: either memory unit
	// reaches either bank, so any two accesses proceed in parallel
	// regardless of data placement.
	PortsDualPorted
	// PortsLowOrder models the alternative the paper argues against
	// (§1.2, §3.2): consecutive addresses alternate between the banks
	// (bank = address parity), as in the Multiflow and in
	// microprocessor first-level caches. The compiler cannot steer
	// placement; it issues up to two accesses per instruction and the
	// hardware serialises the instruction with a one-cycle stall when
	// both hit the same bank at run time.
	PortsLowOrder
)

func (p PortModel) String() string {
	switch p {
	case PortsDualPorted:
		return "dual-ported"
	case PortsLowOrder:
		return "low-order"
	}
	return "banked"
}
