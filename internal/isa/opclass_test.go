package isa

import "testing"

// The switch-based classifiers the flag table replaced, kept as the oracle
// the table is checked against.

func refIsALU(o Op) bool {
	switch o {
	case ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,
		SLLI, SRLI, SRAI, ADDI, ANDI, ORI, XORI, SLTI, LUI:
		return true
	}
	return false
}

func refIsMul(o Op) bool    { return o == MUL }
func refIsDiv(o Op) bool    { return o == DIV || o == REM }
func refIsLoad(o Op) bool   { return o == LD || o == LW || o == LRD }
func refIsStore(o Op) bool  { return o == SD || o == SW || o == SCD }
func refIsMem(o Op) bool    { return refIsLoad(o) || refIsStore(o) }
func refIsBranch(o Op) bool { return o == BEQ || o == BNE }
func refIsJump(o Op) bool   { return o == JAL }

func refHasRd(o Op) bool {
	switch o {
	case SD, SW, BEQ, BNE, FENCE, ECALL:
		return false
	}
	return o < numOps
}

func refHasRs1(o Op) bool {
	switch o {
	case LUI, JAL, RDCYCLE, FENCE, ECALL:
		return false
	}
	return o < numOps
}

func refHasRs2(o Op) bool {
	switch o {
	case ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU, MUL, DIV, REM, SD, SW, SCD, BEQ, BNE:
		return true
	}
	return false
}

// TestOpClassTableMatchesSwitches checks every classifier against its
// switch-based oracle over the whole Op range, including values past numOps
// that no decoder produces.
func TestOpClassTableMatchesSwitches(t *testing.T) {
	for _, c := range []struct {
		name     string
		got, ref func(Op) bool
	}{
		{"IsALU", Op.IsALU, refIsALU},
		{"IsMul", Op.IsMul, refIsMul},
		{"IsDiv", Op.IsDiv, refIsDiv},
		{"IsLoad", Op.IsLoad, refIsLoad},
		{"IsStore", Op.IsStore, refIsStore},
		{"IsMem", Op.IsMem, refIsMem},
		{"IsBranch", Op.IsBranch, refIsBranch},
		{"IsJump", Op.IsJump, refIsJump},
		{"HasRd", Op.HasRd, refHasRd},
		{"HasRs1", Op.HasRs1, refHasRs1},
		{"HasRs2", Op.HasRs2, refHasRs2},
	} {
		for v := 0; v < 256; v++ {
			o := Op(v)
			if got, want := c.got(o), c.ref(o); got != want {
				t.Errorf("Op(%d).%s() = %v, want %v", v, c.name, got, want)
			}
		}
	}
}
