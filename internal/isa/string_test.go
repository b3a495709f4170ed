package isa

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fmtString is the fmt-based Instr.String the append renderer replaced —
// kept as the differential oracle for the assembler syntax.
func fmtString(i Instr) string {
	switch {
	case i.Op == RDCYCLE:
		return fmt.Sprintf("rdcycle x%d", i.Rd)
	case i.Op == FENCE || i.Op == ECALL:
		return fmtOpString(i.Op)
	case i.Op == LUI:
		return fmt.Sprintf("lui x%d, %d", i.Rd, i.Imm)
	case i.Op == JAL:
		return fmt.Sprintf("jal x%d, %d", i.Rd, i.Imm)
	case i.Op.IsBranch():
		return fmt.Sprintf("%s x%d, x%d, %d", fmtOpString(i.Op), i.Rs1, i.Rs2, i.Imm)
	case i.Op.IsLoad():
		return fmt.Sprintf("%s x%d, %d(x%d)", fmtOpString(i.Op), i.Rd, i.Imm, i.Rs1)
	case i.Op == SCD:
		return fmt.Sprintf("%s x%d, x%d, 0(x%d)", fmtOpString(i.Op), i.Rd, i.Rs2, i.Rs1)
	case i.Op.IsStore():
		return fmt.Sprintf("%s x%d, %d(x%d)", fmtOpString(i.Op), i.Rs2, i.Imm, i.Rs1)
	case i.Op.HasRs2():
		return fmt.Sprintf("%s x%d, x%d, x%d", fmtOpString(i.Op), i.Rd, i.Rs1, i.Rs2)
	default:
		return fmt.Sprintf("%s x%d, x%d, %d", fmtOpString(i.Op), i.Rd, i.Rs1, i.Imm)
	}
}

// fmtOpString is the fmt-based Op.String oracle.
func fmtOpString(o Op) string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// The append renderer is byte-identical to the fmt oracle for every op —
// including out-of-range ones — over random and extreme operands.
func TestStringMatchesFmtOracle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	imms := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, -2048, 2047}
	for op := 0; op < 256; op++ {
		for k := 0; k < 64; k++ {
			ins := Instr{
				Op: Op(op), Rd: uint8(r.Intn(256)), Rs1: uint8(r.Intn(256)), Rs2: uint8(r.Intn(256)),
				Imm: r.Int63n(1<<20) - (1 << 19),
			}
			if k < len(imms) {
				ins.Imm = imms[k]
			}
			if got, want := ins.String(), fmtString(ins); got != want {
				t.Fatalf("String(%+v) = %q, fmt oracle %q", ins, got, want)
			}
		}
		if got, want := Op(op).String(), fmtOpString(Op(op)); got != want {
			t.Fatalf("Op(%d).String() = %q, fmt oracle %q", op, got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		ins := randomInstr(r)
		if got, want := ins.String(), fmtString(ins); got != want {
			t.Fatalf("String(%+v) = %q, fmt oracle %q", ins, got, want)
		}
	}
}
