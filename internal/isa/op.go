// Package isa implements the RISC-V subset Sonar's testcases are written
// in: RV64I integer arithmetic, loads/stores, branches, the M extension
// (the paper's DUTs are RV64GC and RV64IMAC), LR/SC atomics (side channel
// S10 needs store-conditional), and the cycle CSR read used by timing
// measurements. Instructions carry full RV64 binary encodings so programs
// can round-trip through memory images.
package isa

import "strconv"

// Op identifies an instruction operation.
type Op uint8

// Operations in the supported subset.
const (
	ADD Op = iota
	SUB
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	SLT
	SLTU
	SLLI
	SRLI
	SRAI
	ADDI
	ANDI
	ORI
	XORI
	SLTI
	LUI
	MUL
	DIV
	REM
	LD
	LW
	SD
	SW
	LRD // lr.d
	SCD // sc.d
	BEQ
	BNE
	JAL
	RDCYCLE
	FENCE
	ECALL
	numOps
)

var opNames = [numOps]string{
	ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	SLL: "sll", SRL: "srl", SRA: "sra", SLT: "slt", SLTU: "sltu",
	SLLI: "slli", SRLI: "srli", SRAI: "srai",
	ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori", SLTI: "slti",
	LUI: "lui",
	MUL: "mul", DIV: "div", REM: "rem",
	LD: "ld", LW: "lw", SD: "sd", SW: "sw",
	LRD: "lr.d", SCD: "sc.d",
	BEQ: "beq", BNE: "bne", JAL: "jal",
	RDCYCLE: "rdcycle", FENCE: "fence", ECALL: "ecall",
}

// String returns the assembler mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return string(o.appendName(nil))
}

// appendName appends the mnemonic (String) to dst.
func (o Op) appendName(dst []byte) []byte {
	if int(o) < len(opNames) {
		return append(dst, opNames[o]...)
	}
	return append(strconv.AppendUint(append(dst, "Op("...), uint64(o), 10), ')')
}

// Op class flags, one bit per classifier below.
const (
	classALU uint16 = 1 << iota
	classMul
	classDiv
	classLoad
	classStore
	classBranch
	classJump
	classRd
	classRs1
	classRs2

	classMem = classLoad | classStore
)

// opClass holds every op's class flags. It is indexed by the whole uint8
// range, so a lookup needs no bounds check and values >= numOps classify as
// nothing.
var opClass = func() (t [256]uint16) {
	set := func(flag uint16, ops ...Op) {
		for _, o := range ops {
			t[o] |= flag
		}
	}
	unset := func(flag uint16, ops ...Op) {
		for _, o := range ops {
			t[o] &^= flag
		}
	}
	set(classALU, ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,
		SLLI, SRLI, SRAI, ADDI, ANDI, ORI, XORI, SLTI, LUI)
	set(classMul, MUL)
	set(classDiv, DIV, REM)
	set(classLoad, LD, LW, LRD)
	set(classStore, SD, SW, SCD)
	set(classBranch, BEQ, BNE)
	set(classJump, JAL)
	for o := Op(0); o < numOps; o++ {
		t[o] |= classRd | classRs1
	}
	unset(classRd, SD, SW, BEQ, BNE, FENCE, ECALL)
	unset(classRs1, LUI, JAL, RDCYCLE, FENCE, ECALL)
	set(classRs2, ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU, MUL, DIV, REM, SD, SW, SCD, BEQ, BNE)
	return t
}()

// IsALU reports whether the op executes on an integer ALU.
func (o Op) IsALU() bool { return opClass[o]&classALU != 0 }

// IsMul reports whether the op uses the multiplier.
func (o Op) IsMul() bool { return opClass[o]&classMul != 0 }

// IsDiv reports whether the op uses the divider.
func (o Op) IsDiv() bool { return opClass[o]&classDiv != 0 }

// IsLoad reports whether the op reads data memory.
func (o Op) IsLoad() bool { return opClass[o]&classLoad != 0 }

// IsStore reports whether the op writes data memory.
func (o Op) IsStore() bool { return opClass[o]&classStore != 0 }

// IsMem reports whether the op accesses data memory.
func (o Op) IsMem() bool { return opClass[o]&classMem != 0 }

// IsBranch reports whether the op is a conditional branch.
func (o Op) IsBranch() bool { return opClass[o]&classBranch != 0 }

// IsJump reports whether the op is an unconditional jump.
func (o Op) IsJump() bool { return opClass[o]&classJump != 0 }

// HasRd reports whether the op writes a destination register.
func (o Op) HasRd() bool { return opClass[o]&classRd != 0 }

// HasRs1 reports whether the op reads rs1.
func (o Op) HasRs1() bool { return opClass[o]&classRs1 != 0 }

// HasRs2 reports whether the op reads rs2.
func (o Op) HasRs2() bool { return opClass[o]&classRs2 != 0 }

// MemBytes returns the access width in bytes for memory ops, 0 otherwise.
func (o Op) MemBytes() int {
	switch o {
	case LD, SD, LRD, SCD:
		return 8
	case LW, SW:
		return 4
	}
	return 0
}
