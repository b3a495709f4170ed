package uarch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"sonar/internal/isa"
)

// smcBase is where the self-modifying programs are loaded; x28 holds it so
// stores can address the program's own words.
const smcBase = 0x1_0000

// loadWord appends instructions that leave the 32-bit word w in register rd
// (upper bits unspecified: only sw's low word is stored).
func loadWord(code []isa.Instr, rd uint8, w uint32) []isa.Instr {
	lo := int64(int32(w<<20) >> 20)
	hi := int64((uint64(w) - uint64(lo)) >> 12 & 0xfffff)
	return append(code,
		isa.Instr{Op: isa.LUI, Rd: rd, Imm: hi},
		isa.I(isa.ADDI, rd, rd, lo),
	)
}

// rewriteProgram stores new encodings over instructions the core reaches
// later: over an instruction inside a loop it has already executed once
// (the same PC then holds a different word), and over an instruction past
// the loop it has not fetched yet.
func rewriteProgram() []isa.Instr {
	code := []isa.Instr{
		{Op: isa.LUI, Rd: 28, Imm: smcBase >> 12},
		isa.I(isa.ADDI, 1, 0, 3), // loop counter
	}
	code = loadWord(code, 6, isa.I(isa.ADDI, 7, 7, 100).Encode())
	code = loadWord(code, 9, isa.I(isa.ADDI, 10, 10, 500).Encode())
	const loop, ahead = 7, 40
	code = append(code,
		isa.Store(isa.SW, 9, 28, 4*ahead), // rewrite the not-yet-fetched word
		isa.I(isa.ADDI, 7, 7, 1),          // loop: rewritten by the next store
		isa.Store(isa.SW, 6, 28, 4*loop),
		isa.I(isa.ADDI, 1, 1, -1),
		isa.Branch(isa.BNE, 1, 0, -12),
	)
	if code[loop].Op != isa.ADDI || code[loop].Rd != 7 {
		panic("loop target misplaced")
	}
	for len(code) < ahead {
		code = append(code, isa.NOP())
	}
	code = append(code, isa.I(isa.ADDI, 10, 10, 1)) // rewritten before it is fetched
	return code
}

// commitDigest hashes a commit log (index, PC, cycle, encoding, exception)
// and the final architectural registers.
func commitDigest(log []CommitRecord, c *Core) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range log {
		put(uint64(r.Idx))
		put(r.PC)
		put(uint64(r.Cycle))
		put(uint64(r.Instr.Encode()))
		if r.Exception {
			put(1)
		} else {
			put(0)
		}
	}
	for r := uint8(1); r < 32; r++ {
		put(c.Reg(r))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSelfModifyingCode pins what fetch decodes when a program rewrites its
// own code: the word read from memory at fetch time is what executes, even
// when the same PC held a different word before. Any decode caching in fetch
// must keep these commit logs.
func TestSelfModifyingCode(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		// x7 and x10 after the run: the loop's old word executes once and
		// its new word twice; past the loop only the new word executes.
		regs [2]uint64
		want string
	}{
		{"boom", BoomConfig(), [2]uint64{1 + 2*100, 500}, "f6114c5ae66c8ca22148d78451fcec9db341a8e6bbc23e7a8875aaf282a87205"},
		{"nutshell", NutshellConfig(), [2]uint64{1 + 2*100, 500}, "7bd28ce3db76bf89c40490fefa5cb742d232e239a603dfc21bce6a2e15e44fbc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testSoC(tc.cfg)
			code := append(rewriteProgram(), isa.Instr{Op: isa.ECALL})
			log := s.RunProgram(isa.NewProgram(smcBase, code...))
			c := s.Cores[0]
			if !c.Halted() || c.Cycle() >= tc.cfg.MaxCycles {
				t.Fatal("program did not halt")
			}
			if got := [2]uint64{c.Reg(7), c.Reg(10)}; got != tc.regs {
				t.Errorf("x7, x10 = %d, want %d", got, tc.regs)
			}
			if got := commitDigest(log, c); got != tc.want {
				t.Errorf("commit digest %s, want %s", got, tc.want)
			}
		})
	}
}
