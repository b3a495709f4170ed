package uarch

import (
	"math/rand"
	"testing"

	"sonar/internal/isa"
)

// operandScan is the operand lookup the dispatch-time producer references
// replaced, kept as their oracle: it starts from the register's newest
// producer and, when that is the consumer itself or younger, scans the ROB
// backwards from the consumer for the nearest older in-flight producer.
func (c *Core) operandScan(r uint8, consumerPos int, consumerSeq int64) (val uint64, ready bool) {
	if r == 0 {
		return 0, true
	}
	ref := c.lastProd[r]
	if ref.pos >= 0 {
		p := &c.rob[ref.pos]
		if p.active && p.seq == ref.seq {
			if p.seq < consumerSeq {
				return producerValue(p, c.cycle)
			}
			for i, pos := 0, consumerPos; i < c.robCount; i++ {
				pos = (pos - 1 + len(c.rob)) % len(c.rob)
				e := &c.rob[pos]
				if !e.active || e.seq >= consumerSeq {
					continue
				}
				if e.ins.Writes() == r {
					return producerValue(e, c.cycle)
				}
				if pos == c.robHead {
					break
				}
			}
		}
	}
	return c.regs[r], true
}

// operandCounts tallies which cases the oracle comparison exercised.
type operandCounts struct {
	compared  int // source operands compared
	scanned   int // the oracle had to scan past a newer producer
	stale     int // the dispatch-time producer had since left the ROB
	forwarded int // the value came from an in-flight producer
}

// checkOperands compares operand with operandScan for both sources of every
// waiting ROB entry.
func checkOperands(t *testing.T, c *Core, n *operandCounts) {
	t.Helper()
	for pos := range c.rob {
		if c.waiting[pos>>6]&(1<<(pos&63)) == 0 {
			continue
		}
		e := &c.rob[pos]
		for _, src := range [2]struct {
			has bool
			r   uint8
			ref prodRef
		}{
			{e.ins.Op.HasRs1(), e.ins.Rs1, e.src1},
			{e.ins.Op.HasRs2(), e.ins.Rs2, e.src2},
		} {
			if !src.has || src.r == 0 {
				continue
			}
			gotV, gotOK := c.operand(src.r, src.ref)
			wantV, wantOK := c.operandScan(src.r, pos, e.seq)
			if gotV != wantV || gotOK != wantOK {
				t.Fatalf("core %d cycle %d: %s (seq %d) reads x%d = (%#x, %v), scan says (%#x, %v)",
					c.ID, c.cycle, e.ins, e.seq, src.r, gotV, gotOK, wantV, wantOK)
			}
			n.compared++
			if ref := c.lastProd[src.r]; ref.pos >= 0 && c.rob[ref.pos].active &&
				c.rob[ref.pos].seq == ref.seq && ref.seq >= e.seq {
				n.scanned++
			}
			if src.ref.pos >= 0 {
				if p := &c.rob[src.ref.pos]; p.active && p.seq == src.ref.seq {
					n.forwarded++
				} else {
					n.stale++
				}
			}
		}
	}
}

// runChecked steps the SoC exactly as SoC.Run does, with each core's cycle
// unrolled as in Core.Step so checkOperands runs right before every issue.
func runChecked(t *testing.T, s *SoC, n *operandCounts) {
	t.Helper()
	start := s.cycle
	for !s.Halted() && s.cycle-start < s.Cores[0].Cfg.MaxCycles {
		s.Pulser.Drain(s.cycle)
		for _, c := range s.Cores {
			if c.halted {
				c.cycle++
				continue
			}
			c.applyRedirect()
			c.commit()
			checkOperands(t, c, n)
			c.issue()
			c.dispatch()
			c.fetch()
			c.cycle++
		}
		s.Net.Step()
		s.cycle++
	}
}

// selfReadProgram chains instructions that read the register they write
// behind a slow producer of that register, so their own dispatch makes them
// the register's newest producer while the value they need is still in
// flight; a faulting load in the middle exercises the exception flush.
func selfReadProgram() []isa.Instr {
	code := []isa.Instr{
		{Op: isa.LUI, Rd: 28, Imm: 0x40},
		isa.I(isa.ADDI, 1, 0, 1000),
		isa.I(isa.ADDI, 2, 0, 7),
		isa.R(isa.DIV, 5, 1, 2),
	}
	for k := 0; k < 6; k++ {
		code = append(code, isa.I(isa.ADDI, 5, 5, 1), isa.R(isa.ADD, 6, 5, 5))
	}
	code = append(code,
		isa.Load(isa.LD, 7, 28, 0x80), // privileged: faults
		isa.I(isa.ADDI, 7, 7, 1),
		isa.R(isa.MUL, 5, 5, 7),
	)
	return append(code, isa.Instr{Op: isa.ECALL})
}

// TestOperandMatchesScan runs random programs (with faulting loads and
// handler redirects, as goldenDigest does, over a wider privileged window so
// more loads fault) and a self-reading chain on
// BOOM, dual-core BOOM and NutShell, and checks before every issue that the
// dispatch-time producer references give the same operands as the backward
// scan they replaced. The unrolled stepping is checked against SoC.Run too.
func TestOperandMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		cores int
	}{
		{"boom", BoomConfig(), 1},
		{"boom-dual", BoomConfig(), 2},
		{"nutshell", NutshellConfig(), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(4242))
			checked := NewSoC(tc.cfg, tc.cores, goldenArrays, nil)
			plain := NewSoC(tc.cfg, tc.cores, goldenArrays, nil)
			var n operandCounts
			var perf PerfCounters
			for trial := 0; trial < 60; trial++ {
				code := selfReadProgram()
				if trial > 1 {
					code = randomStraightLine(rng, 40+rng.Intn(80))
				}
				prog := isa.NewProgram(0x1_0000, code...)
				var logs [2][][]CommitRecord
				for i, s := range []*SoC{checked, plain} {
					s.Mem.SetPrivRange(0x40000+0x80, 0x40000+0xc0)
					s.Reset()
					for _, c := range s.Cores {
						c.LoadProgram(prog)
						if trial%2 == 1 {
							c.SetHandler(prog.Base + uint64(4*(len(code)-1)))
						}
					}
					if i == 0 {
						runChecked(t, s, &n)
					} else {
						s.Run()
					}
					for _, c := range s.Cores {
						logs[i] = append(logs[i], append([]CommitRecord(nil), c.CommitLog...))
					}
				}
				for k, c := range checked.Cores {
					if !equalLogs(logs[0][k], logs[1][k]) || *c.Perf() != *plain.Cores[k].Perf() {
						t.Fatalf("trial %d core %d: checked stepping diverged from SoC.Run", trial, k)
					}
					p := c.Perf()
					perf.BranchFlushes += p.BranchFlushes
					perf.Exceptions += p.Exceptions
					perf.Squashed += p.Squashed
				}
			}
			t.Logf("%+v, %d branch flushes, %d exceptions, %d squashed",
				n, perf.BranchFlushes, perf.Exceptions, perf.Squashed)
			if n.scanned == 0 || n.stale == 0 || n.forwarded == 0 {
				t.Errorf("oracle cases not all exercised: %+v", n)
			}
			if perf.BranchFlushes == 0 || perf.Exceptions == 0 || perf.Squashed == 0 {
				t.Errorf("flush paths not exercised: %d branch flushes, %d exceptions, %d squashed",
					perf.BranchFlushes, perf.Exceptions, perf.Squashed)
			}
		})
	}
}

func equalLogs(a, b []CommitRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
