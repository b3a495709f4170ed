package uarch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"sonar/internal/hdl"
	"sonar/internal/isa"
)

// goldenArrays drives every structural-array role, so the golden runs also
// cover the bulk-array request pulses the cores schedule.
var goldenArrays = []ArraySpec{
	{Component: "rob", Name: "entries", Entries: 8, Fanin: 2, Width: 16, Role: RoleROB},
	{Component: "frontend", Name: "fetchbuf", Entries: 4, Fanin: 2, Width: 16, Role: RoleFetchBuf},
	{Component: "issue", Name: "slots", Entries: 8, Fanin: 2, Width: 16, Role: RoleIssueQ},
	{Component: "regfile", Name: "ports", Entries: 8, Fanin: 2, Width: 16, Role: RoleRegFile},
	{Component: "frontend", Name: "btb", Entries: 4, Fanin: 2, Width: 16, Role: RoleBTB},
}

// goldenDigest runs 50 random programs on every core of a SoC and hashes
// each core's commit log (index, PC, cycle, exception), its performance
// counters, and every netlist value change in the order it happened — the
// last pins which request pulses fire at which cycle, and in what order
// within a cycle. A two-dword privileged window inside the programs' data area
// makes some loads fault, so exception flushes (lazy on BOOM, early on
// NutShell) and handler redirects are part of the pinned behaviour.
func goldenDigest(cfg Config, cores int) string {
	rng := rand.New(rand.NewSource(4242))
	soc := NewSoC(cfg, cores, goldenArrays, nil)
	soc.Mem.SetPrivRange(0x40000+0x80, 0x40000+0x90)
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, sig := range soc.Net.Signals() {
		if sig.IsConst() {
			continue
		}
		sig.Watch(func(s *hdl.Signal, old, new uint64, cycle int64) {
			put(int64(s.ID()))
			put(int64(old))
			put(int64(new))
			put(cycle)
		})
	}
	for trial := 0; trial < 50; trial++ {
		code := randomStraightLine(rng, 40+rng.Intn(80))
		prog := isa.NewProgram(0x1_0000, code...)
		soc.Reset()
		for _, c := range soc.Cores {
			c.LoadProgram(prog)
			if trial%2 == 1 {
				// Odd trials resume at the final ECALL after a fault.
				c.SetHandler(prog.Base + uint64(4*(len(code)-1)))
			}
		}
		put(soc.Run())
		for _, c := range soc.Cores {
			for _, r := range c.CommitLog {
				put(int64(r.Idx))
				put(int64(r.PC))
				put(r.Cycle)
				if r.Exception {
					put(1)
				} else {
					put(0)
				}
			}
			p := c.Perf()
			for _, v := range []int64{
				p.Cycles, p.FetchGroups, p.FetchStallCycles, p.Dispatched,
				p.IssuedALU, p.IssuedMul, p.IssuedDiv, p.IssuedMem, p.IssuedOther,
				p.Committed, p.Squashed, p.BranchFlushes, p.Exceptions,
			} {
				put(v)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenCycleExact pins the core model cycle for cycle: the digests were
// recorded before the issue scan, pulser and memory were optimised, and any
// change to what the model computes — a commit moving by one cycle, one
// squash more or less, one pulse out of order — changes them.
func TestGoldenCycleExact(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		cores int
		want  string
	}{
		{"boom", BoomConfig(), 1, "61e118e9d8e25ecc337d9d3f1ffcf90365ed870a7f9fe816d727b688b9dbca18"},
		{"boom-dual", BoomConfig(), 2, "a68369a9f44e2320ccb5bbddc4232a3e3bfc7a3374ae3bf4eb5b4664370acead"},
		{"nutshell", NutshellConfig(), 1, "dfa046675b1f3b595892f89a79f84b3afa4ad52efea3acc75a2f47144d14f9a4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := goldenDigest(tc.cfg, tc.cores); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
