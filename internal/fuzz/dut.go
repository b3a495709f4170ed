// Package fuzz implements Sonar's microarchitectural-state-guided fuzzing
// (paper §6): the secret-dependent testcase template, seed retention and
// selection driven by the reqsIntvl feedback, and the adaptive directed
// mutation strategy that shifts request timing by growing or shrinking the
// dependency chain at the head of a testcase.
package fuzz

import (
	"sync"

	"sonar/internal/isa"
	"sonar/internal/monitor"
	"sonar/internal/trace"
	"sonar/internal/uarch"
)

// Memory layout shared by all testcases.
const (
	// CodeBase is where the victim program is placed.
	CodeBase uint64 = 0x1_0000
	// HandlerBase is where exception handlers are placed.
	HandlerBase uint64 = 0x2_0000
	// AttackerCodeBase is where the dual-core attacker program is placed.
	AttackerCodeBase uint64 = 0x3_0000
	// DataBase is the start of the victim data window.
	DataBase uint64 = 0x4_0000
	// AttackerDataBase is the start of the attacker data window.
	AttackerDataBase uint64 = 0x6_0000
	// SecretAddr holds the secret value during fuzzing (unprivileged).
	SecretAddr uint64 = 0x8_0000
	// PrivBase..PrivLimit is the privileged range used by Meltdown-style
	// exploitability analysis (package attack).
	PrivBase  uint64 = 0x10_0000
	PrivLimit uint64 = 0x10_1000
)

// Reserved registers (never touched by random fillers).
const (
	// RegChain carries the head dependency chain value.
	RegChain = 9
	// RegProbe0..2 are scratch registers for probe address computation.
	RegProbe0 = 10
	RegProbe1 = 11
	RegProbe2 = 12
	// RegDataBase holds DataBase.
	RegDataBase = 28
	// RegSecretBase holds SecretAddr.
	RegSecretBase = 29
	// RegSecret receives the loaded secret value.
	RegSecret = 30
	// RegTmp is scratch for secret-dependent ops.
	RegTmp = 31
)

// DUT bundles an elaborated SoC with its contention-point analysis and
// instrumentation, ready to execute testcases.
type DUT struct {
	SoC      *uarch.SoC       // the elaborated device
	Analysis *trace.Analysis  // §5 contention-point identification results
	Mon      *monitor.Monitor // reqsIntvl/state monitor over Analysis' points
	// WindowAlwaysOpen disables the secret-dependent monitoring window:
	// states are collected over the whole execution (the §6.1 ablation).
	WindowAlwaysOpen bool

	// arenas are the two recycled execution slots Execute alternates
	// between; see Execute for the aliasing contract.
	arenas   [2]execArena
	arenaIdx int
	// halt is the cached halt-others program (undecodable address).
	halt *isa.Program
}

// execArena holds the buffers one Execute slot recycles across runs: the
// returned Execution value itself, the victim and attacker commit logs, the
// snapshot, and the built programs. After warmup, a run through the slot
// allocates nothing.
type execArena struct {
	ex     Execution
	log    []uarch.CommitRecord
	attLog []uarch.CommitRecord
	snap   monitor.Snapshot
	prog   isa.Program
	att    isa.Program
}

// NewDUT analyzes and instruments a SoC. Similarity matching for persistent
// contention uses cacheline granularity.
func NewDUT(soc *uarch.SoC) *DUT {
	return NewDUTWithAnalysis(soc, trace.Analyze(soc.Net))
}

// NewDUTWithAnalysis instruments a SoC using an existing analysis of the
// same design. If the analysis was computed on a different (but identically
// elaborated) netlist instance, it is rebound onto this SoC's netlist by
// dense signal id — the path parallel campaigns use to analyze once and
// share the result across every worker and fault-recovery replacement.
func NewDUTWithAnalysis(soc *uarch.SoC, a *trace.Analysis) *DUT {
	if a.Netlist != soc.Net {
		a = a.Rebind(soc.Net)
	}
	m := monitor.New(a, monitor.Config{SimilarityMask: ^uint64(uarch.LineBytes - 1)})
	d := &DUT{SoC: soc, Analysis: a, Mon: m}
	for _, c := range soc.Cores {
		c.SetWindowObserver(&windowGate{d})
	}
	soc.Mem.SetPrivRange(PrivBase, PrivLimit)
	return d
}

// SharedAnalysisFactory wraps a SoC constructor into a DUT factory that runs
// the contention-point analysis exactly once and rebinds it to every
// subsequently elaborated SoC. It is safe for concurrent use; parallel
// engines build workers concurrently.
func SharedAnalysisFactory(newSoC func() *uarch.SoC) func() *DUT {
	var (
		mu     sync.Mutex
		shared *trace.Analysis
	)
	return func() *DUT {
		soc := newSoC()
		mu.Lock()
		if shared == nil {
			shared = trace.Analyze(soc.Net)
		}
		a := shared
		mu.Unlock()
		return NewDUTWithAnalysis(soc, a)
	}
}

// windowGate forwards the cores' window transitions to the monitor unless
// the whole-run ablation pins the window open.
type windowGate struct{ d *DUT }

// SetWindow implements uarch.WindowObserver.
func (g *windowGate) SetWindow(open bool) {
	if g.d.WindowAlwaysOpen {
		g.d.Mon.SetWindow(true)
		return
	}
	g.d.Mon.SetWindow(open)
}

// Execution is the observable outcome of one testcase run under one secret.
type Execution struct {
	// Log is the victim core's commit log.
	Log []uarch.CommitRecord
	// AttackerLog is the second core's commit log (dual-core scenario).
	AttackerLog []uarch.CommitRecord
	// Snap is the contention-state snapshot within the monitoring window.
	Snap *monitor.Snapshot
	// Cycles is the total cycle count of the run.
	Cycles int64
}

// Execute resets the DUT, installs the secret, and runs the testcase to
// completion under the given secret value.
//
// The returned Execution and everything it references live in one of two
// recycled arenas: a result stays valid across exactly one subsequent
// Execute on the same DUT (the dual-secret A/B pattern every caller uses)
// and is overwritten by the one after that. Callers that need longer-lived
// data must copy it out, as package detect does. Steady-state runs on a
// warm DUT perform no heap allocations.
//
//sonar:alloc-free
func (d *DUT) Execute(tc *Testcase, secret uint64) *Execution {
	ar := &d.arenas[d.arenaIdx]
	d.arenaIdx = 1 - d.arenaIdx

	d.SoC.Reset()
	d.Mon.Reset()
	if d.WindowAlwaysOpen {
		d.Mon.SetWindow(true)
	}
	d.SoC.Mem.Write(SecretAddr, secret, 8)

	sStart, sEnd := tc.BuildInto(&ar.prog)
	victim := d.SoC.Cores[0]
	victim.CommitLog = ar.log[:0] // give the core this slot's private log
	victim.LoadProgram(&ar.prog)
	victim.SetSecretRange(sStart, sEnd)

	runAttacker := len(d.SoC.Cores) > 1 && len(tc.Attacker) > 0
	if len(d.SoC.Cores) > 1 {
		if runAttacker {
			tc.BuildAttackerInto(&ar.att)
			d.SoC.Cores[1].CommitLog = ar.attLog[:0]
			d.SoC.Cores[1].LoadProgram(&ar.att)
		} else {
			d.haltOthers()
		}
	}
	cycles := d.SoC.Run()
	ar.log = victim.CommitLog // the run may have grown the buffer
	d.Mon.SnapshotInto(&ar.snap)

	ex := &ar.ex
	*ex = Execution{Log: ar.log, Snap: &ar.snap, Cycles: cycles}
	if runAttacker {
		ar.attLog = d.SoC.Cores[1].CommitLog
		ex.AttackerLog = ar.attLog
	}
	return ex
}

func (d *DUT) haltOthers() {
	if d.halt == nil {
		// An empty program at an undecodable address halts immediately.
		d.halt = isa.NewProgram(0xF_0000, isa.Instr{Op: isa.ECALL})
	}
	for _, c := range d.SoC.Cores[1:] {
		c.LoadProgram(d.halt)
	}
}
