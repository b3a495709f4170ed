package uarch

import (
	"math/bits"

	"sonar/internal/hdl"
	"sonar/internal/isa"
)

// WindowObserver is notified when the secret-dependent monitoring window
// opens and closes (paper §6.1). *monitor.Monitor satisfies it.
type WindowObserver interface {
	SetWindow(open bool)
}

// CommitRecord is one committed instruction with its commit cycle — the raw
// material of the commit-cycle-difference analysis (paper §7.1).
type CommitRecord struct {
	// Idx is the static program index (-1 for instructions outside the
	// loaded program, e.g. decode padding).
	Idx int
	// PC is the instruction address.
	PC uint64
	// Cycle is the commit cycle.
	Cycle int64
	// Instr is the committed instruction.
	Instr isa.Instr
	// Exception marks a faulting commit.
	Exception bool
}

// rob entry states.
const (
	stWaiting = iota
	stIssued
)

type robEntry struct {
	active    bool
	seq       int64
	idx       int
	pc        uint64
	ins       isa.Instr
	state     uint8
	result    uint64
	doneAt    int64 // result available at the end of this cycle
	exception bool
	// earlyFlushed marks a fault already handled by early detection
	// (NutShell): commit must not flush again.
	earlyFlushed bool
	secretDep    bool
	// src1 and src2 name the nearest older in-flight producers of the
	// entry's rs1 and rs2 as of dispatch (pos -1: none, the committed value
	// stands). Dispatch and commit are in order and a flush that removes a
	// producer removes its younger consumers too, so the reference stays
	// right: once it goes stale, every older producer has committed.
	src1, src2 prodRef
}

// prodRef names the ROB entry that produces a register value; seq tells a
// live reference from a reused ROB position.
type prodRef struct {
	pos int
	seq int64
}

// noProd is the prodRef of a register with no in-flight producer.
var noProd = prodRef{pos: -1}

type fetchGroup struct {
	instrs  []fetchedInstr
	availAt int64
}

type fetchedInstr struct {
	pc  uint64
	idx int
	ins isa.Instr
}

// Bulk bundles the structural arrays a core drives from pipeline activity.
// Any field may be nil.
type Bulk struct {
	ROB      *BulkArray // reorder buffer occupancy
	FetchBuf *BulkArray // fetch buffer occupancy
	IssueQ   *BulkArray // issue queue occupancy
	RegFile  *BulkArray // physical register file write ports
	BTB      *BulkArray // branch target buffer update ports
}

// Core is the cycle-accurate out-of-order core engine. It fetches through
// the L1 ICache, dispatches in order into the ROB, issues out of order to
// the execution units and the L1 DCache, and commits in order. Exceptions
// are detected at execute and handled lazily at commit (BOOM) or eagerly at
// detection (NutShell, Config.EarlyExceptionDetect), which controls the
// transient window Meltdown-style templates rely on (§7.3, §8.5).
type Core struct {
	Cfg    Config // elaboration-time configuration, immutable after NewCore
	ID     int    // core index within the SoC
	net    *hdl.Netlist
	pulser *Pulser
	mem    *Memory
	bus    *DChannel
	ICache *Cache     // private L1 instruction cache
	DCache *Cache     // private L1 data cache
	Exec   *ExecUnits // shared or private execution units
	bulk   Bulk

	prog        *isa.Program
	secretStart int
	secretEnd   int
	handlerAddr uint64

	cycle    int64
	pc       uint64
	regs     [32]uint64
	rob      []robEntry
	robHead  int
	robTail  int
	robCount int
	// waiting has one bit per ROB position, set while the entry there is
	// dispatched but not yet issued, so issue visits only those entries.
	waiting  []uint64
	seqNext  int64
	lastProd [32]prodRef

	// fetchBuf is a head-indexed queue: entries [fbHead:] are live. Dispatch
	// consumes by advancing fbHead so the backing array keeps its capacity;
	// fetch compacts to [:0] whenever the queue drains.
	fetchBuf   []fetchedInstr
	fbHead     int
	pending    fetchGroup // in-flight fetch group, valid when hasPending
	hasPending bool

	// imgBuf is the scratch buffer LoadProgram renders program images into.
	imgBuf []byte

	redirectValid bool
	redirectPC    uint64
	redirectAt    int64

	ldqCount, stqCount int
	halted             bool
	secretInROB        int
	window             WindowObserver

	// CommitLog records every committed instruction in order.
	CommitLog []CommitRecord

	perf PerfCounters
}

// CoreParams bundles the shared SoC pieces a core plugs into.
type CoreParams struct {
	ID     int          // core index within the SoC
	Net    *hdl.Netlist // netlist the core's signals live in
	Pulser *Pulser      // contention pulser shared across cores
	Mem    *Memory      // backing memory model
	Bus    *DChannel    // shared TileLink D-channel
	ICache *Cache       // this core's L1 instruction cache
	DCache *Cache       // this core's L1 data cache
	Exec   *ExecUnits   // execution units (shared when SMT)
	Bulk   Bulk         // structural arrays driven by this core
}

// NewCore assembles a core from its parts.
func NewCore(cfg Config, p CoreParams) *Core {
	c := &Core{
		Cfg:     cfg,
		ID:      p.ID,
		net:     p.Net,
		pulser:  p.Pulser,
		mem:     p.Mem,
		bus:     p.Bus,
		ICache:  p.ICache,
		DCache:  p.DCache,
		Exec:    p.Exec,
		bulk:    p.Bulk,
		rob:     make([]robEntry, cfg.ROBEntries),
		waiting: make([]uint64, (cfg.ROBEntries+63)/64),
	}
	c.clearProducers()
	return c
}

// SetWindowObserver attaches the monitoring-window sink.
func (c *Core) SetWindowObserver(w WindowObserver) { c.window = w }

// LoadProgram places the program image into memory and points fetch at it.
// The secret-dependent range is cleared; set it with SetSecretRange.
func (c *Core) LoadProgram(p *isa.Program) {
	c.prog = p
	c.imgBuf = p.AppendImage(c.imgBuf[:0])
	c.mem.WriteBytes(p.Base, c.imgBuf)
	c.pc = p.Base
	c.secretStart, c.secretEnd = -1, -1
}

// SetSecretRange marks program indices [start, end) as the secret-dependent
// region for monitoring-window purposes (paper §6.1).
func (c *Core) SetSecretRange(start, end int) {
	c.secretStart, c.secretEnd = start, end
}

// SetHandler sets the exception handler address (0 halts on exception).
func (c *Core) SetHandler(addr uint64) { c.handlerAddr = addr }

// SetReg writes an architectural register directly (test and PoC setup).
func (c *Core) SetReg(r uint8, v uint64) {
	if r != 0 {
		c.regs[r] = v
	}
}

// Reg reads an architectural register.
func (c *Core) Reg(r uint8) uint64 { return c.regs[r] }

// Cycle returns the core's current cycle.
func (c *Core) Cycle() int64 { return c.cycle }

// Halted reports whether the core has committed its terminating ECALL or
// exceeded the cycle cap.
func (c *Core) Halted() bool { return c.halted || c.cycle >= c.Cfg.MaxCycles }

// Reset returns the core to its post-elaboration state. Caches, execution
// units, and the bus are reset by the owning SoC, not here, because they
// may be shared.
//
// The commit log is truncated in place, retaining its capacity: a caller
// that wants to keep the previous run's records (or hand the core a private
// buffer) must swap CommitLog itself before the next run, as DUT.Execute
// and SoC.RunProgram do.
func (c *Core) Reset() {
	c.cycle = 0
	c.pc = 0
	c.regs = [32]uint64{}
	for i := range c.rob {
		c.rob[i] = robEntry{}
	}
	c.robHead, c.robTail, c.robCount = 0, 0, 0
	clear(c.waiting)
	c.seqNext = 0
	c.clearProducers()
	c.fetchBuf = c.fetchBuf[:0]
	c.fbHead = 0
	c.hasPending = false
	c.redirectValid = false
	c.ldqCount, c.stqCount = 0, 0
	c.halted = false
	c.secretInROB = 0
	c.CommitLog = c.CommitLog[:0]
	c.perf = PerfCounters{}
	c.prog = nil
	c.secretStart, c.secretEnd = -1, -1
	c.handlerAddr = 0
}

func (c *Core) clearProducers() {
	for i := range c.lastProd {
		c.lastProd[i] = noProd
	}
}

// Step advances the core by one cycle. The caller drains the shared Pulser
// and steps the netlist clock once per cycle across all cores.
func (c *Core) Step() {
	if c.halted {
		c.cycle++
		return
	}
	c.applyRedirect()
	c.commit()
	c.issue()
	c.dispatch()
	c.fetch()
	c.cycle++
}

func (c *Core) applyRedirect() {
	if c.redirectValid && c.cycle >= c.redirectAt {
		c.pc = c.redirectPC
		c.redirectValid = false
		c.fetchBuf = c.fetchBuf[:0]
		c.fbHead = 0
		c.hasPending = false
	}
}

// ---- commit ----

func (c *Core) commit() {
	for n := 0; n < c.Cfg.CoreWidth && c.robCount > 0; n++ {
		e := &c.rob[c.robHead]
		if e.state != stIssued || e.doneAt >= c.cycle {
			return
		}
		c.CommitLog = append(c.CommitLog, CommitRecord{
			Idx: e.idx, PC: e.pc, Cycle: c.cycle, Instr: e.ins, Exception: e.exception,
		})
		c.perf.Committed++
		if e.exception {
			c.perf.Exceptions++
		}
		if rd := e.ins.Writes(); rd != 0 && !e.exception {
			c.regs[rd] = e.result
			if c.bulk.RegFile != nil {
				c.bulk.RegFile.Touch(int(rd), n, e.result, c.cycle)
			}
		}
		halt := e.ins.Op == isa.ECALL
		exceptionFlush := e.exception && !e.earlyFlushed
		c.popHead(e)
		if exceptionFlush {
			c.flushAllAfterHead()
			c.redirectToHandler()
			return
		}
		if halt {
			c.halted = true
			return
		}
	}
}

func (c *Core) popHead(e *robEntry) {
	c.clearWaiting(c.robHead)
	c.releaseEntry(e)
	e.active = false
	c.robHead = c.nextPos(c.robHead)
	c.robCount--
}

// nextPos returns the ROB position after pos, wrapping at the end.
func (c *Core) nextPos(pos int) int {
	if pos++; pos == len(c.rob) {
		return 0
	}
	return pos
}

// releaseEntry updates LSQ and window accounting for an entry leaving the
// ROB by commit or squash.
func (c *Core) releaseEntry(e *robEntry) {
	if e.ins.Op.IsLoad() {
		c.ldqCount--
	}
	if e.ins.Op.IsStore() {
		c.stqCount--
	}
	if e.secretDep {
		c.secretInROB--
		if c.secretInROB == 0 && c.window != nil {
			c.window.SetWindow(false)
		}
	}
}

func (c *Core) redirectToHandler() {
	if c.handlerAddr == 0 {
		c.halted = true
		return
	}
	c.redirectValid = true
	c.redirectPC = c.handlerAddr
	c.redirectAt = c.cycle + 2
}

// flushAllAfterHead squashes every entry remaining in the ROB (called after
// the faulting head has been popped).
func (c *Core) flushAllAfterHead() {
	for c.robCount > 0 {
		e := &c.rob[c.robHead]
		c.perf.Squashed++
		c.releaseEntry(e)
		e.active = false
		c.robHead = c.nextPos(c.robHead)
		c.robCount--
	}
	c.robTail = c.robHead
	clear(c.waiting)
	c.fetchBuf = c.fetchBuf[:0]
	c.fbHead = 0
	c.hasPending = false
	c.clearProducers()
}

// flushYoungerThan squashes all entries strictly younger than seq and
// rebuilds the producer table.
func (c *Core) flushYoungerThan(seq int64) {
	for c.robCount > 0 {
		tailPos := c.robTail - 1
		if tailPos < 0 {
			tailPos = len(c.rob) - 1
		}
		e := &c.rob[tailPos]
		if e.seq <= seq {
			break
		}
		c.perf.Squashed++
		c.clearWaiting(tailPos)
		c.releaseEntry(e)
		e.active = false
		c.robTail = tailPos
		c.robCount--
	}
	c.fetchBuf = c.fetchBuf[:0]
	c.fbHead = 0
	c.hasPending = false
	c.rebuildProducers()
}

func (c *Core) rebuildProducers() {
	c.clearProducers()
	for i, pos := 0, c.robHead; i < c.robCount; i++ {
		e := &c.rob[pos]
		if rd := e.ins.Writes(); rd != 0 {
			c.lastProd[rd] = prodRef{pos: pos, seq: e.seq}
		}
		pos = c.nextPos(pos)
	}
}

// ---- issue ----

// operand resolves source register r of an entry whose producer of r was
// resolved at dispatch: ready reports whether the value is available this
// cycle.
func (c *Core) operand(r uint8, src prodRef) (val uint64, ready bool) {
	if r == 0 {
		return 0, true
	}
	if src.pos >= 0 {
		if p := &c.rob[src.pos]; p.active && p.seq == src.seq {
			return producerValue(p, c.cycle)
		}
	}
	return c.regs[r], true
}

func producerValue(p *robEntry, cycle int64) (uint64, bool) {
	if p.state == stIssued && p.doneAt < cycle {
		return p.result, true
	}
	return 0, false
}

func (c *Core) issueWidth() int { return c.Cfg.NumALUs + 2 }

func (c *Core) clearWaiting(pos int) { c.waiting[pos>>6] &^= 1 << (pos & 63) }

// nextWaiting returns the first waiting ROB position in [from, limit), or
// -1 if there is none. It reads the live bitset, so entries a flush
// squashed since the last call are not returned.
func (c *Core) nextWaiting(from, limit int) int {
	for w := from >> 6; w<<6 < limit; w++ {
		word := c.waiting[w]
		if w == from>>6 {
			word &= ^uint64(0) << (from & 63)
		}
		if word != 0 {
			if pos := w<<6 + bits.TrailingZeros64(word); pos < limit {
				return pos
			}
			return -1
		}
	}
	return -1
}

// issue visits the waiting entries oldest first: the live window runs from
// robHead to the end of the array, then wraps to the positions before
// robHead. A flush inside tryIssue clears the bits of every squashed entry,
// which ends the walk exactly where the shrunken window ends.
//
//sonar:alloc-free
func (c *Core) issue() {
	issued := 0
	aluUsed := 0
	mulUsed := false
	divUsed := 0
	memUsed := false
	seenUnissuedStore := false
	seenUnissuedMem := false

	width := c.issueWidth()
	from, limit := c.robHead, len(c.rob)
	for issued < width {
		epos := c.nextWaiting(from, limit)
		if epos < 0 {
			if limit != len(c.rob) || c.robHead == 0 {
				return // no wrapped half left to scan
			}
			from, limit = 0, c.robHead
			continue
		}
		from = epos + 1
		e := &c.rob[epos]
		blockedStore := e.ins.Op.IsLoad() && seenUnissuedStore
		blockedMem := e.ins.Op.IsStore() && seenUnissuedMem
		if e.ins.Op.IsStore() {
			seenUnissuedStore = true
		}
		if e.ins.Op.IsMem() {
			seenUnissuedMem = true
		}
		if blockedStore || blockedMem {
			continue
		}
		var rs1 uint64
		ok1 := true
		if e.ins.Op.HasRs1() {
			rs1, ok1 = c.operand(e.ins.Rs1, e.src1)
		}
		var rs2 uint64
		ok2 := true
		if e.ins.Op.HasRs2() {
			rs2, ok2 = c.operand(e.ins.Rs2, e.src2)
		}
		if !ok1 || !ok2 {
			continue
		}
		if c.tryIssue(e, rs1, rs2, &aluUsed, &mulUsed, &divUsed, &memUsed) {
			c.clearWaiting(epos)
			issued++
		}
	}
}

// tryIssue attempts to start execution of e with resolved operands; it
// reports whether a unit accepted the instruction this cycle.
func (c *Core) tryIssue(e *robEntry, rs1, rs2 uint64, aluUsed *int, mulUsed *bool, divUsed *int, memUsed *bool) bool {
	op := e.ins.Op
	switch {
	case op.IsALU():
		if *aluUsed >= c.Cfg.NumALUs {
			return false
		}
		shared := *aluUsed == c.Cfg.NumALUs-1 && c.Cfg.NumALUs > 1
		*aluUsed++
		c.perf.IssuedALU++
		e.result = isa.Compute(e.ins, rs1, rs2)
		e.doneAt = c.Exec.ALUWriteback(shared, e.result, c.cycle+1)
	case op.IsMul():
		if *mulUsed {
			return false
		}
		*mulUsed = true
		c.perf.IssuedMul++
		e.result = isa.Compute(e.ins, rs1, rs2)
		e.doneAt = c.Exec.IssueMul(e.result, c.cycle)
	case op.IsDiv():
		if *divUsed >= 2 {
			return false
		}
		c.perf.IssuedDiv++
		e.result = isa.Compute(e.ins, rs1, rs2)
		e.doneAt = c.Exec.IssueDiv(*divUsed, rs1, c.cycle)
		*divUsed++
	case op.IsMem():
		if *memUsed {
			return false
		}
		*memUsed = true
		c.perf.IssuedMem++
		c.issueMem(e, rs1, rs2)
	case op.IsBranch():
		e.result = 0
		e.doneAt = c.cycle + 1
		taken := (op == isa.BEQ && rs1 == rs2) || (op == isa.BNE && rs1 != rs2)
		if taken {
			e.state = stIssued
			c.perf.BranchFlushes++
			c.flushYoungerThan(e.seq)
			c.redirectValid = true
			c.redirectPC = e.pc + uint64(e.ins.Imm)
			c.redirectAt = e.doneAt + 1
			return true
		}
	case op.IsJump():
		e.result = e.pc + 4
		e.doneAt = c.cycle + 1
		e.state = stIssued
		c.perf.BranchFlushes++
		c.flushYoungerThan(e.seq)
		c.redirectValid = true
		c.redirectPC = e.pc + uint64(e.ins.Imm)
		c.redirectAt = e.doneAt + 1
		return true
	case op == isa.RDCYCLE:
		e.result = uint64(c.cycle)
		if g := c.Cfg.TimerGranularity; g > 1 {
			// Coarse-grained timer mitigation (§8.6): attackers only see
			// the cycle counter quantized to g-cycle steps.
			e.result = uint64(c.cycle / g * g)
		}
		e.doneAt = c.cycle + 1
	default: // FENCE, ECALL
		c.perf.IssuedOther++
		e.result = 0
		e.doneAt = c.cycle + 1
	}
	e.state = stIssued
	return true
}

// issueMem executes a load or store: address generation, privilege check,
// cache access, and (for faulting loads) transient data forwarding.
func (c *Core) issueMem(e *robEntry, rs1, rs2 uint64) {
	addr := rs1 + uint64(e.ins.Imm)
	bytes := e.ins.Op.MemBytes()
	isStore := e.ins.Op.IsStore()
	if isStore {
		c.mem.Write(addr, rs2, bytes)
		res := c.DCache.Access(1, addr, true, c.cycle)
		e.doneAt = res.Ready
		if e.ins.Op == isa.SCD {
			// Store-conditional writes and dirties the line regardless of
			// success (S10); report success.
			e.result = 0
		}
	} else {
		res := c.DCache.Access(0, addr, false, c.cycle)
		e.doneAt = res.Ready
		// Data is forwarded to dependents even on a fault — the transient
		// window (paper §7.3).
		e.result = c.mem.Read(addr, bytes)
		if c.mem.Privileged(addr) {
			e.exception = true
			if c.Cfg.EarlyExceptionDetect {
				// NutShell detects the fault early in the pipeline and
				// flushes before contention can establish (§8.5).
				e.earlyFlushed = true
				c.flushYoungerThan(e.seq)
				c.redirectToHandler()
			}
		}
	}
	e.state = stIssued
}

// ---- dispatch ----

func (c *Core) dispatch() {
	for n := 0; n < c.Cfg.CoreWidth; n++ {
		if c.fbHead >= len(c.fetchBuf) || c.robCount >= len(c.rob) {
			return
		}
		fi := c.fetchBuf[c.fbHead]
		if fi.ins.Op.IsLoad() && c.ldqCount >= c.Cfg.LDQEntries {
			return
		}
		if fi.ins.Op.IsStore() && c.stqCount >= c.Cfg.STQEntries {
			return
		}
		c.fbHead++
		pos := c.robTail
		e := &c.rob[pos]
		*e = robEntry{
			active: true,
			seq:    c.seqNext,
			idx:    fi.idx,
			pc:     fi.pc,
			ins:    fi.ins,
			state:  stWaiting,
			src1:   noProd,
			src2:   noProd,
		}
		// Resolve the sources before this entry becomes the newest producer
		// of its own destination.
		if fi.ins.Op.HasRs1() {
			e.src1 = c.lastProd[fi.ins.Rs1]
		}
		if fi.ins.Op.HasRs2() {
			e.src2 = c.lastProd[fi.ins.Rs2]
		}
		c.waiting[pos>>6] |= 1 << (pos & 63)
		c.seqNext++
		c.perf.Dispatched++
		c.robTail = c.nextPos(c.robTail)
		c.robCount++
		if rd := fi.ins.Writes(); rd != 0 {
			c.lastProd[rd] = prodRef{pos: pos, seq: e.seq}
		}
		if fi.ins.Op.IsLoad() {
			c.ldqCount++
		}
		if fi.ins.Op.IsStore() {
			c.stqCount++
		}
		if fi.idx >= 0 && fi.idx >= c.secretStart && fi.idx < c.secretEnd {
			e.secretDep = true
			c.secretInROB++
			if c.secretInROB == 1 && c.window != nil {
				c.window.SetWindow(true)
			}
		}
		if c.bulk.ROB != nil {
			c.bulk.ROB.Touch(pos, n, fi.pc, c.cycle)
		}
		if c.bulk.IssueQ != nil {
			c.bulk.IssueQ.Touch(int(e.seq), n, uint64(fi.ins.Encode()), c.cycle)
		}
	}
}

// ---- fetch ----

func (c *Core) fetch() {
	// Compact the fetch queue once dispatch has drained it, so occupancy
	// indices below stay small and the backing array is reused from 0.
	if c.fbHead > 0 && c.fbHead == len(c.fetchBuf) {
		c.fetchBuf = c.fetchBuf[:0]
		c.fbHead = 0
	}
	// Drain a completed fetch group into the fetch buffer.
	if c.hasPending && c.pending.availAt <= c.cycle {
		for i, fi := range c.pending.instrs {
			if len(c.fetchBuf)-c.fbHead >= c.Cfg.FetchBufEntries {
				break
			}
			c.fetchBuf = append(c.fetchBuf, fi)
			if c.bulk.FetchBuf != nil {
				c.bulk.FetchBuf.Touch(len(c.fetchBuf)-1-c.fbHead, i%c.Cfg.FetchWidth, fi.pc, c.cycle)
			}
		}
		c.hasPending = false
	}
	if c.hasPending || c.redirectValid {
		c.perf.FetchStallCycles++
		return
	}
	if len(c.fetchBuf)-c.fbHead+c.Cfg.FetchWidth > c.Cfg.FetchBufEntries {
		return
	}
	instrs := c.pending.instrs[:0]
	pc := c.pc
	for i := 0; i < c.Cfg.FetchWidth; i++ {
		addr := pc + uint64(4*i)
		if i > 0 && addr%LineBytes == 0 {
			break // fetch groups do not cross cacheline boundaries
		}
		word := uint32(c.mem.Read(addr, 4))
		ins, ok := isa.DecodeWord(word)
		idx := -1
		if c.prog != nil {
			idx = c.prog.IndexOf(addr)
		}
		if !ok {
			// Undecodable memory terminates the program.
			instrs = append(instrs, fetchedInstr{pc: addr, idx: idx, ins: isa.Instr{Op: isa.ECALL}})
			break
		}
		instrs = append(instrs, fetchedInstr{pc: addr, idx: idx, ins: ins})
	}
	c.pending.instrs = instrs
	if len(instrs) == 0 {
		return
	}
	res := c.ICache.Access(0, c.pc, false, c.cycle)
	c.pending.availAt = res.Ready
	c.hasPending = true
	c.perf.FetchGroups++
	c.pc += uint64(4 * len(instrs))
	if c.bulk.BTB != nil {
		c.bulk.BTB.Touch(int(c.pc/4), 0, c.pc, c.cycle)
	}
}

// Netlist returns the netlist this core drives.
func (c *Core) Netlist() *hdl.Netlist { return c.net }
