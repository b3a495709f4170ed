package fuzz

import (
	"fmt"

	"sonar/internal/detect"
)

// Shard leases are the fleet driver of the campaign barrier
// (docs/SERVICE.md): a coordinating server owns the barrier a local run
// keeps in memory — per-shard budgets and RNG cursors, the merged corpus,
// the stats accumulator — and hands out one batch of one shard at a time as
// a Lease. Any process can execute a lease with ExecuteLeaseExec (a pure
// function of the lease, the campaign shape and the corpus prefix the
// worker holds) and report a LeaseResult back; the LeaseCoordinator decodes
// reports and closes each round through the same barrier merge and fold a
// local run uses. A distributed campaign over a fixed (Seed, Workers,
// BatchSize) therefore produces the same final Stats and a byte-identical
// event stream to a local run — TestLeaseCoordinatorMatchesRunParallel pins
// this, and the service integration tests extend it across HTTP.

// Lease is one shard-batch work assignment: everything a worker needs —
// beyond the campaign shape, which the service hands out alongside — to
// execute the batch exactly as a local shard worker would have.
type Lease struct {
	// Shard is the worker index the batch belongs to (0-based); it fixes
	// the RNG stream (Seed+Shard) like a local worker index does.
	Shard int `json:"shard"`
	// Round is the 1-based merge round the batch belongs to.
	Round int `json:"round"`
	// N is the number of iterations to execute.
	N int `json:"n"`
	// Cursor is the shard's pre-batch RNG draw count; the executor replays
	// the shard generator to it, exactly like a replacement worker after a
	// local fault.
	Cursor uint64 `json:"cursor"`
	// Base is the number of leading corpus seeds the lease leaves out
	// because the worker proved it holds them; zero sends the full corpus.
	Base int `json:"base,omitempty"`
	// BaseSum is the digest of the first Base seeds (CorpusPrefix.Sum); the
	// executor checks it against its held prefix.
	BaseSum string `json:"base_sum,omitempty"`
	// Slots is how many of the batch's first findings the result carries in
	// full: the campaign's free finding slots at the round's start
	// (KeepFindings minus the findings kept so far), or N when the campaign
	// keeps every finding. Later findings travel as bare Diff markers, since
	// the stats fold can keep none of them.
	Slots int `json:"slots,omitempty"`
	// Corpus is the merged global corpus as of the previous round barrier:
	// the seeds past Base, and the full best-interval list.
	Corpus CorpusWire `json:"corpus"`
}

// OutcomeWire is one iteration outcome in serialized form — the unit a
// LeaseResult carries back to the coordinator. It carries only what the
// stats fold reads: a finding the fold may keep ships in full with its
// testcase, any other timing difference as a bare Diff marker, and an
// outcome without a shipped finding has no testcase.
type OutcomeWire struct {
	// TC is the executed testcase in Testcase.Marshal form, set only next to
	// a shipped Finding (the fold keeps it as the finding's seed).
	TC string `json:"tc,omitempty"`
	// Triggered is the contention points triggered by the double execution,
	// in execution order (the fold deduplicates against the global set).
	Triggered []int `json:"triggered,omitempty"`
	// Finding is the dual-differential finding, shipped in full for the
	// batch's first Lease.Slots findings.
	Finding *detect.Finding `json:"finding,omitempty"`
	// Diff marks a timing difference whose finding was left off the wire:
	// it counts towards the cumulative timing differences, nothing else.
	Diff bool `json:"diff,omitempty"`
	// Cycles is the double execution's total simulated cycle count.
	Cycles int64 `json:"cycles"`
	// Intvls is the merged per-point best distinct-request interval of the
	// double execution, point-sorted.
	Intvls []PointIntvl `json:"intvls,omitempty"`
}

// wireOutcome converts one outcome to its wire form; full says whether a
// finding ships with its detail and testcase or as a Diff marker.
func wireOutcome(o *outcome, full bool) OutcomeWire {
	ow := OutcomeWire{
		Triggered: o.triggered,
		Cycles:    o.cycles,
		Intvls:    sortIntvls(o.intvls),
	}
	if o.finding != nil {
		if full {
			ow.TC, ow.Finding = o.tc.Marshal(), o.finding
		} else {
			ow.Diff = true
		}
	}
	return ow
}

// outcome rebuilds the in-memory outcome of a wire entry. A trimmed entry
// comes back without its testcase, and a Diff marker as a timing
// difference without a finding.
func (ow *OutcomeWire) outcome() (outcome, error) {
	o := outcome{
		triggered: ow.Triggered,
		finding:   ow.Finding,
		diff:      ow.Diff && ow.Finding == nil,
		cycles:    ow.Cycles,
		intvls:    unsortIntvls(ow.Intvls),
	}
	if ow.TC != "" {
		tc, err := Unmarshal(ow.TC)
		if err != nil {
			return outcome{}, err
		}
		o.tc = tc
	}
	return o, nil
}

// LeaseResult is a worker's report for one executed lease: the batch's
// outcomes in execution order, the seeds the batch retained (in retention
// order), and the shard's post-batch RNG cursor. Its JSON encoding is
// deterministic (testcases in Marshal form, interval maps point-sorted, the
// trimming fixed by Lease.Slots), so re-executing the same lease produces
// byte-equal results — the property that makes lease re-offers after worker
// churn safe.
type LeaseResult struct {
	// Shard echoes the lease's shard index.
	Shard int `json:"shard"`
	// Round echoes the lease's merge round.
	Round int `json:"round"`
	// Cursor is the shard's post-batch RNG draw count.
	Cursor uint64 `json:"cursor"`
	// Outcomes are the batch's iteration outcomes in execution order.
	Outcomes []OutcomeWire `json:"outcomes"`
	// Seeds are the corpus seeds the batch retained, in retention order.
	Seeds []SeedWire `json:"seeds"`
}

// ExecuteLeaseExec runs one shard-batch lease to completion and returns its
// result. It is a pure function of (shape, lanes, lease, held prefix): it
// resolves the lease's corpus against the prefix held (a delta lease lists
// only the seeds past Base), builds a fresh shard worker with the lease's
// RNG cursor replayed and that corpus installed — exactly the state a local
// replacement worker re-derives after a fault — and drains the batch
// through the same runBatch path local workers use. The result ships the
// batch's first l.Slots findings in full and marks later timing
// differences only (see OutcomeWire). Executing the same
// lease twice returns equal results, so a lease lost to worker churn can
// simply be re-offered. A GroupExecutor lease drains through the grouped
// batch loop, whose RNG order is lane-width independent, so re-executions
// at any Lanes setting still return byte-equal results.
//
// held is the worker's decoded prefix of the lease's campaign corpus; on
// success it holds the lease's full corpus, ready for the next delta. A nil
// held holds nothing, so only a full lease (Base 0) resolves against it.
// lanes is the evaluator batch width (Options.Lanes), an operational knob
// that may differ per worker without changing any result.
func ExecuteLeaseExec(newExec func() Executor, shape Shape, lanes int, l *Lease, held *HeldCorpus) (*LeaseResult, error) {
	if l.Shard < 0 || l.Shard >= shape.Workers {
		return nil, fmt.Errorf("fuzz: lease shard %d out of range (campaign has %d workers)", l.Shard, shape.Workers)
	}
	if l.N < 1 || l.N > shape.BatchSize {
		return nil, fmt.Errorf("fuzz: lease batch of %d iterations outside [1, %d]", l.N, shape.BatchSize)
	}
	if held == nil {
		held = &HeldCorpus{}
	}
	corpus, err := held.resolve(l)
	if err != nil {
		return nil, err
	}
	opt := shape.Options()
	opt.Lanes = lanes
	w := newShardWorker(l.Shard, newExec(), opt, l.Cursor)
	w.corpus = corpus
	w.forceIntvls = true
	outs := w.runBatch(nil, l.N, l.Round)

	res := &LeaseResult{
		Shard:    l.Shard,
		Round:    l.Round,
		Cursor:   w.src.cursor(),
		Outcomes: make([]OutcomeWire, len(outs)),
	}
	shipped := 0
	for i := range outs {
		full := outs[i].finding != nil && shipped < l.Slots
		if full {
			shipped++
		}
		res.Outcomes[i] = wireOutcome(&outs[i], full)
	}
	for _, s := range w.takeNewSeeds() {
		res.Seeds = append(res.Seeds, wireSeed(s))
	}
	return res, nil
}

// LeaseCoordinator is the fleet driver of a campaign's barrier: the wire
// layer a coordinating server puts in front of the state a local run keeps
// in memory. Each merge round, every shard with remaining budget is open
// for exactly one lease; Report decodes a shard's LeaseResult into the open
// round's record and Abandon marks a shard given up. Once every open shard
// has resolved, the round closes inline — the barrier's merge, then its
// fold — so a fixed (Seed, Workers, BatchSize) topology yields the same
// Stats, event stream and checkpoints as a local run.
//
// The coordinator is not safe for concurrent use; callers (the campaign
// service's controller) serialize access.
type LeaseCoordinator struct {
	b    *barrier
	open *roundScratch // the open round's reports and abandonments
}

// NewLeaseCoordinator opens a distributed campaign: it splits opt's
// iteration budget into static shards exactly like RunParallelExec and
// emits the campaign_start event through opt.Observer. d is the server's
// own executor instance (a behavioral *DUT or a netlist LaneDUT) — it backs
// the stats fold (point analysis) and is never executed; workers bring
// their own.
func NewLeaseCoordinator(d Executor, opt Options) *LeaseCoordinator {
	observeCompile(opt.Observer, d)
	return newLeaseCoordinator(newBarrier(d.ContentionAnalysis(), opt))
}

// ResumeLeaseCoordinator reopens a distributed campaign from a checkpoint
// (the lease-granular analog of ResumeExec). opt must describe the same
// campaign shape as the checkpoint; the resumed coordinator's remaining
// rounds — Stats and event stream included — are identical to the
// uninterrupted campaign's.
func ResumeLeaseCoordinator(d Executor, opt Options, cp *Checkpoint) (*LeaseCoordinator, error) {
	b, err := resumeBarrier(opt, cp)
	if err != nil {
		return nil, err
	}
	observeCompile(opt.Observer, d)
	b.acc.an = d.ContentionAnalysis()
	return newLeaseCoordinator(b), nil
}

func newLeaseCoordinator(b *barrier) *LeaseCoordinator {
	if !b.finished && b.left == 0 {
		b.finish()
	}
	return &LeaseCoordinator{b: b, open: newRoundScratch(b.workers)}
}

// Shape returns the campaign's shape (effective workers and batch size
// included) — what lease executors pass to ExecuteLeaseExec.
func (lc *LeaseCoordinator) Shape() Shape { return shapeOf(lc.b.opt) }

// DUT returns the netlist name of the device under test.
func (lc *LeaseCoordinator) DUT() string { return lc.b.dut }

// Finished reports whether the campaign has drained (or dropped) its whole
// iteration budget and emitted campaign_end.
func (lc *LeaseCoordinator) Finished() bool { return lc.b.finished }

// Round returns the number of completed merge rounds.
func (lc *LeaseCoordinator) Round() int { return lc.b.round }

// Position returns the campaign position in iterations: executed plus
// dropped by abandoned shards, as of the last round barrier.
func (lc *LeaseCoordinator) Position() int { return lc.b.opt.Iterations - lc.b.left }

// Stats returns the accumulated campaign statistics as of the last round
// barrier. The result is final once Finished reports true; before that it
// is a live view that later rounds extend.
func (lc *LeaseCoordinator) Stats() *Stats { return lc.b.acc.st }

// CorpusLen returns the merged global corpus size as of the last round
// barrier (Stats.CorpusSize is only set at campaign end).
func (lc *LeaseCoordinator) CorpusLen() int { return lc.b.global.Len() }

// OpenShards returns the shards of the current round that still need a
// lease executed: remaining budget, not yet reported, not abandoned. An
// empty result means the campaign is finished (the round barrier closes as
// the last open shard resolves).
func (lc *LeaseCoordinator) OpenShards() []int {
	var open []int
	for i := 0; i < lc.b.workers; i++ {
		if lc.openShard(i) {
			open = append(open, i)
		}
	}
	return open
}

func (lc *LeaseCoordinator) openShard(i int) bool {
	return !lc.b.finished && lc.b.rem[i] > 0 && !lc.open.ran[i] && !lc.open.abandoned[i]
}

// checkShard rejects a shard index outside the campaign or without an open
// lease this round.
func (lc *LeaseCoordinator) checkShard(shard int) error {
	if shard < 0 || shard >= lc.b.workers {
		return fmt.Errorf("fuzz: shard %d out of range (campaign has %d workers)", shard, lc.b.workers)
	}
	if !lc.openShard(shard) {
		return fmt.Errorf("fuzz: shard %d has no open lease this round", shard)
	}
	return nil
}

// Lease builds the work assignment for an open shard of the current round.
// The same lease may be built (and executed) any number of times — results
// are deterministic — which is how the service re-offers leases lost to
// worker churn.
//
// held is the corpus prefix the requesting worker holds. When it names a
// prefix of the global corpus (length in range, matching digest) the lease
// carries only the seeds past it; any mismatch — or the zero value — gets
// the full corpus.
func (lc *LeaseCoordinator) Lease(shard int, held CorpusPrefix) (*Lease, error) {
	if err := lc.checkShard(shard); err != nil {
		return nil, err
	}
	b := lc.b
	l := &Lease{Shard: shard, Round: b.round + 1, N: b.next(shard), Cursor: b.cursors[shard], Slots: lc.slots(shard)}
	sums := b.prefixSums()
	if held.Seeds > 0 && held.Seeds < len(sums) && sums[held.Seeds].String() == held.Sum {
		l.Base, l.BaseSum = held.Seeds, held.Sum
	}
	l.Corpus = newCorpusWire(b.global, l.Base)
	return l, nil
}

// slots is the number of findings a shard's lease result must ship in
// full this round (Lease.Slots): the free finding slots as of the round's
// start, or the whole batch when the campaign keeps every finding. The
// fold keeps findings in worker order, so whatever this round keeps of a
// shard's findings is among its first slots ones. The count depends only on
// the last round barrier, so a re-offered lease and a resumed coordinator
// compute the same value.
func (lc *LeaseCoordinator) slots(shard int) int {
	keep := lc.b.opt.KeepFindings
	if keep == 0 {
		return lc.b.next(shard)
	}
	return max(0, keep-len(lc.b.acc.st.Findings))
}

// CorpusPrefix returns the prefix of the merged global corpus as of the
// last round barrier: what a worker holds once it has executed a lease
// built now (its Base plus its seeds), and so the held prefix a later lease
// to that worker can be a delta against.
func (lc *LeaseCoordinator) CorpusPrefix() CorpusPrefix {
	n := lc.b.global.Len()
	return CorpusPrefix{Seeds: n, Sum: lc.b.prefixSums()[n].String()}
}

// Report folds one executed lease's result in. The result must belong to an
// open shard of the current round and carry exactly the leased batch size.
// It may be trimmed (see OutcomeWire), but the first Lease.Slots findings
// must carry their detail and testcase, since the fold may keep them. A
// malformed, stale or over-trimmed result is rejected without touching
// campaign state.
// When the last open shard of the round resolves, the round barrier closes:
// seeds merge into the global corpus in canonical worker order, outcomes
// fold into Stats, and the round's events are emitted.
func (lc *LeaseCoordinator) Report(res *LeaseResult) error {
	if res == nil {
		return fmt.Errorf("fuzz: nil lease result")
	}
	if res.Round != lc.b.round+1 {
		return fmt.Errorf("fuzz: lease result for round %d, campaign is at round %d", res.Round, lc.b.round+1)
	}
	if err := lc.checkShard(res.Shard); err != nil {
		return err
	}
	if want := lc.b.next(res.Shard); len(res.Outcomes) != want {
		return fmt.Errorf("fuzz: lease result carries %d outcomes, lease was for %d", len(res.Outcomes), want)
	}
	if res.Cursor < lc.b.cursors[res.Shard] {
		return fmt.Errorf("fuzz: lease result cursor %d precedes the lease's %d", res.Cursor, lc.b.cursors[res.Shard])
	}
	points := len(lc.b.acc.an.Points)
	slots := lc.slots(res.Shard)
	outs := make([]outcome, len(res.Outcomes))
	for i := range res.Outcomes {
		o, err := res.Outcomes[i].outcome()
		if err != nil {
			return fmt.Errorf("fuzz: lease result outcome %d: %w", i, err)
		}
		for _, id := range o.triggered {
			if id < 0 || id >= points {
				return fmt.Errorf("fuzz: lease result outcome %d triggers point %d outside [0, %d)", i, id, points)
			}
		}
		if o.finding != nil || o.diff {
			if slots > 0 && (o.finding == nil || o.tc == nil) {
				return fmt.Errorf("fuzz: lease result outcome %d trims a finding the campaign may keep", i)
			}
			slots--
		}
		outs[i] = o
	}
	seeds := make([]*Seed, len(res.Seeds))
	for i := range res.Seeds {
		s, err := res.Seeds[i].seed()
		if err != nil {
			return fmt.Errorf("fuzz: lease result seed %d: %w", i, err)
		}
		seeds[i] = s
	}
	rs := lc.open
	rs.ran[res.Shard], rs.outs[res.Shard], rs.seeds[res.Shard], rs.cursors[res.Shard] = true, outs, seeds, res.Cursor
	lc.maybeCloseRound()
	return nil
}

// Abandon drops an open shard from the current round after its lease
// repeatedly failed: the shard's remaining budget is removed from the
// campaign at the round barrier, and the barrier's fold emits one
// worker_failed event per reason (the failed attempts, in order) followed
// by the abandonment disposition — the same degraded-but-deterministic
// completion a local campaign reaches when a shard exhausts its retries.
func (lc *LeaseCoordinator) Abandon(shard int, reasons []string) error {
	if err := lc.checkShard(shard); err != nil {
		return err
	}
	if len(reasons) == 0 {
		return fmt.Errorf("fuzz: abandoning shard %d without failure reasons", shard)
	}
	lc.open.fails[shard] = append(lc.open.fails[shard], reasons...)
	lc.open.abandoned[shard] = true
	lc.maybeCloseRound()
	return nil
}

// maybeCloseRound closes the round once no shard is still open: the
// barrier's merge and fold run inline, then the next round opens.
func (lc *LeaseCoordinator) maybeCloseRound() {
	for i := 0; i < lc.b.workers; i++ {
		if lc.openShard(i) {
			return
		}
	}
	lc.b.merge(lc.open)
	lc.b.fold(lc.open)
	lc.open.reset(0)
	if lc.b.left == 0 {
		lc.b.finish()
	}
}

// Snapshot captures the campaign as a Checkpoint at the last closed round
// barrier. Reports received for the still-open round are not included —
// resuming the snapshot re-opens that round, and its leases simply
// re-execute (deterministically) — so a snapshot may be taken at any time.
func (lc *LeaseCoordinator) Snapshot(complete bool) *Checkpoint {
	return lc.b.snapshot(complete)
}
