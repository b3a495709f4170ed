package fuzz

import (
	"math/rand"
	"time"

	"sonar/internal/detect"
	"sonar/internal/hdl"
	"sonar/internal/monitor"
	"sonar/internal/obs"
	"sonar/internal/trace"
)

// Options configures a fuzzing campaign. The three strategy switches map to
// the paper's breakdown experiment (Figure 10): retention ⊂ selection ⊂
// directed mutation; with all three off the campaign degenerates to the
// random-testing baseline of Figure 8.
type Options struct {
	// Iterations is the number of testcases to execute.
	Iterations int
	// Seed seeds the campaign's RNG; equal seeds give equal campaigns.
	Seed int64
	// Retention keeps interval-reducing testcases in the corpus (§6.2.1 ①).
	Retention bool
	// Selection prioritizes seeds closest to triggering (§6.2.1 ②);
	// implies Retention.
	Selection bool
	// DirectedMutation applies the adaptive interval-guided chain mutation
	// (§6.2.1 ③); implies Selection.
	DirectedMutation bool
	// DualCore also generates attacker programs for the second core
	// (template Figure 4b). Requires a two-core DUT.
	DualCore bool
	// SecretA and SecretB are the two secret values each testcase runs
	// under.
	SecretA, SecretB uint64
	// KeepFindings caps the retained finding list (0 = keep all).
	KeepFindings int
	// RandomDirection disables the adaptive direction memory of the
	// directed mutation: each retained seed gets a random direction
	// instead of inheriting/flipping based on the previous mutation's
	// effect — the ablation of §6.2.1's "adaptive directed mutation".
	RandomDirection bool
	// Workers is the number of campaign shards RunParallelExec executes
	// concurrently, each on a private executor (0 = 1). Run always runs one
	// shard.
	Workers int
	// BatchSize is the number of iterations each worker executes between
	// two corpus merges (0 = a sensible default). Smaller batches tighten
	// the feedback loop; larger ones reduce synchronization overhead.
	BatchSize int
	// Lanes only chunks GroupExecutor groups: it is the chunk width a
	// netlist executor (sim.LaneSimulator with monitor.LaneBank) evaluates
	// bit-parallel per pass, clamped to [1, hdl.Lanes], with 0 or 1 the
	// scalar reference path. Group outcomes are folded in canonical lane
	// order at every width, and behavioral DUTs, which are not
	// GroupExecutors, ignore it; so Stats, PerIteration, checkpoints, and
	// the event stream are byte-identical for a fixed (Seed, Workers,
	// BatchSize) across every Lanes setting — the contract TestLaneMatrix
	// pins. Lanes is therefore an operational knob, not part of the
	// checkpoint Shape.
	Lanes int
	// Observer receives campaign metrics and structured events (package
	// obs). nil disables observability at near-zero hot-path cost. Events
	// are emitted only under the campaign coordinator in canonical
	// iteration order — worker goroutines touch atomic metrics only — so
	// attaching an Observer never perturbs the campaign itself, and the
	// event stream of a parallel campaign is byte-identical across runs
	// for a fixed (Seed, Workers, BatchSize).
	Observer *obs.Observer

	// The remaining fields form the durability surface of the engine
	// (docs/CAMPAIGNS.md). They need an executor factory, so only
	// RunParallelExec and ResumeExec honour them; Run clears them.

	// Checkpoint, when non-empty, is the file periodic campaign snapshots
	// are written to (atomically, via temp-file+rename) at batch-merge
	// barriers. A checkpoint restores through ResumeExec into a campaign
	// bit-identical to an uninterrupted run for the same (Seed, Workers,
	// BatchSize).
	Checkpoint string
	// CheckpointEvery is the iteration period between checkpoints
	// (0 = defaultCheckpointEvery). Checkpoints are cut at the first merge
	// barrier at or past each multiple; a final checkpoint always marks
	// campaign completion.
	CheckpointEvery int
	// MaxRounds, when positive, pauses the campaign after that many merge
	// rounds of this run: a checkpoint is written (when Checkpoint is set)
	// and the partial Stats are returned without a campaign_end event, so
	// a later ResumeExec byte-continues the event stream. Time-sliced
	// campaigns on shared hosts are the intended use.
	MaxRounds int
	// IterTimeout is the per-iteration deadline for parallel workers; a
	// batch of n iterations is aborted after n*IterTimeout and retried on
	// a replacement worker, recovering campaigns from wedged simulations.
	// 0 disables the deadline (worker panics are still recovered).
	IterTimeout time.Duration
	// MaxRetries is the number of replacement-worker retries after a
	// failed (panicked or timed-out) batch before the shard is abandoned
	// (0 = default 2, negative = no retries). A retried batch replays from
	// the shard's pre-batch RNG cursor and corpus snapshot, so recovered
	// campaigns match the fault-free run exactly.
	MaxRetries int
	// RetryBackoff is the base delay before a batch retry, doubled per
	// attempt and capped at 16x (0 = default 50ms). Backoff only delays
	// wall-clock recovery; it never affects campaign results.
	RetryBackoff time.Duration
	// FaultHook, when non-nil, is invoked by parallel workers before every
	// iteration — the seam the deterministic fault-injection harness
	// (package faultinject) uses to schedule worker panics and stalls.
	// Production campaigns leave it nil.
	FaultHook FaultHook
}

// FaultHook is the fault-injection seam of the parallel engine: workers
// call BeforeIteration(worker, round, iter) before each iteration of a
// batch, from the worker goroutine. Implementations may panic or block to
// exercise the engine's recovery paths; package faultinject provides
// deterministic schedules. Implementations must be safe for concurrent use.
type FaultHook interface {
	// BeforeIteration is called with the worker index, the 1-based merge
	// round, and the 0-based iteration index within the current batch.
	BeforeIteration(worker, round, iter int)
}

// SonarOptions returns the full Sonar strategy set.
func SonarOptions(iterations int) Options {
	return Options{
		Iterations: iterations, Seed: 1,
		Retention: true, Selection: true, DirectedMutation: true,
		SecretA: 0, SecretB: 1,
	}
}

// RandomOptions returns the unguided random-testing baseline ("Sonar
// without any guidance", Figure 8).
func RandomOptions(iterations int) Options {
	return Options{Iterations: iterations, Seed: 1, SecretA: 0, SecretB: 1}
}

// IterStats is the cumulative progress after one iteration, the series
// plotted in Figures 8, 10 and 11.
type IterStats struct {
	// Iteration is 1-based.
	Iteration int
	// NewPoints is the number of contention points newly triggered by this
	// testcase.
	NewPoints int
	// CumPoints is the cumulative number of distinct triggered points.
	CumPoints int
	// CumTimingDiffs is the cumulative number of testcases exposing a
	// secret-dependent timing difference.
	CumTimingDiffs int
}

// Stats is the result of a campaign.
type Stats struct {
	// PerIteration is the progress series, indexed by the campaign's
	// canonical iteration order: the barrier's fold order (each batch round
	// folds workers in worker order), which is NOT wall-clock completion
	// order — worker w's k-th batch entry occupies the same slot on every
	// run. len(PerIteration) == Options.Iterations unless a shard was
	// abandoned (TestPerIterationLengthMatchesIterations pins this).
	PerIteration []IterStats
	// Findings are the detected side channels (dual-differential verified).
	Findings []*detect.Finding
	// FindingSeeds are the testcases that exposed each retained finding
	// (parallel to Findings); export them with Testcase.Marshal.
	FindingSeeds []*Testcase
	// TriggeredPoints is the final set of triggered contention point IDs.
	TriggeredPoints map[int]bool
	// SingleValidTriggered counts points triggered within the first 20
	// testcases whose requests are dominated by a single valid signal
	// (paper Figure 9); EarlyTriggered is the total in that window.
	SingleValidTriggered int
	// EarlyTriggered is the total number of points triggered within the
	// first 20 testcases (the Figure 9 window).
	EarlyTriggered int
	// EarlyBreakdown records, for each of the first 20 testcases, how many
	// newly triggered points were single-valid dominated vs not (the bars
	// of paper Figure 9).
	EarlyBreakdown [][2]int
	// CorpusSize is the final seed corpus size.
	CorpusSize int
	// ExecutedCycles is the total simulated cycle count.
	ExecutedCycles int64
}

// worker owns one shard of a campaign: a private executor, an RNG stream,
// and a corpus view. Drivers run one batch per worker per round and hand
// its feedback to the campaign barrier, which merges it between batches.
type worker struct {
	// id is the worker's shard index — the value fault events and the
	// FaultHook report.
	id        int
	d         Executor
	rng       *rand.Rand
	corpus    *Corpus
	opt       Options
	retention bool
	selection bool
	// src is the counted RNG source behind rng; its cursor is the worker's
	// serializable RNG position.
	src *countedSource
	// newSeeds are the seeds retained since the last takeNewSeeds call —
	// the delta the barrier re-offers to the global corpus.
	newSeeds []*Seed
	// mutOffered and mutAccepted batch the retention-decision metrics: the
	// hot loop counts locally and flushMutationMetrics publishes one
	// atomic update per batch instead of several per iteration.
	mutOffered, mutAccepted int
	// forceIntvls makes runOne populate outcome.intvls even without local
	// retention or a local Observer. Lease workers (ExecuteLease) set it:
	// the coordinating server always attaches an Observer, and the interval
	// feedback must travel with the outcome for its fold to match a local
	// observed run byte-for-byte.
	forceIntvls bool
	// pending, tcs, and pairs are the grouped-execution scratch buffers of
	// runBatchGrouped, recycled across groups so the GroupExecutor hot loop
	// stays allocation-free after warmup.
	pending []pendingIter
	tcs     []*Testcase
	pairs   []ExecPair
}

// newShardWorker builds shard id's worker, whose RNG is a counted source
// seeded with opt.Seed+id and fast-forwarded to cursor. A cursor of zero
// gives the exact draw sequence of rand.New(rand.NewSource(opt.Seed+id)) —
// the determinism contract — and a checkpointed cursor restores the
// worker's mid-campaign RNG position.
func newShardWorker(id int, d Executor, opt Options, cursor uint64) *worker {
	src := newCountedSource(opt.Seed+int64(id), cursor)
	return &worker{
		id: id, d: d, rng: rand.New(src), src: src, corpus: NewCorpus(), opt: opt,
		retention: opt.Retention || opt.Selection || opt.DirectedMutation,
		selection: opt.Selection || opt.DirectedMutation,
	}
}

// outcome is one iteration's contribution to campaign statistics, in a form
// the barrier can fold into Stats in canonical order.
type outcome struct {
	tc        *Testcase
	triggered []int
	finding   *detect.Finding
	// diff marks a timing difference whose finding a lease result left off
	// the wire (OutcomeWire.Diff); finding is then nil. Local outcomes
	// always carry the finding itself.
	diff   bool
	cycles int64
	// intvls is the merged per-point best reqsIntvl of the dual execution.
	// It is populated when retention needs it or an Observer is attached
	// (the per-point best-interval metrics), and nil otherwise.
	intvls map[int]int64
}

// pendingIter is one prepared-but-not-executed iteration: the testcase and
// the selection context its feedback phase needs. It decouples the RNG draws
// of generation (prepare) from those of feedback (finish) so grouped
// executors can run whole lane groups between the two phases.
type pendingIter struct {
	tc     *Testcase
	parent *Seed
	target int
}

// prepare draws one iteration's testcase: generate, or select-and-mutate
// from the corpus. All generation-side RNG draws happen here, in exactly the
// order the pre-split runOne used.
func (w *worker) prepare() pendingIter {
	var tc *Testcase
	var parent *Seed
	target := -1
	if w.retention && w.corpus.Len() > 0 && w.rng.Float64() < 0.7 {
		parent, target = w.corpus.Select(w.rng, w.selection)
		if w.opt.DirectedMutation {
			tc = MutateDirected(parent, w.rng)
		} else {
			tc = MutateRandom(parent, w.rng)
		}
	} else {
		tc = Generate(w.rng, w.opt.DualCore)
	}
	return pendingIter{tc: tc, parent: parent, target: target}
}

// runOne executes one fuzzing iteration: generate or mutate a testcase,
// double-execute it under both secrets, detect, and feed the corpus.
func (w *worker) runOne() outcome {
	p := w.prepare()
	exA := w.d.Execute(p.tc, w.opt.SecretA)
	exB := w.d.Execute(p.tc, w.opt.SecretB)
	return w.finish(p, exA, exB)
}

// finish folds one dual execution into an outcome and feeds the corpus. All
// feedback-side RNG draws happen here, in exactly the order the pre-split
// runOne used, so prepare+finish reproduce runOne's draw sequence bit for
// bit.
func (w *worker) finish(p pendingIter, exA, exB *Execution) outcome {
	tc, parent, target := p.tc, p.parent, p.target
	// Contention coverage: points triggered in either run, in execution
	// order (the accumulator deduplicates against the global set).
	out := outcome{
		tc:        tc,
		triggered: append(exA.Snap.Triggered(), exB.Snap.Triggered()...),
		finding:   analyzeExecutions(tc, exA, exB),
		cycles:    exA.Cycles + exB.Cycles,
	}

	if w.retention || w.forceIntvls || w.opt.Observer != nil {
		out.intvls = monitor.MergeMinIntervals(exA.Snap, exB.Snap)
	}

	// Feedback: retention + adaptive direction update.
	if w.retention {
		intvls := out.intvls
		dir := +1
		switch {
		case w.opt.RandomDirection:
			dir = 1 - 2*w.rng.Intn(2) // ablation: no direction memory
		case parent != nil:
			dir = parent.Dir
			if target >= 0 {
				oldV, okOld := parent.Intvls[target]
				newV, okNew := intvls[target]
				switch {
				case okNew && okOld && newV < oldV:
					// Improvement: keep direction.
				case okNew && !okOld:
					// First observation counts as progress.
				default:
					dir = -dir // no improvement: flip (adaptive, §6.2.1)
				}
			}
		default:
			// Fresh testcase: unbiased initial direction. A fixed +1 would
			// permanently skew the adaptive strategy toward chain growth;
			// §6.2.1 relies on both directions being explored.
			dir = 1 - 2*w.rng.Intn(2)
		}
		s := w.corpus.Offer(tc, intvls, dir, target)
		w.mutOffered++
		if s != nil {
			w.mutAccepted++
			w.newSeeds = append(w.newSeeds, s)
		}
	}
	return out
}

// runBatch executes n iterations of merge round `round`, appending their
// outcomes to dst in order (dst is the coordinator's recycled per-round
// scratch; retries pass nil and allocate fresh). The FaultHook seam fires
// before each iteration, from this (worker) goroutine — a scheduled panic
// or stall therefore surfaces exactly where a real worker fault would.
func (w *worker) runBatch(dst []outcome, n, round int) []outcome {
	if g, ok := w.d.(GroupExecutor); ok && g.GroupWidth() > 1 {
		dst = w.runBatchGrouped(g, dst, n, round)
	} else {
		for i := 0; i < n; i++ {
			if h := w.opt.FaultHook; h != nil {
				h.BeforeIteration(w.id, round, i)
			}
			dst = append(dst, w.runOne())
		}
	}
	w.flushMutationMetrics()
	return dst
}

// runBatchGrouped executes n iterations against a GroupExecutor, whole lane
// groups at a time, through a fixed three-phase loop per group: prepare every
// lane's testcase (ascending lane order), execute the group bit-parallel,
// then finish every lane (ascending lane order again). The RNG draw order is
// [prepare lane 0..G-1][finish lane 0..G-1] per group — a pure function of
// GroupWidth — and Options.Lanes only selects the executor's internal chunk
// width, so the outcome stream is byte-identical at every Lanes setting
// (TestNetlistLaneMatrix pins this). Same-group corpus offers land in the
// finish phase, after every selection of the group already happened in the
// prepare phase, so a group never feeds back into itself — the same
// visibility a merge-barrier batch boundary gives the parallel engine.
func (w *worker) runBatchGrouped(g GroupExecutor, dst []outcome, n, round int) []outcome {
	width := g.GroupWidth()
	chunk := normalizeLanes(w.opt)
	for base := 0; base < n; base += width {
		group := width
		if base+group > n {
			group = n - base
		}
		w.pending = w.pending[:0]
		w.tcs = w.tcs[:0]
		for lane := 0; lane < group; lane++ {
			if h := w.opt.FaultHook; h != nil {
				h.BeforeIteration(w.id, round, base+lane)
			}
			p := w.prepare()
			w.pending = append(w.pending, p)
			w.tcs = append(w.tcs, p.tc)
		}
		w.pairs = g.ExecuteGroup(w.tcs, w.opt.SecretA, w.opt.SecretB, chunk, w.pairs[:0])
		for lane := 0; lane < group; lane++ {
			pr := w.pairs[lane]
			dst = append(dst, w.finish(w.pending[lane], pr.A, pr.B))
		}
	}
	return dst
}

// normalizeLanes resolves Options.Lanes to the effective group chunk width:
// at least 1 (scalar), at most hdl.Lanes (one testcase per bit of a plane
// word).
func normalizeLanes(opt Options) int {
	lanes := opt.Lanes
	if lanes < 1 {
		return 1
	}
	if lanes > hdl.Lanes {
		return hdl.Lanes
	}
	return lanes
}

// flushMutationMetrics publishes the batched retention-decision counters
// and resets them. Metrics only; safe from the worker goroutine.
func (w *worker) flushMutationMetrics() {
	if w.mutOffered == 0 {
		return
	}
	w.opt.Observer.MutationsOffered(w.mutOffered, w.mutAccepted)
	w.mutOffered, w.mutAccepted = 0, 0
}

// takeNewSeeds returns the seeds retained since the previous call and
// resets the delta.
func (w *worker) takeNewSeeds() []*Seed {
	s := w.newSeeds
	w.newSeeds = nil
	return s
}

// analyzeExecutions runs dual-differential detection on one double
// execution: the victim's commit logs first and, only when the testcase
// actually carried an attacker program, the attacker core's logs. Guarding
// on the testcase (not just Options.DualCore) keeps attacker-less testcases
// in a dual-core campaign from feeding empty commit logs into detection.
func analyzeExecutions(tc *Testcase, exA, exB *Execution) *detect.Finding {
	finding := detect.Analyze(exA.Log, exB.Log, exA.Snap, exB.Snap)
	if finding == nil && len(tc.Attacker) > 0 {
		finding = detect.Analyze(exA.AttackerLog, exB.AttackerLog, exA.Snap, exB.Snap)
	}
	return finding
}

// statsAccum folds per-iteration outcomes into campaign statistics in the
// barrier's canonical order.
type statsAccum struct {
	// an is any worker executor's contention analysis: point IDs are
	// identical across a campaign's executor instances (the Executor
	// contract), so the accumulator never needs the executor itself.
	an  *trace.Analysis
	opt Options
	st  *Stats
	obs *obs.Observer
	// best is the campaign-wide best reqsIntvl per point, tracked only for
	// the observability gauges (the corpus keeps its own copy).
	best map[int]int64
}

func newStatsAccum(an *trace.Analysis, opt Options) *statsAccum {
	a := &statsAccum{an: an, opt: opt, st: &Stats{TriggeredPoints: make(map[int]bool)}, obs: opt.Observer}
	if a.obs != nil {
		a.best = make(map[int]int64)
	}
	return a
}

// apply folds one outcome; the global iteration index is the fold order.
func (a *statsAccum) apply(o outcome) {
	st := a.st
	it := len(st.PerIteration) + 1
	newPts := 0
	var early [2]int
	for _, id := range o.triggered {
		if !st.TriggeredPoints[id] {
			st.TriggeredPoints[id] = true
			newPts++
			if a.obs != nil {
				intvl := int64(-1) // same-path trigger only: no distinct pair
				if v, ok := o.intvls[id]; ok {
					intvl = v
				}
				a.obs.PointTriggered(it, id, intvl)
			}
			if it <= 20 {
				st.EarlyTriggered++
				if singleValidDominated(a.an, id) {
					st.SingleValidTriggered++
					early[0]++
				} else {
					early[1]++
				}
			}
		}
	}
	if it <= 20 {
		st.EarlyBreakdown = append(st.EarlyBreakdown, early)
	}

	cum := 0
	if len(st.PerIteration) > 0 {
		cum = st.PerIteration[len(st.PerIteration)-1].CumTimingDiffs
	}
	if o.finding != nil || o.diff {
		cum++
		a.obs.TimingDiff()
		if a.opt.KeepFindings == 0 || len(st.Findings) < a.opt.KeepFindings {
			st.Findings = append(st.Findings, o.finding)
			st.FindingSeeds = append(st.FindingSeeds, o.tc)
			a.obs.FindingDetected(it, len(st.Findings))
		}
	}
	st.ExecutedCycles += o.cycles
	st.PerIteration = append(st.PerIteration, IterStats{
		Iteration:      it,
		NewPoints:      newPts,
		CumPoints:      len(st.TriggeredPoints),
		CumTimingDiffs: cum,
	})
	if a.obs != nil {
		for id, v := range o.intvls { //sonar:nondeterministic-ok metrics-only gauges; min-fold is order-insensitive
			if old, ok := a.best[id]; !ok || v < old {
				a.best[id] = v
				a.obs.SetBestInterval(id, v)
			}
		}
		a.obs.IterationDone(it, newPts, len(st.TriggeredPoints), cum, o.cycles)
	}
}

// applyAll folds one worker's round of outcomes in order — one call per
// (worker, round) from the barrier's fold.
func (a *statsAccum) applyAll(outs []outcome) {
	for i := range outs {
		a.apply(outs[i])
	}
}

// finish emits the campaign-closing event once the final Stats fields
// (CorpusSize) are in place.
func (a *statsAccum) finish() {
	if a.obs == nil {
		return
	}
	st := a.st
	var last IterStats
	if n := len(st.PerIteration); n > 0 {
		last = st.PerIteration[n-1]
	}
	a.obs.CampaignEnd(len(st.PerIteration), last.CumPoints, last.CumTimingDiffs,
		len(st.Findings), st.CorpusSize, st.ExecutedCycles)
}

// Run executes a fuzzing campaign on the DUT: the engine of
// RunParallelExec at one shard, whose executor is d. Its Stats and event
// stream are byte-identical to RunParallelExec at Workers=1 (batch_merged
// events included), and progress is reported through opt.Observer.
//
// Only the distinct-request interval (the volatile-contention approach
// metric, §6.2.1) feeds the corpus — see monitor.MergeMinIntervals;
// same-path progress is driven by the data-similarity mutation instead
// (§6.2.2), which proved more effective than steering selection by
// same-path intervals.
func Run(d *DUT, opt Options) *Stats {
	opt.Workers = 1
	// Run has one DUT and no factory: a timed-out batch cannot move to a
	// replacement while its goroutine still holds d, and a checkpoint could
	// not be resumed through this API. So the durability and fault-injection
	// fields are cleared; a panicking batch is still retried on d, which
	// every Execute resets.
	opt.Checkpoint, opt.CheckpointEvery, opt.MaxRounds, opt.IterTimeout, opt.FaultHook = "", 0, 0, 0, nil
	return RunParallelExec(func() Executor { return d }, opt)
}

// singleValidDominated reports whether a point's triggering is dominated by
// a single valid signal (paper Figure 9): either at most one request
// carries validity, or some request has no validity indication at all — a
// constantly-valid peer, so any single valid assertion triggers the point
// (§8.3.2 observation ①).
func singleValidDominated(an *trace.Analysis, pointID int) bool {
	p := an.Points[pointID]
	withValid := 0
	constPeer := false
	for i := range p.Requests {
		if p.Requests[i].HasValid() {
			withValid++
		} else if !p.Requests[i].Data.IsConst() {
			constPeer = true
		}
	}
	return withValid <= 1 || constPeer
}
