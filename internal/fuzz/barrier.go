package fuzz

import (
	"fmt"
	"time"

	"sonar/internal/trace"
)

// abandonAttempt is the Attempt value of the worker_failed event that
// reports a shard abandonment. Failed batch attempts are numbered 1..N; the
// abandonment is a disposition, not an attempt, and carries 0 so it can
// never collide with a real attempt number (see obs.WorkerFailed).
const abandonAttempt = 0

// barrier is the campaign state machine behind every engine: serial Run and
// local RunParallelExec drive it from a goroutine pool, the fleet drives it
// one lease report at a time (LeaseCoordinator). It alone splits the
// iteration budget into shards, merges a round, folds a round, and
// snapshots or resumes a campaign, so every driver produces the same Stats,
// event stream and checkpoint bytes for a fixed (Seed, Workers, BatchSize).
//
// A round is two steps. merge does what the next round depends on — budget
// accounting, RNG cursor advances, abandonments and the corpus merge, in
// canonical worker order. fold does everything else — fault events, the
// stats fold in worker order, batch_merged. The in-process driver runs fold
// on its own goroutine one round behind merge, so the two steps touch
// disjoint state: merge the shard bookkeeping and global corpus, fold the
// accumulator and the Observer.
type barrier struct {
	opt     Options
	dut     string // netlist name, for checkpoints and campaign_start
	workers int
	batch   int
	rem     []int    // remaining iterations per shard
	cursors []uint64 // RNG draw count per shard, as of the last merge
	left    int      // total remaining iterations
	round   int      // merge rounds completed (cumulative across resumes)

	acc    *statsAccum
	global *Corpus
	// sums[n] is the digest of the first n global seeds. The global corpus
	// is append-only, so the chain only ever extends (see prefixSums).
	sums []prefixSum

	finished bool // campaign_end emitted (or already emitted before a resume)
}

// newBarrier opens a campaign over analysis an: worker w owns iterations w,
// w+workers, ... of the budget, drained in fixed-size batches. It emits
// campaign_start.
func newBarrier(an *trace.Analysis, opt Options) *barrier {
	workers, batch := normalizeParallel(opt)
	rem := make([]int, workers)
	for i := range rem {
		rem[i] = opt.Iterations / workers
		if i < opt.Iterations%workers {
			rem[i]++
		}
	}
	b := &barrier{
		opt: opt, dut: an.Netlist.Name(), workers: workers, batch: batch,
		rem: rem, cursors: make([]uint64, workers), left: opt.Iterations,
		acc: newStatsAccum(an, opt), global: NewCorpus(),
	}
	opt.Observer.CampaignStart(b.dut, opt.Iterations, workers, batch, opt.Seed)
	return b
}

// resumeBarrier reopens a checkpointed campaign and emits campaign_resumed.
// opt must describe the same campaign shape as the checkpoint; operational
// fields may differ. The accumulator's analysis is left nil for the driver
// to set from its executor before the first fold. A complete checkpoint
// comes back finished: its campaign_end was emitted by the original run.
func resumeBarrier(opt Options, cp *Checkpoint) (*barrier, error) {
	if err := cp.validate(); err != nil {
		return nil, err
	}
	if got, want := shapeOf(opt), cp.Shape; got != want {
		return nil, fmt.Errorf("fuzz: resume shape mismatch: options %+v vs checkpoint %+v", got, want)
	}
	st, best, err := cp.stats()
	if err != nil {
		return nil, err
	}
	global, err := cp.corpus()
	if err != nil {
		return nil, err
	}
	acc := newStatsAccum(nil, opt)
	acc.st = st
	if acc.best != nil {
		for _, pi := range best {
			acc.best[pi.Point] = pi.Intvl
		}
	}
	var lastIter IterStats
	if n := len(st.PerIteration); n > 0 {
		lastIter = st.PerIteration[n-1]
	}
	opt.Observer.CampaignResumed(cp.EventSeq, len(st.PerIteration),
		lastIter.CumPoints, lastIter.CumTimingDiffs, len(st.Findings),
		global.Len(), st.ExecutedCycles)

	workers, batch := normalizeParallel(opt)
	b := &barrier{
		opt: opt, dut: cp.DUT, workers: workers, batch: batch,
		rem:     append([]int(nil), cp.Rem...),
		cursors: append([]uint64(nil), cp.Cursors...),
		left:    sum(cp.Rem), round: cp.Round,
		acc: acc, global: global, finished: cp.Complete,
	}
	if cp.Complete {
		st.CorpusSize = global.Len()
	}
	return b, nil
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// next returns the size of shard i's batch in the coming round (0 when the
// shard is drained or abandoned).
func (b *barrier) next(i int) int {
	return min(b.rem[i], b.batch)
}

// roundScratch is one round's record: what each shard reported (filled by
// the driver while the round executes) and the merge's summary of what the
// fold must report. The in-process driver recycles these between its merge
// and fold goroutines; ownership alternates, so the folder reads each
// round's data race-free while the next round executes.
type roundScratch struct {
	round     int
	ran       []bool      // shard executed a batch: outs, seeds and cursors are valid
	outs      [][]outcome // per shard; capacity recycled across rounds
	seeds     [][]*Seed   // retained seeds, in retention order
	cursors   []uint64    // post-batch RNG draw count
	fails     [][]string  // failed-attempt reasons, per shard
	abandoned []bool      // shard gives up its remaining budget this round
	dropped   []int       // iterations dropped by the abandonment
	merged    int         // iterations merged at the barrier
	corpusLen int         // merged corpus size at the barrier
	mergeLat  time.Duration
}

func newRoundScratch(workers int) *roundScratch {
	return &roundScratch{
		ran:       make([]bool, workers),
		outs:      make([][]outcome, workers),
		seeds:     make([][]*Seed, workers),
		cursors:   make([]uint64, workers),
		fails:     make([][]string, workers),
		abandoned: make([]bool, workers),
		dropped:   make([]int, workers),
	}
}

// reset readies a scratch for the given round, keeping slice capacity.
func (rs *roundScratch) reset(round int) {
	rs.round = round
	for i := range rs.outs {
		rs.ran[i] = false
		rs.outs[i] = rs.outs[i][:0]
		rs.seeds[i] = nil
		rs.fails[i] = rs.fails[i][:0]
		rs.abandoned[i] = false
		rs.dropped[i] = 0
	}
	rs.merged, rs.corpusLen, rs.mergeLat = 0, 0, 0
}

// merge closes round rs at the barrier, in canonical worker order: an
// abandoned shard's budget is dropped, a shard that ran has its budget and
// RNG cursor advanced and its retained seeds re-offered to the global
// corpus (re-offering drops seeds another worker has already beaten). It
// reports whether any seed was offered — whether the shards' corpus views
// diverged from the merged global.
func (b *barrier) merge(rs *roundScratch) (offered bool) {
	start := time.Now() //sonar:nondeterministic-ok merge duration feeds a BatchMerged metric, not canonical output
	b.round++
	rs.round = b.round
	for i := 0; i < b.workers; i++ {
		switch {
		case rs.abandoned[i]:
			rs.dropped[i] = b.rem[i]
			b.left -= b.rem[i]
			b.rem[i] = 0
		case rs.ran[i]:
			n := len(rs.outs[i])
			b.rem[i] -= n
			b.left -= n
			rs.merged += n
			b.cursors[i] = rs.cursors[i]
			for _, s := range rs.seeds[i] {
				b.global.Offer(s.TC, s.Intvls, s.Dir, s.Target)
				offered = true
			}
		}
	}
	rs.corpusLen = b.global.Len()
	rs.mergeLat = time.Since(start) //sonar:nondeterministic-ok operator-facing duration metric only
	return offered
}

// fold drains a merged round into Stats and the event stream: fault events
// per shard (each failed attempt, then the recovery or abandonment
// disposition), the per-outcome stats fold in worker order, then the
// batch_merged event carrying the barrier's corpus summary. It is the only
// code that touches the accumulator or emits events while a campaign runs,
// so the event stream is deterministic.
func (b *barrier) fold(rs *roundScratch) {
	o := b.opt.Observer
	for i, fails := range rs.fails {
		for a, reason := range fails {
			o.WorkerFailed(i, rs.round, a+1, reason)
		}
		switch {
		case rs.abandoned[i]:
			o.WorkerFailed(i, rs.round, abandonAttempt,
				fmt.Sprintf("shard abandoned after %d failed attempts; %d iterations dropped", len(fails), rs.dropped[i]))
		case len(fails) > 0:
			o.BatchRetried(i, rs.round, len(fails)+1)
		}
	}
	for i := range rs.outs {
		b.acc.applyAll(rs.outs[i])
	}
	o.BatchMerged(rs.round, rs.merged, rs.corpusLen, rs.mergeLat)
}

// finish closes the campaign: the corpus size lands in Stats and
// campaign_end is emitted.
func (b *barrier) finish() {
	b.acc.st.CorpusSize = b.global.Len()
	b.acc.finish()
	b.finished = true
}

// snapshot captures the campaign at the last merge as a Checkpoint. The
// in-process driver drains its fold goroutine first, so the accumulator and
// the event-stream position match the barrier.
func (b *barrier) snapshot(complete bool) *Checkpoint {
	cp := &Checkpoint{
		Version:  checkpointVersion,
		DUT:      b.dut,
		Shape:    shapeOf(b.opt),
		Done:     b.opt.Iterations - b.left,
		Round:    b.round,
		Rem:      append([]int(nil), b.rem...),
		Cursors:  append([]uint64(nil), b.cursors...),
		EventSeq: b.opt.Observer.Seq(),
		Complete: complete,
	}
	cp.Stats = b.acc.st.Wire()
	cp.Stats.CorpusSize = b.global.Len()
	if b.acc.best != nil {
		cp.Stats.Best = sortIntvls(b.acc.best)
	}
	cp.Corpus = newCorpusWire(b.global, 0)
	return cp
}

// prefixSums extends the digest chain over seeds merged since the last
// call and returns it: element n digests the first n global seeds.
func (b *barrier) prefixSums() []prefixSum {
	if len(b.sums) == 0 {
		b.sums = []prefixSum{{}}
	}
	for _, s := range b.global.seeds[len(b.sums)-1:] {
		last := b.sums[len(b.sums)-1]
		b.sums = append(b.sums, last.next(s.marshal(), sortIntvls(s.Intvls), s.Dir, s.Target))
	}
	return b.sums
}
