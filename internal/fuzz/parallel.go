package fuzz

import (
	"fmt"
	"sync"
	"time"
)

// defaultBatchSize is the per-worker iteration count between two corpus
// merges when Options.BatchSize is zero. Executions dominate the cost of an
// iteration, so a few dozen iterations amortize the merge barrier while
// keeping retention/selection feedback near-global.
const defaultBatchSize = 32

// Fault-tolerance defaults (see the Options fields of the same names).
const (
	defaultMaxRetries   = 2
	defaultRetryBackoff = 50 * time.Millisecond
	// maxBackoffShift caps the exponential retry backoff at base<<4 = 16x.
	maxBackoffShift = 4
)

// pipelineDepth is the number of recycled round-scratch buffers — and
// therefore how many merge rounds may be in flight between the worker
// barrier and the fold goroutine. Two means classic double buffering:
// workers execute round k+1 while the folder drains round k.
const pipelineDepth = 2

// coordinator is the in-process driver of a campaign's barrier: a goroutine
// pool of shard workers, each on a private executor, that executes one batch
// per shard per round under the fault supervisor and hands the outcomes and
// retained seeds to the barrier in memory. RunParallelExec and ResumeExec
// construct one and drive run().
//
// The barrier's two steps run on different goroutines (docs/PERFORMANCE.md):
// merge on the main goroutine, between rounds, because the next round
// depends on it; fold on a dedicated goroutine that drains a bounded queue
// of merged rounds, in round order, while the workers already execute the
// next batch. Only the wall-clock schedule differs from an inline fold, so
// Stats, PerIteration, and the event stream stay byte-identical per (Seed,
// Workers, BatchSize).
type coordinator struct {
	b       *barrier
	newExec func() Executor
	ws      []*worker // nil entry = no executor: abandoned, or drained before a resume
	// lastSaved and nextCkpt drive periodic checkpointing: a checkpoint is
	// cut at the first merge barrier at or past every nextCkpt iterations.
	lastSaved int
	nextCkpt  int

	// Fold pipeline (see the type comment). foldCh carries merged rounds to
	// the fold goroutine; foldDone returns their scratch for reuse.
	// inFlight counts rounds handed off but not yet reclaimed, free holds
	// reclaimed scratch, and scratches counts total allocations (capped at
	// pipelineDepth). folderExit closes when the fold goroutine drains out.
	foldCh     chan *roundScratch
	foldDone   chan *roundScratch
	folderExit chan struct{}
	inFlight   int
	free       []*roundScratch
	scratches  int
}

// normalizeParallel returns the effective (post-clamp) worker count and
// batch size of a parallel campaign — the values CampaignStart reports and
// a checkpoint's shape stores.
func normalizeParallel(opt Options) (workers, batch int) {
	workers = opt.Workers
	if workers < 1 {
		workers = 1
	}
	if opt.Iterations > 0 && workers > opt.Iterations {
		workers = opt.Iterations
	}
	batch = opt.BatchSize
	if batch <= 0 {
		batch = defaultBatchSize
	}
	return workers, batch
}

// RunParallelExec executes a sharded fuzzing campaign: Options.Workers
// workers, each owning a private executor built by newExec, execute batches
// of testcases against private corpus views; after every batch round the
// barrier merges retained seeds into the global corpus in canonical worker
// order and every worker restarts from the merged view, while a fold
// goroutine drains the round's statistics and events off the workers'
// critical path.
//
// Determinism contract: worker w draws from rand.NewSource(opt.Seed+w), the
// batch schedule is static, and merges happen in worker order, so a
// campaign is reproducible for a fixed (Seed, Workers, BatchSize); serial
// Run is this engine at Workers=1. The contract extends to observability:
// opt.Observer's events are emitted only by the fold goroutine, one round at
// a time in fold order, so the event stream (and Stats.PerIteration, which
// it mirrors) is byte-identical across runs; worker goroutines update atomic
// metrics only.
//
// Durability (docs/CAMPAIGNS.md): with Options.Checkpoint set, the
// coordinator writes an atomic campaign snapshot at merge barriers every
// CheckpointEvery iterations (draining the fold pipeline first, so the
// snapshot is exact); ResumeExec restores one into a campaign whose
// remaining iterations — Stats and event stream included — are identical to
// the uninterrupted run. Worker panics and (with IterTimeout) wedged
// iterations are recovered by retrying the batch on a replacement worker; a
// shard that keeps failing is abandoned and the campaign completes on the
// remaining workers.
func RunParallelExec(newExec func() Executor, opt Options) *Stats {
	workers, _ := normalizeParallel(opt)
	ws := buildWorkers(newExec, opt, make([]uint64, workers), nil)
	observeCompile(opt.Observer, ws[0].d)
	b := newBarrier(ws[0].d.ContentionAnalysis(), opt)
	c := &coordinator{b: b, newExec: newExec, ws: ws, lastSaved: -1, nextCkpt: checkpointEvery(opt)}
	return c.run()
}

// RunParallel is RunParallelExec over a behavioral-DUT factory. New code
// passes an Executor factory to RunParallelExec; this form stays for the
// callers that still hold a *DUT factory, the perfbench harness among them.
func RunParallel(newDUT func() *DUT, opt Options) *Stats {
	return RunParallelExec(func() Executor { return newDUT() }, opt)
}

// ResumeExec continues a checkpointed campaign. opt must describe the same
// campaign shape (Seed, Workers, BatchSize, iteration budget, strategy
// switches) as the checkpoint; operational fields (Checkpoint,
// CheckpointEvery, MaxRounds, IterTimeout, retry policy, Observer,
// FaultHook, Lanes) are free to differ — the usual way to build opt is
// cp.CampaignOptions() plus operational overrides.
//
// The resumed campaign is bit-identical to the uninterrupted run: the final
// Stats and checkpoint match, and the event stream emitted after ResumeExec
// byte-continues the stream the interrupted run emitted before the
// checkpoint (sequence numbers included; no campaign_start is re-emitted).
func ResumeExec(newExec func() Executor, opt Options, cp *Checkpoint) (*Stats, error) {
	b, err := resumeBarrier(opt, cp)
	if err != nil {
		return nil, err
	}
	// Drained and abandoned shards need no executor; their cursors stay in
	// the barrier.
	ws := buildWorkers(newExec, opt, b.cursors, b.rem)
	for _, w := range ws {
		if w == nil {
			continue
		}
		w.corpus = b.global.view()
		if b.acc.an == nil {
			// Any live worker's analysis serves the accumulator: point IDs
			// are identical across a campaign's executor instances.
			b.acc.an = w.d.ContentionAnalysis()
			observeCompile(opt.Observer, w.d)
		}
	}
	c := &coordinator{b: b, newExec: newExec, ws: ws, lastSaved: cp.Done, nextCkpt: nextCheckpointAfter(cp.Done, opt)}
	return c.run(), nil
}

// buildWorkers builds a shard worker on a private executor for every shard
// with budget left (every shard when rem is nil), its RNG replayed to
// cursors[i]. Elaboration and analysis are independent and deterministic,
// so the executors are built concurrently.
func buildWorkers(newExec func() Executor, opt Options, cursors []uint64, rem []int) []*worker {
	ws := make([]*worker, len(cursors))
	var wg sync.WaitGroup
	for i := range ws {
		if rem != nil && rem[i] == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws[i] = newShardWorker(i, newExec(), opt, cursors[i])
		}(i)
	}
	wg.Wait()
	return ws
}

// checkpointEvery resolves the effective checkpoint period.
func checkpointEvery(opt Options) int {
	if opt.CheckpointEvery > 0 {
		return opt.CheckpointEvery
	}
	return defaultCheckpointEvery
}

// nextCheckpointAfter returns the first periodic checkpoint threshold
// strictly past `done` iterations.
func nextCheckpointAfter(done int, opt Options) int {
	every := checkpointEvery(opt)
	return (done/every + 1) * every
}

// run drives the campaign to completion (or a MaxRounds pause) and returns
// the accumulated Stats. Workers only execute inside runRound, so between
// loop iterations the shards are quiescent; the fold goroutine may still be
// draining earlier rounds, and every path that reads the accumulator or the
// event-stream position (checkpoints, pause, completion) drains it first.
func (c *coordinator) run() *Stats {
	b := c.b
	if b.finished {
		return b.acc.st // a complete checkpoint: nothing left to execute or emit
	}
	c.startFolder()
	for rounds := 0; b.left > 0; rounds++ {
		if b.opt.MaxRounds > 0 && rounds >= b.opt.MaxRounds {
			break
		}
		rs := c.acquireScratch()
		c.runRound(rs)
		c.foldCh <- rs
		c.inFlight++
		if done := b.opt.Iterations - b.left; done >= c.nextCkpt {
			c.drainFolds()
			c.writeCheckpoint(false)
			c.nextCkpt = nextCheckpointAfter(done, b.opt)
		}
	}
	c.drainFolds()
	c.stopFolder()
	complete := b.left == 0
	c.writeCheckpoint(complete)
	if !complete {
		// Paused by MaxRounds: the partial Stats go back without
		// campaign_end, so a later resume byte-continues the event stream.
		b.acc.st.CorpusSize = b.global.Len()
		return b.acc.st
	}
	b.finish()
	return b.acc.st
}

// startFolder launches the fold goroutine that drains merged rounds.
func (c *coordinator) startFolder() {
	c.foldCh = make(chan *roundScratch, pipelineDepth)
	c.foldDone = make(chan *roundScratch, pipelineDepth)
	c.folderExit = make(chan struct{})
	go func() {
		defer close(c.folderExit)
		for rs := range c.foldCh {
			c.b.fold(rs)
			c.foldDone <- rs
		}
	}()
}

// stopFolder shuts the fold goroutine down after drainFolds emptied the
// pipeline, so the coordinator may touch the accumulator and Observer
// directly afterwards.
func (c *coordinator) stopFolder() {
	close(c.foldCh)
	<-c.folderExit
}

// acquireScratch returns a round scratch to fill: a reclaimed one if
// available, a fresh one while under the pipeline depth, and otherwise it
// blocks until the folder finishes the oldest in-flight round — the
// back-pressure that bounds how far workers may run ahead of the fold.
func (c *coordinator) acquireScratch() *roundScratch {
	if n := len(c.free); n > 0 {
		rs := c.free[n-1]
		c.free = c.free[:n-1]
		return rs
	}
	if c.scratches < pipelineDepth {
		c.scratches++
		return newRoundScratch(c.b.workers)
	}
	rs := <-c.foldDone
	c.inFlight--
	return rs
}

// drainFolds blocks until every in-flight round has been folded. Callers
// that read the accumulator, emit through the Observer, or snapshot the
// campaign (checkpoints, completion) must drain first.
func (c *coordinator) drainFolds() {
	for c.inFlight > 0 {
		c.free = append(c.free, <-c.foldDone)
		c.inFlight--
	}
}

// runRound executes one batch round: the parallel phase (each live shard
// drains one batch under the fault supervisor into the round's scratch),
// then — workers quiescent — the barrier merge and, when the merge changed
// the corpus, the distribution of fresh views. Everything the next round
// does not depend on is left in the scratch for the fold goroutine.
func (c *coordinator) runRound(rs *roundScratch) {
	rs.reset(c.b.round + 1)
	var wg sync.WaitGroup
	for i, w := range c.ws {
		if n := c.b.next(i); w != nil && n > 0 {
			wg.Add(1)
			go func(i, n int) {
				defer wg.Done()
				c.superviseShard(i, n, rs)
			}(i, n)
		}
	}
	wg.Wait()

	// When a shard retained seeds, every worker restarts from a fresh
	// copy-on-write view of the merged global; unchanged rounds — the steady
	// state once retention has converged — distribute nothing at all, since
	// every worker's view already equals the global corpus.
	if c.b.merge(rs) {
		for _, w := range c.ws {
			if w != nil {
				w.corpus = c.b.global.view()
			}
		}
	}
}

// superviseShard drains one batch of n iterations on shard i, retrying on a
// replacement worker (with bounded exponential backoff) after a panic or
// deadline abort. A successful retry replays the shard's pre-batch RNG
// cursor against a fresh snapshot of the global corpus — the global corpus
// is immutable during the parallel phase, so the replayed batch produces
// outcomes identical to the fault-free run. After MaxRetries failed
// retries the shard is abandoned: its worker is dropped and the barrier
// drops its budget.
//
// Only the first attempt writes into the recycled rs.outs[i] scratch; a
// failed attempt's goroutine may linger (a stalled batch runs to its own
// end or forever), so after any failure the scratch buffer is surrendered
// to that goroutine and retries append to fresh allocations.
func (c *coordinator) superviseShard(i, n int, rs *roundScratch) {
	opt := &c.b.opt
	maxRetries := opt.MaxRetries
	if maxRetries == 0 {
		maxRetries = defaultMaxRetries
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	backoff := opt.RetryBackoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	cursor := c.b.cursors[i]
	dst := rs.outs[i]
	for attempt := 0; ; attempt++ {
		w := c.ws[i]
		if attempt > 0 {
			shift := min(attempt-1, maxBackoffShift)
			time.Sleep(backoff << uint(shift))
			w = nil   // build a replacement inside the attempt goroutine
			dst = nil // the failed attempt's goroutine owns the scratch now
		}
		w, outs, err := c.attemptBatch(w, dst, i, n, rs.round, cursor)
		if err == nil {
			c.ws[i] = w
			rs.ran[i] = true
			rs.outs[i] = outs
			rs.seeds[i] = w.takeNewSeeds()
			rs.cursors[i] = w.src.cursor()
			return
		}
		rs.fails[i] = append(rs.fails[i], err.Error())
		if attempt >= maxRetries {
			c.ws[i] = nil
			rs.abandoned[i] = true
			rs.outs[i] = nil // surrendered to the lingering goroutine
			return
		}
	}
}

// attemptBatch runs one batch attempt in its own goroutine, recovering
// panics and enforcing the per-batch deadline (n × IterTimeout), and returns
// the worker that ran it with its outcomes. w == nil means "build a
// replacement worker": a fresh executor with the shard's RNG replayed to
// the pre-batch cursor and a fresh global-corpus snapshot — built inside
// the attempt goroutine so a panicking executor constructor is recovered
// like any other worker fault. An abandoned (stalled) attempt's goroutine
// keeps only private state (including the dst buffer it was given) and
// sends into 1-buffered channels, so it can finish late, or never, without
// racing or leaking a send.
func (c *coordinator) attemptBatch(w *worker, dst []outcome, i, n, round int, cursor uint64) (*worker, []outcome, error) {
	done := make(chan *worker, 1)
	failed := make(chan string, 1)
	opt := &c.b.opt
	start := time.Now() //sonar:nondeterministic-ok batch wall time feeds worker-busy metrics, not canonical output
	go func() {
		defer func() {
			if r := recover(); r != nil {
				failed <- fmt.Sprintf("worker panic: %v", r)
			}
		}()
		if w == nil {
			w = newShardWorker(i, c.newExec(), *opt, cursor)
			// Deep-copy snapshot, not a view: view() mutates the global
			// corpus's freeze flag, which must not race with other shards'
			// replacement builds during the parallel phase. Content equals
			// the view the original worker held, so the replay is exact.
			w.corpus = c.b.global.Snapshot()
		}
		dst = w.runBatch(dst, n, round)
		done <- w
	}()

	var deadline <-chan time.Time
	if opt.IterTimeout > 0 {
		t := time.NewTimer(time.Duration(n) * opt.IterTimeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case w := <-done:
		opt.Observer.WorkerBatch(i, n, time.Since(start)) //sonar:nondeterministic-ok operator-facing duration metric only
		return w, dst, nil
	case msg := <-failed:
		return nil, nil, fmt.Errorf("%s", msg)
	case <-deadline:
		return nil, nil, fmt.Errorf("batch deadline exceeded (%d iterations × %v)", n, opt.IterTimeout)
	}
}

// writeCheckpoint persists the campaign position when Options.Checkpoint is
// set. complete marks the final checkpoint of a finished campaign. Callers
// must have drained the fold pipeline, so the snapshot sees the exact
// accumulator and event-stream position of the barrier. Failures to write
// are reported through the checkpoint metrics staying flat — the campaign
// itself never aborts on checkpoint I/O errors (the operator loses
// durability, not results).
func (c *coordinator) writeCheckpoint(complete bool) {
	opt := &c.b.opt
	if opt.Checkpoint == "" {
		return
	}
	done := opt.Iterations - c.b.left
	if !complete && done == c.lastSaved {
		return // already persisted at this position
	}
	start := time.Now() //sonar:nondeterministic-ok checkpoint save duration feeds a metric, not canonical output
	size, err := c.b.snapshot(complete).Save(opt.Checkpoint)
	if err != nil {
		return
	}
	c.lastSaved = done
	opt.Observer.CheckpointSaved(done, size, time.Since(start)) //sonar:nondeterministic-ok operator-facing duration metric only
}
