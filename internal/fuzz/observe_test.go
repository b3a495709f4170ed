package fuzz

import (
	"bytes"
	"testing"

	"sonar/internal/obs"
)

// observedOptions returns opt with a fresh Observer and its in-memory sink.
func observedOptions(opt Options) (Options, *obs.MemorySink) {
	mem := obs.NewMemorySink()
	opt.Observer = obs.New(mem)
	return opt, mem
}

// The observability half of the determinism contract: a parallel campaign's
// merged event stream is byte-identical across two runs for a fixed
// (Seed, Workers, BatchSize).
func TestParallelEventStreamByteIdentical(t *testing.T) {
	run := func() []byte {
		opt := SonarOptions(40)
		opt.Workers = 4
		opt.BatchSize = 5
		opt, mem := observedOptions(opt)
		RunParallel(liteFactory, opt)
		return mem.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events emitted")
	}
	if !bytes.Equal(a, b) {
		t.Error("parallel event streams differ between identical runs")
	}
}

// The "Workers<=1 reproduces serial" contract extends to the event stream:
// serial Run is the campaign engine at one shard, so its stream — the
// batch_merged events included — is byte-identical to RunParallel's at
// Workers=1. In particular both report the same effective batch size in
// campaign_start (serial Run used to emit batch=0 while Workers=1 emitted
// the normalized default — the header itself broke the contract).
func TestSerialEventStreamMatchesWorkers1(t *testing.T) {
	base := SonarOptions(30)

	sopt, smem := observedOptions(base)
	Run(liteFactory(), sopt)

	popt := base
	popt.Workers = 1
	popt, pmem := observedOptions(popt)
	RunParallel(liteFactory, popt)

	serial, parallel := smem.Bytes(), pmem.Bytes()
	if len(serial) == 0 {
		t.Fatal("no events emitted")
	}
	if !bytes.Equal(serial, parallel) {
		t.Error("serial and Workers=1 event streams differ")
	}
	start := smem.Events()[0]
	if start.Kind != obs.CampaignStart || start.Workers != 1 || start.BatchSize == 0 {
		t.Errorf("serial campaign_start reports workers=%d batch=%d, want the normalized effective values",
			start.Workers, start.BatchSize)
	}
}

// The determinism contract at full width: a Workers=8 campaign — enough
// rounds for the fold pipeline to run workers ahead of the barrier — yields
// byte-equal event streams and identical Stats across two runs. CI runs
// this under -race, exercising the ahead-of-barrier path for data races.
func TestParallelWorkers8Deterministic(t *testing.T) {
	run := func() (*Stats, []byte) {
		opt := SonarOptions(96)
		opt.Workers = 8
		opt.BatchSize = 3 // 4 rounds per shard: the pipeline stays primed
		opt, mem := observedOptions(opt)
		st := RunParallel(liteFactory, opt)
		return st, mem.Bytes()
	}
	stA, evA := run()
	stB, evB := run()
	statsEqual(t, stA, stB)
	if len(evA) == 0 {
		t.Fatal("no events emitted")
	}
	if !bytes.Equal(evA, evB) {
		t.Error("Workers=8 event streams differ between identical runs")
	}
}

// Attaching an Observer must not perturb the campaign: identical Stats with
// and without one, for both engines.
func TestObserverDoesNotPerturbCampaign(t *testing.T) {
	opt := SonarOptions(25)
	plain := Run(liteFactory(), opt)
	wopt, _ := observedOptions(opt)
	statsEqual(t, plain, Run(liteFactory(), wopt))

	opt.Workers = 3
	opt.BatchSize = 4
	pplain := RunParallel(liteFactory, opt)
	popt, _ := observedOptions(opt)
	statsEqual(t, pplain, RunParallel(liteFactory, popt))
}

// The PerIteration series contract: both engines record exactly
// Options.Iterations entries, 1-based and contiguous, also at awkward
// worker/batch splits (see Stats.PerIteration).
func TestPerIterationLengthMatchesIterations(t *testing.T) {
	cases := []struct{ iters, workers, batch int }{
		{13, 0, 0},
		{1, 1, 1},
		{13, 4, 3},
		{7, 8, 2},
		{16, 3, 5},
	}
	for _, c := range cases {
		opt := SonarOptions(c.iters)
		opt.Workers = c.workers
		opt.BatchSize = c.batch
		var st *Stats
		if c.workers == 0 {
			st = Run(liteFactory(), opt)
		} else {
			st = RunParallel(liteFactory, opt)
		}
		if len(st.PerIteration) != c.iters {
			t.Errorf("%+v: len(PerIteration) = %d, want %d", c, len(st.PerIteration), c.iters)
			continue
		}
		for i, it := range st.PerIteration {
			if it.Iteration != i+1 {
				t.Errorf("%+v: entry %d has Iteration %d", c, i, it.Iteration)
				break
			}
		}
	}
}

// The event stream must mirror the campaign's Stats: one IterationDone per
// iteration carrying the same cumulative series, one PointTriggered per
// distinct triggered point, and a CampaignEnd matching the final totals.
func TestEventStreamConsistentWithStats(t *testing.T) {
	for _, workers := range []int{0, 3} {
		opt := SonarOptions(30)
		opt.Workers = workers
		opt.BatchSize = 4
		opt, mem := observedOptions(opt)
		var st *Stats
		if workers == 0 {
			st = Run(liteFactory(), opt)
		} else {
			st = RunParallel(liteFactory, opt)
		}

		var iters, points int
		var end obs.Event
		for _, e := range mem.Events() {
			switch e.Kind {
			case obs.IterationDone:
				got := IterStats{
					Iteration:      e.Iteration,
					NewPoints:      e.NewPoints,
					CumPoints:      e.CumPoints,
					CumTimingDiffs: e.CumTimingDiffs,
				}
				if got != st.PerIteration[iters] {
					t.Fatalf("workers=%d: IterationDone %+v does not match PerIteration %+v",
						workers, got, st.PerIteration[iters])
				}
				iters++
			case obs.PointTriggered:
				if !st.TriggeredPoints[e.Point] {
					t.Errorf("workers=%d: PointTriggered for untriggered point %d", workers, e.Point)
				}
				points++
			case obs.CampaignEnd:
				end = e
			}
		}
		last := st.PerIteration[len(st.PerIteration)-1]
		if iters != opt.Iterations {
			t.Errorf("workers=%d: %d IterationDone events, want %d", workers, iters, opt.Iterations)
		}
		if points != last.CumPoints {
			t.Errorf("workers=%d: %d PointTriggered events, want %d", workers, points, last.CumPoints)
		}
		if end.Kind != obs.CampaignEnd ||
			end.CumPoints != last.CumPoints ||
			end.CumTimingDiffs != last.CumTimingDiffs ||
			end.CorpusSize != st.CorpusSize ||
			end.Cycles != st.ExecutedCycles {
			t.Errorf("workers=%d: CampaignEnd %+v does not match Stats (points=%d diffs=%d corpus=%d cycles=%d)",
				workers, end, last.CumPoints, last.CumTimingDiffs, st.CorpusSize, st.ExecutedCycles)
		}
	}
}

// Campaign metrics must agree with the returned Stats.
func TestCampaignMetricsMatchStats(t *testing.T) {
	opt := SonarOptions(20)
	opt.Workers = 2
	opt.BatchSize = 4
	opt, _ = observedOptions(opt)
	st := RunParallel(liteFactory, opt)

	series, err := obs.ParseExposition(opt.Observer.Metrics.ExpositionText())
	if err != nil {
		t.Fatal(err)
	}
	last := st.PerIteration[len(st.PerIteration)-1]
	for name, want := range map[string]float64{
		obs.MetricIterations:      float64(opt.Iterations),
		obs.MetricTriggeredPoints: float64(last.CumPoints),
		obs.MetricTimingDiffs:     float64(last.CumTimingDiffs),
		obs.MetricCorpusSize:      float64(st.CorpusSize),
		obs.MetricCycles:          float64(st.ExecutedCycles),
	} {
		if series[name] != want {
			t.Errorf("%s = %v, want %v", name, series[name], want)
		}
	}
	// Both workers must have reported utilization.
	for _, w := range []string{"0", "1"} {
		if series[obs.MetricWorkerIterations+`{worker="`+w+`"}`] != 10 {
			t.Errorf("worker %s iterations = %v, want 10",
				w, series[obs.MetricWorkerIterations+`{worker="`+w+`"}`])
		}
	}
}
