package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"sonar/internal/fuzz/faultinject"
	"sonar/internal/obs"
)

// faultOptions returns a small parallel campaign configuration with fast
// retry backoff, suitable for fault-injection tests.
func faultOptions(workers int) Options {
	opt := SonarOptions(24)
	opt.Workers = workers
	opt.BatchSize = 4
	opt.RetryBackoff = time.Millisecond
	return opt
}

// stripFaultEvents drops worker_failed/batch_retried events and re-numbers
// the remainder, yielding the stream a fault-free run would have produced
// if recovery is exact.
func stripFaultEvents(events []obs.Event) []byte {
	var b []byte
	seq := 0
	for _, e := range events {
		if e.Kind == obs.WorkerFailed || e.Kind == obs.BatchRetried {
			continue
		}
		seq++
		e.Seq = seq
		enc, err := json.Marshal(e)
		if err != nil {
			panic(err)
		}
		b = append(append(b, enc...), '\n')
	}
	return b
}

func countFaultEvents(events []obs.Event) (fails, retries int) {
	for _, e := range events {
		switch e.Kind {
		case obs.WorkerFailed:
			fails++
		case obs.BatchRetried:
			retries++
		}
	}
	return fails, retries
}

// TestFaultMatrix is the CI fault-injection matrix (run per-cell under
// -race by the workflow): for every worker count and fault mode, an
// injected transient fault must never deadlock or fail the campaign — the
// batch is retried on a replacement worker, worker_failed/batch_retried
// events are emitted, and the final Stats and (fault-event-stripped) event
// stream match the fault-free run exactly.
func TestFaultMatrix(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []faultinject.Mode{faultinject.ModePanic, faultinject.ModeStall} {
			t.Run(fmt.Sprintf("workers=%d/mode=%s", workers, mode), func(t *testing.T) {
				base := faultOptions(workers)
				bopt, bmem := observedOptions(base)
				want := RunParallel(liteFactory, bopt)

				sched := faultinject.NewSchedule(
					faultinject.Fault{Worker: 0, Round: 1, Iter: 1, Mode: mode},
					faultinject.Fault{Worker: workers - 1, Round: 2, Iter: 0, Mode: mode},
				)
				defer sched.Release() // drain stalled goroutines at test end
				fopt := base
				fopt.FaultHook = sched
				if mode == faultinject.ModeStall {
					// Stalls are only recoverable through the deadline.
					fopt.IterTimeout = 10 * time.Millisecond
				}
				fopt, fmem := observedOptions(fopt)
				got := RunParallel(liteFactory, fopt)

				statsEqual(t, want, got)
				if fired := sched.Fired(); fired != 2 {
					t.Errorf("fired %d faults, want 2", fired)
				}
				fails, retries := countFaultEvents(fmem.Events())
				if fails != 2 || retries != 2 {
					t.Errorf("got %d worker_failed / %d batch_retried events, want 2/2", fails, retries)
				}
				if !bytes.Equal(stripFaultEvents(fmem.Events()), stripFaultEvents(bmem.Events())) {
					t.Error("faulted campaign's event stream (fault events stripped) differs from fault-free run")
				}
			})
		}
	}
}

// A permanently failing shard (the fault re-arms on every retry) must be
// abandoned after MaxRetries replacement workers: the campaign completes on
// the remaining shards with the abandoned budget dropped, and the
// abandonment is reported as a worker_failed event.
func TestPermanentFaultAbandonsShard(t *testing.T) {
	opt := faultOptions(2)
	opt.MaxRetries = 1
	sched := faultinject.NewSchedule(
		faultinject.Fault{Worker: 1, Round: 2, Iter: 0, Mode: faultinject.ModePanic, Repeat: true},
	)
	opt.FaultHook = sched
	opt, mem := observedOptions(opt)
	st := RunParallel(liteFactory, opt)

	// Shards own 12 iterations each; worker 1 completes round 1 (4 iters)
	// and is abandoned in round 2, dropping its remaining 8.
	if got := len(st.PerIteration); got != 16 {
		t.Fatalf("degraded campaign executed %d iterations, want 16", got)
	}
	if fired := sched.Fired(); fired != 2 {
		t.Errorf("fired %d faults, want 2 (initial attempt + 1 retry)", fired)
	}
	fails, retries := countFaultEvents(mem.Events())
	if fails != 3 { // two failed attempts + the abandonment notice
		t.Errorf("got %d worker_failed events, want 3", fails)
	}
	if retries != 0 {
		t.Errorf("got %d batch_retried events for an abandoned shard, want 0", retries)
	}
	abandoned := false
	wantAttempt := 1
	for _, e := range mem.Events() {
		if e.Kind != obs.WorkerFailed {
			continue
		}
		if strings.Contains(e.Reason, "abandoned") {
			abandoned = true
			if e.Worker != 1 {
				t.Errorf("abandonment reported for worker %d, want 1", e.Worker)
			}
			// The abandonment is a disposition, not an attempt: it carries
			// the distinct Attempt=0 marker so it can never duplicate a
			// failed attempt's number.
			if e.Attempt != 0 {
				t.Errorf("abandonment event has attempt %d, want 0", e.Attempt)
			}
		} else {
			// Real failed attempts are numbered 1..N in order.
			if e.Attempt != wantAttempt {
				t.Errorf("failed attempt numbered %d, want %d", e.Attempt, wantAttempt)
			}
			wantAttempt++
		}
	}
	if !abandoned {
		t.Error("no abandonment worker_failed event emitted")
	}
	// The surviving shard's results must be untouched: its per-iteration
	// series is internally consistent and the campaign ended cleanly.
	last := mem.Events()[len(mem.Events())-1]
	if last.Kind != obs.CampaignEnd {
		t.Errorf("degraded campaign ended with %q, want campaign_end", last.Kind)
	}
	if last.Iterations != 16 {
		t.Errorf("campaign_end reports %d iterations, want 16", last.Iterations)
	}
}

// MaxRetries < 0 disables retries entirely: the first fault abandons the
// shard.
func TestNegativeMaxRetriesDisablesRetry(t *testing.T) {
	opt := faultOptions(2)
	opt.MaxRetries = -1
	sched := faultinject.NewSchedule(
		faultinject.Fault{Worker: 0, Round: 1, Iter: 0, Mode: faultinject.ModePanic},
	)
	opt.FaultHook = sched
	st := RunParallel(liteFactory, opt)
	if got := len(st.PerIteration); got != 12 {
		t.Fatalf("executed %d iterations, want 12 (worker 0's full shard dropped)", got)
	}
	if fired := sched.Fired(); fired != 1 {
		t.Errorf("fired %d faults, want 1", fired)
	}
}

// Fault recovery must compose with checkpoint/resume: a campaign that
// suffers a transient panic, pauses, and resumes still matches the
// fault-free uninterrupted run.
func TestFaultRecoveryComposesWithResume(t *testing.T) {
	base := faultOptions(2)
	full := RunParallel(liteFactory, base)

	popt := base
	sched := faultinject.NewSchedule(
		faultinject.Fault{Worker: 0, Round: 1, Iter: 2, Mode: faultinject.ModePanic},
	)
	popt.FaultHook = sched
	_, cp := pausedCampaign(t, popt, 2)
	if fired := sched.Fired(); fired != 1 {
		t.Fatalf("fired %d faults before the pause, want 1", fired)
	}
	resumed, err := ResumeExec(liteExec, cp.CampaignOptions(), cp)
	if err != nil {
		t.Fatal(err)
	}
	statsEqual(t, full, resumed)
}
