package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"sonar/internal/obs"
)

// execLease round-trips the lease and its result through their JSON wire
// encodings before and after execution, so every lease-coordinator test
// also exercises exactly what travels over the campaign service's HTTP API.
func execLease(t *testing.T, shape Shape, lanes int, l *Lease) *LeaseResult {
	t.Helper()
	lb, err := json.Marshal(l)
	if err != nil {
		t.Fatalf("marshal lease: %v", err)
	}
	var wire Lease
	if err := json.Unmarshal(lb, &wire); err != nil {
		t.Fatalf("unmarshal lease: %v", err)
	}
	res, err := ExecuteLeaseExec(liteExec, shape, lanes, &wire, nil)
	if err != nil {
		t.Fatalf("ExecuteLeaseExec(shard %d, round %d): %v", l.Shard, l.Round, err)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal lease result: %v", err)
	}
	var back LeaseResult
	if err := json.Unmarshal(rb, &back); err != nil {
		t.Fatalf("unmarshal lease result: %v", err)
	}
	return &back
}

// driveLeases runs a lease coordinator to completion in-process: every open
// shard of every round gets its lease executed and reported back.
func driveLeases(t *testing.T, lc *LeaseCoordinator) {
	t.Helper()
	shape := lc.Shape()
	for !lc.Finished() {
		open := lc.OpenShards()
		if len(open) == 0 {
			t.Fatal("coordinator not finished but no open shards")
		}
		for _, shard := range open {
			l, err := lc.Lease(shard, CorpusPrefix{})
			if err != nil {
				t.Fatalf("Lease(%d): %v", shard, err)
			}
			if err := lc.Report(execLease(t, shape, 1, l)); err != nil {
				t.Fatalf("Report(shard %d): %v", shard, err)
			}
		}
	}
}

// statsWireEqual compares two campaigns' full serialized statistics,
// findings content included (statsEqual only compares finding counts).
func statsWireEqual(t *testing.T, a, b *Stats) {
	t.Helper()
	aw, err := json.Marshal(a.Wire())
	if err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	bw, err := json.Marshal(b.Wire())
	if err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	if !bytes.Equal(aw, bw) {
		t.Fatalf("serialized stats differ:\n%s\nvs\n%s", aw, bw)
	}
}

// The distributed determinism contract at the engine layer: a campaign
// driven entirely through shard leases — every lease and result crossing a
// JSON wire boundary — produces a byte-identical event stream and identical
// Stats to the local parallel coordinator for the same (Seed, Workers,
// BatchSize).
func TestLeaseCoordinatorMatchesRunParallel(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opt := SonarOptions(60)
			opt.Workers = workers
			opt.BatchSize = 8

			localSink := obs.NewMemorySink()
			localOpt := opt
			localOpt.Observer = obs.New(localSink)
			localStats := RunParallel(liteFactory, localOpt)

			leaseSink := obs.NewMemorySink()
			leaseOpt := opt
			leaseOpt.Observer = obs.New(leaseSink)
			lc := NewLeaseCoordinator(liteFactory(), leaseOpt)
			driveLeases(t, lc)

			if !bytes.Equal(localSink.Bytes(), leaseSink.Bytes()) {
				t.Error("lease-driven event stream differs from local RunParallel stream")
			}
			statsEqual(t, localStats, lc.Stats())
			statsWireEqual(t, localStats, lc.Stats())
		})
	}
}

// Re-executing the same lease must return byte-equal results — the
// property that lets the service re-offer a lease lost to worker churn
// without perturbing the campaign.
func TestLeaseReexecutionDeterministic(t *testing.T) {
	opt := SonarOptions(40)
	opt.Workers = 2
	opt.BatchSize = 8
	opt.Observer = obs.New()
	lc := NewLeaseCoordinator(liteFactory(), opt)

	// Advance one round so the lease carries a non-trivial corpus + cursor.
	driveRounds(t, lc, 1)

	l, err := lc.Lease(0, CorpusPrefix{})
	if err != nil {
		t.Fatalf("Lease(0): %v", err)
	}
	a := execLease(t, lc.Shape(), 1, l)
	b := execLease(t, lc.Shape(), 1, l)
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if !bytes.Equal(ab, bb) {
		t.Fatal("re-executing the same lease produced different results")
	}
	// A different lane width is operational: same result bytes.
	c := execLease(t, lc.Shape(), 64, l)
	cb, _ := json.Marshal(c)
	if !bytes.Equal(ab, cb) {
		t.Fatal("lease result depends on the executor's lane width")
	}
}

// driveRounds advances the coordinator through n round barriers.
func driveRounds(t *testing.T, lc *LeaseCoordinator, n int) {
	t.Helper()
	target := lc.Round() + n
	for lc.Round() < target && !lc.Finished() {
		for _, shard := range lc.OpenShards() {
			l, err := lc.Lease(shard, CorpusPrefix{})
			if err != nil {
				t.Fatalf("Lease(%d): %v", shard, err)
			}
			if err := lc.Report(execLease(t, lc.Shape(), 1, l)); err != nil {
				t.Fatalf("Report(shard %d): %v", shard, err)
			}
		}
	}
}

// Stale and malformed reports must be rejected without touching campaign
// state.
func TestLeaseReportValidation(t *testing.T) {
	opt := SonarOptions(40)
	opt.Workers = 2
	opt.BatchSize = 8
	opt.Observer = obs.New()
	lc := NewLeaseCoordinator(liteFactory(), opt)

	l, err := lc.Lease(0, CorpusPrefix{})
	if err != nil {
		t.Fatalf("Lease(0): %v", err)
	}
	res := execLease(t, lc.Shape(), 1, l)

	stale := *res
	stale.Round = 99
	if err := lc.Report(&stale); err == nil {
		t.Error("report for a wrong round was accepted")
	}
	short := *res
	short.Outcomes = short.Outcomes[:len(short.Outcomes)-1]
	if err := lc.Report(&short); err == nil {
		t.Error("report with a short batch was accepted")
	}
	garbled := *res
	garbled.Outcomes = append([]OutcomeWire(nil), res.Outcomes...)
	garbled.Outcomes[0].TC = "not a testcase"
	if err := lc.Report(&garbled); err == nil {
		t.Error("report with a garbled testcase was accepted")
	}
	if err := lc.Report(res); err != nil {
		t.Fatalf("valid report rejected after invalid ones: %v", err)
	}
	if err := lc.Report(res); err == nil {
		t.Error("duplicate report was accepted")
	}
}

// Abandoning a shard drops its budget and completes the campaign degraded,
// with the same worker_failed attempt/disposition events a local campaign
// emits when a shard exhausts its retries.
func TestLeaseAbandonmentDropsBudget(t *testing.T) {
	sink := obs.NewMemorySink()
	opt := SonarOptions(40)
	opt.Workers = 2
	opt.BatchSize = 8
	opt.Observer = obs.New(sink)
	lc := NewLeaseCoordinator(liteFactory(), opt)

	reasons := []string{"lease c1-r1-s1-a1 expired after 30ms", "lease c1-r1-s1-a2 expired after 30ms"}
	if err := lc.Abandon(1, reasons); err != nil {
		t.Fatalf("Abandon: %v", err)
	}
	driveLeases(t, lc)

	if got, want := len(lc.Stats().PerIteration), 20; got != want {
		t.Errorf("degraded campaign executed %d iterations, want %d (shard 1's 20 dropped)", got, want)
	}
	var attempts, dispositions int
	for _, e := range sink.Events() {
		if e.Kind != obs.WorkerFailed {
			continue
		}
		if e.Worker != 1 {
			t.Errorf("worker_failed for worker %d, want 1", e.Worker)
		}
		if e.Attempt == 0 {
			dispositions++
			if !strings.Contains(e.Reason, "shard abandoned after 2 failed attempts; 20 iterations dropped") {
				t.Errorf("unexpected abandonment reason %q", e.Reason)
			}
		} else {
			attempts++
		}
	}
	if attempts != 2 || dispositions != 1 {
		t.Errorf("got %d failed-attempt events and %d dispositions, want 2 and 1", attempts, dispositions)
	}
}

// A lease campaign snapshots into the ordinary Checkpoint shape and resumes
// bit-identically: the concatenation of the streams before and after the
// snapshot equals the uninterrupted campaign's stream, and the final Stats
// match.
func TestLeaseCoordinatorSnapshotResume(t *testing.T) {
	opt := SonarOptions(60)
	opt.Workers = 3
	opt.BatchSize = 8

	unbrokenSink := obs.NewMemorySink()
	unbrokenOpt := opt
	unbrokenOpt.Observer = obs.New(unbrokenSink)
	unbroken := NewLeaseCoordinator(liteFactory(), unbrokenOpt)
	driveLeases(t, unbroken)

	// Interrupted: two rounds, snapshot, resume in a "new process" (fresh
	// coordinator, fresh observer), drive to completion.
	firstSink := obs.NewMemorySink()
	firstOpt := opt
	firstOpt.Observer = obs.New(firstSink)
	first := NewLeaseCoordinator(liteFactory(), firstOpt)
	driveRounds(t, first, 2)
	cp := first.Snapshot(false)

	// The snapshot survives its file round-trip like any checkpoint.
	path := t.TempDir() + "/lease.ckpt"
	if _, err := cp.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}

	secondSink := obs.NewMemorySink()
	secondOpt := loaded.CampaignOptions()
	secondOpt.Observer = obs.New(secondSink)
	second, err := ResumeLeaseCoordinator(liteFactory(), secondOpt, loaded)
	if err != nil {
		t.Fatalf("ResumeLeaseCoordinator: %v", err)
	}
	driveLeases(t, second)

	joined := append(firstSink.Bytes(), secondSink.Bytes()...)
	if !bytes.Equal(joined, unbrokenSink.Bytes()) {
		t.Error("snapshot/resume stream concatenation differs from the uninterrupted stream")
	}
	statsEqual(t, unbroken.Stats(), second.Stats())
	statsWireEqual(t, unbroken.Stats(), second.Stats())
}
