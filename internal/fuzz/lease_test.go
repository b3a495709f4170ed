package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sonar/internal/obs"
)

// execLease round-trips the lease and its result through their JSON wire
// encodings before and after execution, so every lease-coordinator test
// also exercises exactly what travels over the campaign service's HTTP API.
func execLease(t testing.TB, shape Shape, lanes int, l *Lease) *LeaseResult {
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
// shard of every round gets its lease executed and reported back. It
// returns how many timing differences the results trimmed to Diff markers.
func driveLeases(t *testing.T, lc *LeaseCoordinator) (markers int) {
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
			res := execLease(t, shape, 1, l)
			for _, o := range res.Outcomes {
				if o.Diff {
					markers++
				}
			}
			if err := lc.Report(res); err != nil {
				t.Fatalf("Report(shard %d): %v", shard, err)
			}
		}
	}
	return markers
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
func driveRounds(t testing.TB, lc *LeaseCoordinator, n int) {
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

// finalCheckpoint loads a campaign's final checkpoint file and re-encodes
// it, the form TestResumedFinalCheckpointMatchesUninterrupted compares.
func finalCheckpoint(t *testing.T, path string) []byte {
	t.Helper()
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Complete {
		t.Fatalf("%s: final checkpoint not marked complete", path)
	}
	b, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Lease results ship only what the stats fold reads: the first Lease.Slots
// findings of a batch in full, later timing differences as Diff markers,
// no testcase without a shipped finding. A campaign driven through trimmed
// results must still match the local engine byte for byte — Stats wire,
// event stream and final checkpoint — whether the campaign keeps every
// finding (KeepFindings 0: nothing is trimmed), one, or cmd/sonar's 32
// (the cap fills mid-campaign), at every shard count.
func TestTrimmedLeasesMatchRunParallel(t *testing.T) {
	for _, keep := range []int{0, 1, 32} {
		for _, workers := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("keep=%d/workers=%d", keep, workers), func(t *testing.T) {
				opt := SonarOptions(96)
				opt.Workers = workers
				opt.BatchSize = 8
				opt.KeepFindings = keep

				localSink := obs.NewMemorySink()
				localOpt := opt
				localOpt.Observer = obs.New(localSink)
				localStats := RunParallelExec(liteExec, localOpt)

				leaseSink := obs.NewMemorySink()
				leaseOpt := opt
				leaseOpt.Observer = obs.New(leaseSink)
				lc := NewLeaseCoordinator(liteFactory(), leaseOpt)
				markers := driveLeases(t, lc)

				diffs := localStats.PerIteration[len(localStats.PerIteration)-1].CumTimingDiffs
				switch {
				case keep == 0 && markers != 0:
					t.Errorf("a campaign keeping every finding trimmed %d of them", markers)
				case keep > 0 && diffs > keep && markers == 0:
					t.Errorf("%d timing differences over a cap of %d, but no result trimmed one", diffs, keep)
				}
				if !bytes.Equal(localSink.Bytes(), leaseSink.Bytes()) {
					t.Error("trimmed-lease event stream differs from local RunParallelExec stream")
				}
				statsWireEqual(t, localStats, lc.Stats())

				// Final checkpoints, compared without an observer as in
				// TestResumedFinalCheckpointMatchesUninterrupted: the local
				// engine saves its final checkpoint before campaign_end, the
				// coordinator snapshots after it, so their event_seq differs
				// by that one event whenever an observer is attached.
				ckptOpt := opt
				ckptOpt.Checkpoint = filepath.Join(t.TempDir(), "local.ckpt")
				RunParallelExec(liteExec, ckptOpt)
				plain := NewLeaseCoordinator(liteFactory(), opt)
				driveLeases(t, plain)
				got, err := plain.Snapshot(true).Encode()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, finalCheckpoint(t, ckptOpt.Checkpoint)) {
					t.Error("trimmed-lease final checkpoint differs from the local run's")
				}
			})
		}
	}
}

// The slot count depends only on the last round barrier, so a coordinator
// resumed from a mid-campaign snapshot offers the same slots, and its
// trimmed rounds continue the uninterrupted campaign byte for byte.
func TestTrimmedLeasesResumeMatchesUninterrupted(t *testing.T) {
	opt := SonarOptions(96)
	opt.Workers = 2
	opt.BatchSize = 8
	opt.KeepFindings = 12

	unbrokenSink := obs.NewMemorySink()
	unbrokenOpt := opt
	unbrokenOpt.Observer = obs.New(unbrokenSink)
	unbroken := NewLeaseCoordinator(liteFactory(), unbrokenOpt)
	if driveLeases(t, unbroken) == 0 {
		t.Fatal("no result was trimmed; the cap never filled")
	}

	firstSink := obs.NewMemorySink()
	firstOpt := opt
	firstOpt.Observer = obs.New(firstSink)
	first := NewLeaseCoordinator(liteFactory(), firstOpt)
	driveRounds(t, first, 1)
	path := filepath.Join(t.TempDir(), "lease.ckpt")
	if _, err := first.Snapshot(false).Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	secondSink := obs.NewMemorySink()
	secondOpt := cp.CampaignOptions()
	secondOpt.Observer = obs.New(secondSink)
	second, err := ResumeLeaseCoordinator(liteFactory(), secondOpt, cp)
	if err != nil {
		t.Fatalf("ResumeLeaseCoordinator: %v", err)
	}
	for _, shard := range first.OpenShards() {
		a, err := first.Lease(shard, CorpusPrefix{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := second.Lease(shard, CorpusPrefix{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Slots != b.Slots || a.Slots >= a.N {
			t.Errorf("shard %d: slots %d before the snapshot, %d after resume (batch %d); want equal and below the batch", shard, a.Slots, b.Slots, a.N)
		}
	}
	driveLeases(t, second)

	joined := append(firstSink.Bytes(), secondSink.Bytes()...)
	if !bytes.Equal(joined, unbrokenSink.Bytes()) {
		t.Error("resumed trimmed-lease stream concatenation differs from the uninterrupted stream")
	}
	statsWireEqual(t, unbroken.Stats(), second.Stats())
}

// trimmedLease opens a campaign keeping two findings and returns its first
// lease: a 16-iteration batch with two finding slots, whose result ships
// two findings in full and trims the rest.
func trimmedLease(t testing.TB) (*LeaseCoordinator, *Lease) {
	t.Helper()
	opt := SonarOptions(64)
	opt.Workers = 1
	opt.BatchSize = 16
	opt.KeepFindings = 2
	opt.Observer = obs.New()
	lc := NewLeaseCoordinator(liteFactory(), opt)
	l, err := lc.Lease(0, CorpusPrefix{})
	if err != nil {
		t.Fatalf("Lease(0): %v", err)
	}
	if l.Slots != 2 {
		t.Fatalf("first lease has %d finding slots, want 2", l.Slots)
	}
	return lc, l
}

// findingIndexes returns the outcome indexes of a result's timing
// differences, shipped or marked.
func findingIndexes(res *LeaseResult) []int {
	var idx []int
	for i, o := range res.Outcomes {
		if o.Finding != nil || o.Diff {
			idx = append(idx, i)
		}
	}
	return idx
}

// A trimmed result has the wire shape the slot count fixes — the first
// Slots findings in full with their testcases, later ones as bare markers,
// no testcase elsewhere — and re-executing the lease (at any lane width)
// reproduces it byte for byte.
func TestTrimmedLeaseReexecution(t *testing.T) {
	lc, l := trimmedLease(t)
	a := execLease(t, lc.Shape(), 1, l)
	idx := findingIndexes(a)
	if len(idx) <= l.Slots {
		t.Fatalf("batch has %d timing differences, want more than the %d slots", len(idx), l.Slots)
	}
	for i, o := range a.Outcomes {
		shipped := len(idx) > 0 && slices.Index(idx, i) >= 0 && slices.Index(idx, i) < l.Slots
		switch {
		case shipped && (o.Finding == nil || o.TC == "" || o.Diff):
			t.Errorf("outcome %d: a finding within the slots is not shipped in full", i)
		case !shipped && (o.Finding != nil || o.TC != ""):
			t.Errorf("outcome %d: carries a finding or testcase past the slots", i)
		}
	}
	ab := wireJSON(t, a)
	if bb := wireJSON(t, execLease(t, lc.Shape(), 1, l)); !bytes.Equal(ab, bb) {
		t.Fatal("re-executing a trimmed lease produced a different result")
	}
	if cb := wireJSON(t, execLease(t, lc.Shape(), 64, l)); !bytes.Equal(ab, cb) {
		t.Fatal("trimmed lease result depends on the executor's lane width")
	}
}

// A result that trims a finding the fold may keep — its detail or its
// testcase — is rejected with the campaign untouched, as are a backwards
// RNG cursor and a point outside the design. An untrimmed result (every
// finding in full, as an older worker sends) folds to the same campaign as
// the trimmed one.
func TestTrimmedReportRejected(t *testing.T) {
	lc, l := trimmedLease(t)
	res := execLease(t, lc.Shape(), 1, l)
	idx := findingIndexes(res)
	before := wireJSON(t, lc.Snapshot(false))

	forge := func(edit func(r *LeaseResult)) *LeaseResult {
		var r LeaseResult
		if err := json.Unmarshal(wireJSON(t, res), &r); err != nil {
			t.Fatal(err)
		}
		edit(&r)
		return &r
	}
	cases := map[string]*LeaseResult{
		"first finding's detail trimmed": forge(func(r *LeaseResult) {
			r.Outcomes[idx[0]].Finding, r.Outcomes[idx[0]].Diff = nil, true
		}),
		"second finding's testcase trimmed": forge(func(r *LeaseResult) { r.Outcomes[idx[1]].TC = "" }),
		"point outside the design":          forge(func(r *LeaseResult) { r.Outcomes[0].Triggered = []int{1 << 30} }),
	}
	for name, r := range cases {
		if err := lc.Report(r); err == nil {
			t.Errorf("%s: report accepted", name)
		}
	}
	if got := wireJSON(t, lc.Snapshot(false)); !bytes.Equal(got, before) || !slices.Equal(lc.OpenShards(), []int{0}) {
		t.Fatal("rejected reports changed campaign state")
	}
	if err := lc.Report(res); err != nil {
		t.Fatalf("genuine trimmed report rejected after forged ones: %v", err)
	}

	// The second round's lease starts past RNG draw zero, so a result can
	// claim a cursor before it.
	driveRounds(t, lc, 1)
	l2, err := lc.Lease(0, CorpusPrefix{})
	if err != nil {
		t.Fatal(err)
	}
	back := execLease(t, lc.Shape(), 1, l2)
	back.Cursor = l2.Cursor - 1
	if err := lc.Report(back); err == nil {
		t.Error("report with a cursor before the lease's accepted")
	}

	full := *l
	full.Slots = full.N
	old, _ := trimmedLease(t)
	if err := old.Report(execLease(t, old.Shape(), 1, &full)); err != nil {
		t.Fatalf("untrimmed report rejected: %v", err)
	}
	driveRounds(t, old, 1)
	if !bytes.Equal(wireJSON(t, old.Snapshot(false)), wireJSON(t, lc.Snapshot(false))) {
		t.Error("untrimmed and trimmed results folded to different campaigns")
	}
}

// FuzzLeaseReport feeds JSON-decoded lease results — genuine trimmed and
// untrimmed ones, over-trimmed and malformed forgeries — to a live
// coordinator in the middle of a campaign whose finding cap is part-full.
// Report must never panic. A rejected result leaves the open round as it
// was; after an accepted one, every later lease still builds, the campaign
// runs to its end (its shards are abandoned, which needs no execution), and
// its final snapshot encodes and resumes.
func FuzzLeaseReport(f *testing.F) {
	// A small shape keeps inputs short: the fuzzer minimizes every new
	// input by re-running it, and each run resumes a coordinator.
	opt := SonarOptions(24)
	opt.Workers = 2
	opt.BatchSize = 4
	opt.KeepFindings = 4
	d := liteFactory()
	lc := NewLeaseCoordinator(d, opt)
	driveRounds(f, lc, 1)
	cp := lc.Snapshot(false)

	l, err := lc.Lease(0, CorpusPrefix{})
	if err != nil {
		f.Fatal(err)
	}
	res := execLease(f, lc.Shape(), 1, l)
	full := *l
	full.Slots = full.N
	add := func(r *LeaseResult) { f.Add(wireJSON(f, r)) }
	add(res)
	add(execLease(f, lc.Shape(), 1, &full))
	stripped := *res
	stripped.Outcomes = append([]OutcomeWire(nil), res.Outcomes...)
	for i := range stripped.Outcomes {
		o := &stripped.Outcomes[i]
		o.Diff = o.Diff || o.Finding != nil
		o.Finding, o.TC = nil, ""
	}
	add(&stripped)
	f.Add([]byte(`{"shard":0,"round":2,"cursor":0,"outcomes":[{"diff":true},{"tc":"# probe: 9\n","finding":{}}],"seeds":[{"tc":""}]}`))
	f.Add([]byte(`{"shard":1,"round":2,"cursor":18446744073709551615,"outcomes":[{"triggered":[-1,3]},{},{},{"intvls":[{"point":-4,"intvl":-9}]}],"seeds":null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var r LeaseResult
		if json.Unmarshal(data, &r) != nil {
			return
		}
		lc, err := ResumeLeaseCoordinator(d, cp.CampaignOptions(), cp)
		if err != nil {
			t.Fatal(err)
		}
		open := lc.OpenShards()
		if err := lc.Report(&r); err != nil {
			if !slices.Equal(lc.OpenShards(), open) {
				t.Fatalf("rejected report changed the open shards: %v", err)
			}
			return
		}
		for !lc.Finished() {
			open := lc.OpenShards()
			if len(open) == 0 {
				t.Fatal("unfinished campaign has no open shard")
			}
			for _, shard := range open {
				if _, err := lc.Lease(shard, CorpusPrefix{}); err != nil {
					t.Fatalf("Lease(%d) after an accepted report: %v", shard, err)
				}
				if err := lc.Abandon(shard, []string{"fuzz"}); err != nil {
					t.Fatalf("Abandon(%d): %v", shard, err)
				}
			}
		}
		end := lc.Snapshot(true)
		if _, err := end.Encode(); err != nil {
			t.Fatalf("final snapshot does not encode: %v", err)
		}
		if _, err := ResumeLeaseCoordinator(d, end.CampaignOptions(), end); err != nil {
			t.Fatalf("final snapshot does not resume: %v", err)
		}
	})
}
