package fleet

import (
	"context"
	"sync"
	"testing"
	"time"

	"sonar/internal/fuzz"
	"sonar/internal/uarch"
)

// wakeBound is how soon a parked acquire must answer once the event it
// waits for has happened.
const wakeBound = 50 * time.Millisecond

// waitParked waits until exactly n acquires are parked on the controller.
func waitParked(t *testing.T, ct *Controller, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ct.parked.Value() != float64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("%v acquires parked, want %d", ct.parked.Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// acquireResult is what a background acquire returned, and when.
type acquireResult struct {
	g   *LeaseGrant
	err error
	at  time.Time
}

// parkAcquire issues a long-polling acquire in the background and waits
// until the server has parked it.
func parkAcquire(t *testing.T, ctx context.Context, client *Client, ct *Controller, worker string) <-chan acquireResult {
	t.Helper()
	before := int(ct.parked.Value())
	out := make(chan acquireResult, 1)
	go func() {
		g, err := client.AcquireWait(ctx, worker, nil, 5*time.Second)
		out <- acquireResult{g, err, time.Now()}
	}()
	waitParked(t, ct, before+1)
	return out
}

// execute runs a granted lease without a held corpus.
func execute(t *testing.T, g *LeaseGrant) *fuzz.LeaseResult {
	t.Helper()
	res, err := fuzz.ExecuteLeaseExec(liteExecFactory(), g.Shape, 1, &g.Lease, nil)
	if err != nil {
		t.Fatalf("ExecuteLeaseExec(%s): %v", g.LeaseID, err)
	}
	return res
}

// Submission parses and elaborates outside the controller lock: while a
// submit spends two seconds elaborating its design, an acquire on another
// running campaign is answered at once, and campaign IDs follow commit
// order — the slow submission, though first to arrive, becomes c2.
func TestSubmitOutsideLock(t *testing.T) {
	entered := make(chan struct{}, 1)
	registry := testRegistry()
	registry["slow"] = func() *uarch.SoC {
		select {
		case entered <- struct{}{}:
		default:
		}
		time.Sleep(2 * time.Second)
		return liteSoC()
	}
	client, _ := newTestServer(t, Config{DUTs: registry})

	slow := make(chan *CampaignStatus, 1)
	go func() {
		st, err := client.Submit(&Spec{DUT: "slow", Options: testShape(8, 1, 8)})
		if err != nil {
			t.Errorf("slow Submit: %v", err)
		}
		slow <- st
	}()
	<-entered

	st, err := client.Submit(&Spec{DUT: "lite", Options: testShape(8, 1, 8)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID != "c1" {
		t.Errorf("submission committed first got ID %q, want c1", st.ID)
	}
	start := time.Now()
	g, err := client.Acquire("w", nil)
	if elapsed := time.Since(start); elapsed > wakeBound {
		t.Errorf("acquire during a slow submit took %v, want under %v", elapsed, wakeBound)
	}
	if err != nil || g == nil || g.Campaign != "c1" {
		t.Fatalf("Acquire during a slow submit: grant=%+v err=%v", g, err)
	}
	if st := <-slow; st == nil || st.ID != "c2" {
		t.Errorf("slow submission committed second got status %+v, want ID c2", st)
	}
}

// A parked acquire is granted the next round's lease as soon as the round
// closes.
func TestParkedAcquireGrantsOnRoundClose(t *testing.T) {
	client, ct := newTestServer(t, Config{})
	if _, err := client.Submit(&Spec{DUT: "lite", Options: testShape(32, 2, 8)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var grants [2]*LeaseGrant
	for i := range grants {
		g, err := client.Acquire("w", nil)
		if err != nil || g == nil {
			t.Fatalf("Acquire %d: grant=%v err=%v", i, g, err)
		}
		grants[i] = g
	}
	res0, res1 := execute(t, grants[0]), execute(t, grants[1])
	parked := parkAcquire(t, context.Background(), client, ct, "parked")

	if err := client.Report(grants[0].LeaseID, res0); err != nil {
		t.Fatalf("Report: %v", err)
	}
	if err := client.Report(grants[1].LeaseID, res1); err != nil { // closes round 1
		t.Fatalf("Report: %v", err)
	}
	closed := time.Now()
	r := <-parked
	if r.err != nil || r.g == nil || r.g.LeaseID != "c1-r2-s0-a1" {
		t.Fatalf("parked acquire: grant=%+v err=%v, want lease c1-r2-s0-a1", r.g, r.err)
	}
	if late := r.at.Sub(closed); late > wakeBound {
		t.Errorf("parked acquire answered %v after the round closed, want under %v", late, wakeBound)
	}
}

// A drain answers the acquires parked when it starts; an acquire that
// arrives during a drain parks until the drain ends.
func TestParkedAcquireReturnsOnDrain(t *testing.T) {
	client, ct := newTestServer(t, Config{})
	if _, err := client.Submit(&Spec{DUT: "lite", Options: testShape(16, 1, 8)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	hog, err := client.Acquire("hog", nil)
	if err != nil || hog == nil {
		t.Fatalf("Acquire: grant=%v err=%v", hog, err)
	}
	parked := parkAcquire(t, context.Background(), client, ct, "parked")
	start := time.Now()
	if err := client.Drain(true); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	r := <-parked
	if r.err != nil || r.g != nil {
		t.Fatalf("parked acquire on drain: grant=%+v err=%v, want no work", r.g, r.err)
	}
	if late := r.at.Sub(start); late > wakeBound {
		t.Errorf("parked acquire answered %v after the drain, want under %v", late, wakeBound)
	}

	// Round 2 opens while draining: a new acquire parks rather than spin,
	// and is granted the lease once the drain ends.
	if err := client.Report(hog.LeaseID, execute(t, hog)); err != nil {
		t.Fatalf("Report: %v", err)
	}
	waiting := parkAcquire(t, context.Background(), client, ct, "waiting")
	start = time.Now()
	if err := client.Drain(false); err != nil {
		t.Fatalf("Drain(false): %v", err)
	}
	r = <-waiting
	if r.err != nil || r.g == nil || r.g.LeaseID != "c1-r2-s0-a1" {
		t.Fatalf("acquire parked through a drain: grant=%+v err=%v, want lease c1-r2-s0-a1", r.g, r.err)
	}
	if late := r.at.Sub(start); late > wakeBound {
		t.Errorf("parked acquire answered %v after the drain ended, want under %v", late, wakeBound)
	}
}

// A parked acquire stops waiting as soon as its context is cancelled —
// in the controller directly, and over HTTP when the client hangs up.
func TestParkedAcquireReturnsOnCancel(t *testing.T) {
	client, ct := newTestServer(t, Config{})
	if _, err := client.Submit(&Spec{DUT: "lite", Options: testShape(8, 1, 8)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if g, err := client.Acquire("hog", nil); err != nil || g == nil {
		t.Fatalf("Acquire: grant=%v err=%v", g, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan acquireResult, 1)
	go func() {
		g, err := ct.Acquire(ctx, "direct", nil, 5*time.Second)
		done <- acquireResult{g, err, time.Now()}
	}()
	waitParked(t, ct, 1)
	start := time.Now()
	cancel()
	r := <-done
	if r.err != nil || r.g != nil {
		t.Fatalf("cancelled acquire: grant=%+v err=%v, want no work", r.g, r.err)
	}
	if late := r.at.Sub(start); late > wakeBound {
		t.Errorf("cancelled acquire answered %v after cancel, want under %v", late, wakeBound)
	}

	ctx, cancel = context.WithCancel(context.Background())
	hungUp := parkAcquire(t, ctx, client, ct, "hangs-up")
	start = time.Now()
	cancel()
	if r := <-hungUp; r.err == nil {
		t.Error("client acquire survived its cancelled context")
	}
	waitParked(t, ct, 0)
	if late := time.Since(start); late > wakeBound {
		t.Errorf("server kept a disconnected acquire parked for %v, want under %v", late, wakeBound)
	}
}

// Lease expiry is swept lazily, so a parked acquire must wake by itself
// when a dead worker's lease expires — with no other request to trigger
// the sweep — and take over the re-offered lease.
func TestParkedAcquireWakesOnExpiry(t *testing.T) {
	const ttl = 200 * time.Millisecond
	client, ct := newTestServer(t, Config{LeaseTTL: ttl})
	if _, err := client.Submit(&Spec{DUT: "lite", Options: testShape(8, 1, 8)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if g, err := client.Acquire("dead", nil); err != nil || g == nil {
		t.Fatalf("Acquire: grant=%v err=%v", g, err)
	}
	expiry := time.Now().Add(ttl) // no later than the lease's expiry
	r := <-parkAcquire(t, context.Background(), client, ct, "heir")
	if r.err != nil || r.g == nil || r.g.LeaseID != "c1-r1-s0-a2" {
		t.Fatalf("parked acquire after expiry: grant=%+v err=%v, want lease c1-r1-s0-a2", r.g, r.err)
	}
	if late := r.at.Sub(expiry); late > wakeBound {
		t.Errorf("parked acquire answered %v after the lease expired, want under %v", late, wakeBound)
	}
}

// A report that asks for its next lease gets one in the reply when its
// merge opened one — a delta against the corpus the reporter holds after
// the reported lease — and none while the round still waits on another
// shard. A campaign driven that way matches the local engine byte for
// byte.
func TestFusedGrantIsDelta(t *testing.T) {
	client, _ := newTestServer(t, Config{})
	shape := testShape(96, 2, 8)
	if _, err := client.Submit(&Spec{DUT: "lite", Options: shape}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	factory := liteExecFactory()
	var caches [2]heldCache
	var grants [2]*LeaseGrant
	fused, deltas := 0, 0
	for round := 1; ; round++ {
		for i := range grants {
			if grants[i] != nil {
				continue
			}
			g, err := client.Acquire("w", caches[i].prefixes())
			if err != nil {
				t.Fatalf("Acquire: %v", err)
			}
			grants[i] = g
		}
		if grants[0] == nil && grants[1] == nil {
			break
		}
		for i, g := range grants {
			if g == nil {
				continue
			}
			res, err := fuzz.ExecuteLeaseExec(factory, g.Shape, 1, &g.Lease, caches[i].granted(g.Campaign))
			if err != nil {
				t.Fatalf("round %d: ExecuteLeaseExec(%s): %v", round, g.LeaseID, err)
			}
			next, err := client.ReportNext(g.LeaseID, res)
			if err != nil {
				t.Fatalf("round %d: ReportNext(%s): %v", round, g.LeaseID, err)
			}
			if i == 0 && next != nil {
				t.Errorf("round %d: report before the round closed was granted %s", round, next.LeaseID)
			}
			if next != nil {
				fused++
				if next.Lease.Base > 0 {
					deltas++
				}
			}
			grants[i] = next
		}
	}
	if fused == 0 || deltas == 0 {
		t.Fatalf("%d fused grants, %d of them deltas; want both above zero", fused, deltas)
	}
	matchLocal(t, client, shape)
}

// A worker parked in a long-polling acquire returns promptly when its
// context is cancelled, and the server stops waiting for it too.
func TestRunWorkerCancelWhileParked(t *testing.T) {
	client, ct := newTestServer(t, Config{})
	if _, err := client.Submit(&Spec{DUT: "lite", Options: testShape(8, 1, 8)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if g, err := client.Acquire("hog", nil); err != nil || g == nil {
		t.Fatalf("Acquire: grant=%v err=%v", g, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var (
		wg  sync.WaitGroup
		n   int
		err error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		n, err = RunWorker(ctx, client, WorkerOptions{ID: "parked", DUTs: testRegistry()})
	}()
	waitParked(t, ct, 1)
	start := time.Now()
	cancel()
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("RunWorker returned %v after cancel, want under 100ms", elapsed)
	}
	if err != nil || n != 0 {
		t.Errorf("RunWorker = %d, %v; want 0 leases and no error", n, err)
	}
	waitParked(t, ct, 0)
}
