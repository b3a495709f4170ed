package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sonar/internal/fuzz"
	"sonar/internal/obs"
)

// driveHeld executes leases through the HTTP API the way RunWorker does —
// listing the cache's held prefixes in every acquire and resolving each
// lease against the cache — until the server stops offering work or
// maxLeases leases ran (0 = no limit). It returns the executed grants.
func driveHeld(t *testing.T, client *Client, cache *heldCache, maxLeases int) []*LeaseGrant {
	t.Helper()
	factory := liteExecFactory()
	var grants []*LeaseGrant
	for maxLeases == 0 || len(grants) < maxLeases {
		g, err := client.Acquire("held-driver", cache.prefixes())
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		if g == nil {
			break
		}
		res, err := fuzz.ExecuteLeaseExec(factory, g.Shape, 1, &g.Lease, cache.granted(g.Campaign))
		if err != nil {
			t.Fatalf("ExecuteLeaseExec(%s): %v", g.LeaseID, err)
		}
		if err := client.Report(g.LeaseID, res); err != nil {
			t.Fatalf("Report(%s): %v", g.LeaseID, err)
		}
		grants = append(grants, g)
	}
	return grants
}

// driveUntilCorpus runs leases without any held prefix until the campaign
// corpus holds at least n seeds.
func driveUntilCorpus(t *testing.T, client *Client, ct *Controller, n int) {
	t.Helper()
	for {
		st, err := ct.Campaign("c1")
		if err != nil {
			t.Fatalf("Campaign: %v", err)
		}
		if st.CorpusSize >= n {
			return
		}
		if st.State == "done" {
			t.Fatalf("campaign finished with corpus %d before reaching %d seeds", st.CorpusSize, n)
		}
		if len(driveHeld(t, client, &heldCache{}, 1)) == 0 {
			t.Fatal("server offered no work mid-campaign")
		}
	}
}

// matchLocal checks a finished campaign's events and stats against the local
// RunParallel of the same shape, byte for byte.
func matchLocal(t *testing.T, client *Client, shape fuzz.Shape) {
	t.Helper()
	wantEvents, wantStats := localRun(t, shape)
	gotEvents, err := client.Events("c1")
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if !bytes.Equal(gotEvents, wantEvents) {
		t.Error("distributed event stream differs from local RunParallel stream")
	}
	result, err := client.Result("c1")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	gotWire, _ := json.Marshal(result.Stats)
	want := wantStats.Wire()
	wantWire, _ := json.Marshal(&want)
	if !bytes.Equal(gotWire, wantWire) {
		t.Error("distributed stats differ from local run")
	}
}

// A worker that keeps its corpus prefixes receives delta leases — leaving
// out the seeds it holds — lists them sorted by campaign, and the campaign
// still matches the local engine byte for byte.
func TestHeldWorkerGetsDeltaLeases(t *testing.T) {
	client, _ := newTestServer(t, Config{})
	shape := testShape(96, 2, 8)
	for i := 0; i < 2; i++ {
		if _, err := client.Submit(&Spec{DUT: "lite", Options: shape}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	cache := &heldCache{}
	grants := driveHeld(t, client, cache, 0)
	held := cache.prefixes()
	if len(held) != 2 || held[0].Campaign != "c1" || held[1].Campaign != "c2" || held[0].CorpusPrefix != held[1].CorpusPrefix {
		t.Errorf("held list %+v, want c1 and c2 in order with equal prefixes", held)
	}
	deltas := 0
	for _, g := range grants {
		if g.Lease.Base > 0 {
			deltas++
		}
	}
	if deltas == 0 {
		t.Fatalf("none of %d leases to a caching worker was a delta", len(grants))
	}
	matchLocal(t, client, shape)
}

// A worker that joins mid-campaign with an empty cache gets the full corpus
// and the campaign stays byte-identical to the local engine.
func TestWorkerJoinsMidCampaign(t *testing.T) {
	client, ct := newTestServer(t, Config{})
	shape := testShape(96, 2, 8)
	if _, err := client.Submit(&Spec{DUT: "lite", Options: shape}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	driveUntilCorpus(t, client, ct, 2)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunWorker(ctx, client, WorkerOptions{ID: "late", Poll: 5 * time.Millisecond, DUTs: testRegistry()})
		done <- err
	}()
	awaitCampaign(t, client)
	cancel()
	if err := <-done; err != nil {
		t.Errorf("late worker: %v", err)
	}
	matchLocal(t, client, shape)
}

// awaitCampaign polls c1 until it is done.
func awaitCampaign(t *testing.T, client *Client) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := client.Campaign("c1")
		if err != nil {
			t.Fatalf("Campaign: %v", err)
		}
		if st.State == "done" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign did not complete; status %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Campaign IDs restart at c1 on a new controller. A worker still holding a
// prefix of the previous controller's c1 — a campaign with another seed —
// must not get a delta against it: the digest forces the full corpus, and
// the new campaign matches the local engine byte for byte.
func TestStalePrefixFromPreviousController(t *testing.T) {
	cache := &heldCache{}
	old := testShape(96, 2, 8)
	old.Seed = 7
	oldClient, oldCt := newTestServer(t, Config{})
	if _, err := oldClient.Submit(&Spec{DUT: "lite", Options: old}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for len(cache.prefixes()) == 0 || cache.prefixes()[0].Seeds < 2 {
		if len(driveHeld(t, oldClient, cache, 1)) == 0 {
			t.Fatal("old campaign ended before the worker held 2 seeds")
		}
	}
	stale := cache.prefixes()[0]
	if st, _ := oldCt.Campaign("c1"); st.State == "done" {
		t.Fatal("old campaign already finished")
	}

	// The new controller's c1 runs until its corpus is at least as long as
	// the stale prefix, so only the digest can tell the two apart.
	shape := testShape(96, 2, 8)
	client, ct := newTestServer(t, Config{})
	if _, err := client.Submit(&Spec{DUT: "lite", Options: shape}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	driveUntilCorpus(t, client, ct, stale.Seeds)

	grants := driveHeld(t, client, cache, 1)
	if len(grants) != 1 {
		t.Fatal("new campaign offered no work")
	}
	if g := grants[0]; g.Lease.Base != 0 {
		t.Fatalf("stale prefix %+v earned a delta lease (base %d)", stale.CorpusPrefix, g.Lease.Base)
	}
	driveHeld(t, client, cache, 0)
	matchLocal(t, client, shape)
}

// Checkpoints pulled while workers acquire and report — encoded outside
// the controller lock, so this test is the one the race detector watches
// for shared state — each load cleanly and leave the campaign untouched:
// the final checkpoint, events and stats match a local RunParallel byte
// for byte.
func TestCheckpointPullsDuringLeases(t *testing.T) {
	client, _ := newTestServer(t, Config{})
	shape := testShape(96, 2, 8)
	if _, err := client.Submit(&Spec{DUT: "lite", Options: shape}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunWorker(ctx, client, WorkerOptions{
				ID: fmt.Sprintf("w%d", i), Poll: 2 * time.Millisecond, DUTs: testRegistry(),
			})
		}(i)
	}
	dir := t.TempDir()
	pulls := 0
	for {
		st, err := client.Campaign("c1")
		if err != nil {
			t.Fatalf("Campaign: %v", err)
		}
		b, err := client.CheckpointFile("c1")
		if err != nil {
			t.Fatalf("CheckpointFile: %v", err)
		}
		path := filepath.Join(dir, fmt.Sprintf("pull%d.ckpt", pulls))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := fuzz.LoadCheckpoint(path); err != nil {
			t.Fatalf("pulled checkpoint %d: %v", pulls, err)
		}
		pulls++
		if st.State == "done" {
			break
		}
	}
	cancel()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	matchLocal(t, client, shape)

	// The final checkpoint holds the local run's final state. Only the event
	// position differs: a local run cuts its last checkpoint just before
	// emitting campaign_end, a finished fleet campaign snapshots after it.
	final, err := client.CheckpointFile("c1")
	if err != nil {
		t.Fatalf("CheckpointFile: %v", err)
	}
	fleetPath := filepath.Join(dir, "final.ckpt")
	if err := os.WriteFile(fleetPath, final, 0o644); err != nil {
		t.Fatal(err)
	}
	opt := shape.Options()
	opt.Observer = obs.New()
	opt.Checkpoint = filepath.Join(dir, "local.ckpt")
	fuzz.RunParallel(fuzz.SharedAnalysisFactory(liteSoC), opt)
	fleetCp, err := fuzz.LoadCheckpoint(fleetPath)
	if err != nil {
		t.Fatalf("final fleet checkpoint: %v", err)
	}
	localCp, err := fuzz.LoadCheckpoint(opt.Checkpoint)
	if err != nil {
		t.Fatalf("local checkpoint: %v", err)
	}
	if fleetCp.EventSeq != localCp.EventSeq+1 {
		t.Errorf("final fleet checkpoint at event %d, local at %d; want one past it", fleetCp.EventSeq, localCp.EventSeq)
	}
	localCp.EventSeq = fleetCp.EventSeq
	fb, err := fleetCp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	lb, err := localCp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb, lb) {
		t.Error("final fleet checkpoint differs from the local RunParallel checkpoint")
	}
}

// zeros is an endless stream of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// Request bodies are capped: an oversize body gets 413 without being read
// past the cap, and submissions whose batches could not report within the
// cap are refused up front.
func TestRequestBodyCap(t *testing.T) {
	ct := NewController(Config{DUTs: testRegistry()})
	srv := NewServer(ct)

	counted := &countingReader{r: io.MultiReader(strings.NewReader(`{"worker":"`), zeros{})}
	req := httptest.NewRequest("POST", "/api/v1/leases/acquire", counted)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize acquire body: status %d, want 413 (%s)", rec.Code, rec.Body)
	}
	if counted.n > maxRequestBytes+1<<20 {
		t.Errorf("server read %d bytes of an oversize body, cap is %d", counted.n, maxRequestBytes)
	}

	// A legitimate body of the same endpoint is served.
	req = httptest.NewRequest("POST", "/api/v1/leases/acquire", strings.NewReader(`{"worker":"w"}`))
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("small acquire body: status %d, want 204 (%s)", rec.Code, rec.Body)
	}

	_, err := ct.Submit(&Spec{DUT: "lite", Options: testShape(8, 1, maxBatchSize+1)})
	if !errors.Is(err, errBadRequest) {
		t.Errorf("batch beyond the cap: got %v, want a bad request", err)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// The worker's prefix cache keeps at most maxHeldCorpora campaigns,
// evicting the least recently granted, and lists no empty prefixes.
func TestHeldCacheEviction(t *testing.T) {
	cache := &heldCache{}
	for _, c := range []string{"c3", "c1", "c2", "c4"} {
		cache.granted(c)
	}
	cache.granted("c3") // c1 is now the least recently granted
	cache.granted("c5")
	var got []string
	for _, e := range cache.entries {
		got = append(got, e.campaign)
	}
	if len(got) != maxHeldCorpora || strings.Contains(strings.Join(got, ","), "c1") {
		t.Fatalf("cache holds %v, want %d campaigns without c1", got, maxHeldCorpora)
	}
	if p := cache.prefixes(); len(p) != 0 {
		t.Fatalf("empty held corpora listed as prefixes: %+v", p)
	}
}
