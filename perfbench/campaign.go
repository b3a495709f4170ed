package main

// Workloads and the campaign runs that measure them. One campaign runs per
// process (see main.go), so set-up time and peak heap are those of a fresh
// process, as a user of cmd/sonar or cmd/sonar-server would see them.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"sonar/internal/boom"
	"sonar/internal/detect"
	"sonar/internal/fleet"
	"sonar/internal/fuzz"
	"sonar/internal/hdl"
	"sonar/internal/hdl/gen"
	"sonar/internal/obs"
	"sonar/internal/uarch"
)

// workers is the campaign parallelism of every workload: the core count of
// the reference machine (2). No workload runs more goroutine-level
// parallelism than that.
const workers = 2

// batch is the engine's default per-worker batch: iterations per worker
// between two merge barriers.
const batch = 32

// keepFindings is cmd/sonar's cap on retained findings.
const keepFindings = 32

// The netlist workload: the arbiter-dense generated design of the
// CampaignNetlistLanes* Go benchmarks, 1024 cycles per execution with
// inputs held for 8 cycles.
var netCfg = gen.Config{Seed: 11, Nodes: 384, Regs: 16, Arbiters: 32, MaxWidth: 4, PrimShare: -1}

const (
	netCycles = 1024
	netHold   = 8
	// netPrefix is the budget of the Lanes=1 versus Lanes=64 output check.
	netPrefix = 128
)

// workload is one named campaign shape.
type workload struct {
	name  string
	iters int // iteration budget of one campaign
	// seeds is how many campaign seeds one run derives from its --seed.
	// Each adds a differently evolving campaign to the run's average.
	seeds int
	// soc elaborates the behavioural DUT; nil for the netlist workload.
	soc   func() *uarch.SoC
	lanes int  // fuzz.Options.Lanes
	fleet bool // served through an in-process fleet controller
}

// The structural boom (boom.New, 1500 iterations) is not a workload: on a
// shared 2-vCPU host its throughput spread across runs reached 0.25, the
// largest bound a metric may have (see README.md).
var workloads = []workload{
	{name: "boom-lite", iters: 24000, seeds: 4, soc: boom.NewLite},
	{name: "netlist-lanes64", iters: 6000, seeds: 4, lanes: hdl.Lanes},
	{name: "boom-lite-fleet", iters: 6000, seeds: 3, soc: boom.NewLite, fleet: true},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// campaignSeed derives the k-th campaign seed of a run seed.
func campaignSeed(runSeed int64, k int) int64 { return runSeed*1000 + int64(k) + 1 }

// options is the campaign shape of w at seed.
func (w workload) options(seed int64) fuzz.Options {
	opt := fuzz.SonarOptions(w.iters)
	opt.Seed = seed
	opt.Workers = workers
	opt.Lanes = w.lanes
	// Retain the first findings only, as cmd/sonar does: a campaign's
	// memory then does not grow with its finding count.
	opt.KeepFindings = keepFindings
	return opt
}

// factory builds the workload's executor factory. Like the engines
// themselves, it shares one contention analysis across all executors.
func (w workload) factory() (func() fuzz.Executor, error) {
	if w.soc == nil {
		return fuzz.LaneDUTFactory(func() (*hdl.Netlist, error) { return gen.New(netCfg) }, netCycles, netHold)
	}
	f := fuzz.SharedAnalysisFactory(w.soc)
	return func() fuzz.Executor { return f() }, nil
}

// result is what one campaign process reports to the parent process.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`

	SetupS     float64 `json:"setup_s"`
	SteadyS    float64 `json:"steady_s"`
	Iters      int     `json:"iters"`
	Cycles     int64   `json:"cycles"`
	PeakHeapMB float64 `json:"peak_heap_mb"`
	// AllocsPerIter is heap allocations per iteration over the whole
	// campaign, set-up included.
	AllocsPerIter float64 `json:"allocs_per_iter"`
	Digest        string  `json:"digest"` // sha256 of the canonical Stats wire

	Points       int `json:"points"`
	TimingDiffs  int `json:"timing_diffs"`
	Families     int `json:"families"`
	FirstFinding int `json:"first_finding"` // budget+1 without a finding

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`

	Layers map[string]float64 `json:"layers,omitempty"` // traced runs only
}

// check counts one output check, recording its failure.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// fail records a failed operation that has no separate attempt count.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// tally is an event sink that keeps what the benchmark reads from the
// campaign event stream.
type tally struct {
	firstFinding int
	workerFailed int
}

func (t *tally) Emit(e obs.Event) {
	switch e.Kind {
	case obs.FindingDetected:
		if t.firstFinding == 0 {
			t.firstFinding = e.Iteration
		}
	case obs.WorkerFailed:
		t.workerFailed++
	}
}

func (t *tally) Close() error { return nil }

// heapSampler samples the Go heap in use until stopped and keeps the peak.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.peak = max(h.peak, readHeap())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(max(h.peak, readHeap())) / 1e6
}

// digest is the sha256 of a canonical Stats wire encoding.
func digest(sw *fuzz.StatsWire) string {
	b, err := json.Marshal(sw)
	if err != nil {
		return "marshal: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// fillCounts sets the deterministic campaign counts from a Stats wire.
func (r *result) fillCounts(w workload, sw *fuzz.StatsWire, firstFinding int) {
	r.Iters = len(sw.PerIteration)
	r.Cycles = sw.ExecutedCycles
	r.Digest = digest(sw)
	r.Points = len(sw.Triggered)
	if n := len(sw.PerIteration); n > 0 {
		r.TimingDiffs = sw.PerIteration[n-1].CumTimingDiffs
	}
	r.Families = len(detect.Classify(sw.Findings))
	r.FirstFinding = w.iters + 1
	if firstFinding > 0 {
		r.FirstFinding = firstFinding
	}
	r.check(r.Iters == w.iters, "campaign incomplete: %d of %d iterations", r.Iters, w.iters)
}

// localRun is one in-process campaign and what the seams saw of it.
type localRun struct {
	stats   *fuzz.Stats
	tally   *tally
	observe *obs.Observer
	probe   *execProbe
	start   int64 // clock at the start of set-up
	end     int64 // clock when the engine returned
}

func (l *localRun) setup() time.Duration  { return time.Duration(l.probe.first.ns.Load() - l.start) }
func (l *localRun) steady() time.Duration { return time.Duration(l.end - l.probe.first.ns.Load()) }

// runLocal runs one campaign of w through fuzz.RunParallelExec. probe may
// carry a tracer; ckpt, when set, is where the engine saves its final
// checkpoint.
func runLocal(w workload, seed int64, probe *execProbe, ckpt string) (*localRun, error) {
	opt := w.options(seed)
	l := &localRun{tally: &tally{}, probe: probe}
	l.observe = obs.New(l.tally)
	opt.Observer = l.observe
	if ckpt != "" {
		opt.Checkpoint, opt.CheckpointEvery = ckpt, w.iters
	}
	l.start = now()
	f, err := w.factory()
	if err != nil {
		return nil, err
	}
	l.stats = fuzz.RunParallelExec(probe.wrap(f), opt)
	l.end = now()
	return l, nil
}

// fleetDUT is the registry name the fleet workload serves boom-lite under.
const fleetDUT = "boom-lite"

// fleetRun is one campaign served through the fleet service.
type fleetRun struct {
	stats  *fuzz.StatsWire
	events []byte
	probe  *httpProbe
	start  int64
	end    int64
	// workerErrs are RunWorker failures.
	workerErrs []error
}

func (f *fleetRun) setup() time.Duration  { return time.Duration(f.probe.first.ns.Load() - f.start) }
func (f *fleetRun) steady() time.Duration { return time.Duration(f.end - f.probe.first.ns.Load()) }

// runFleet serves one campaign of shape through an in-process controller
// on a loopback HTTP server, executed by two fleet.RunWorker loops. A
// monitor pulls one checkpoint per merge round, as an operator keeping a
// resumable copy would.
func runFleet(shape fuzz.Shape, probe *httpProbe) (*fleetRun, error) {
	registry := map[string]func() *uarch.SoC{fleetDUT: boom.NewLite}
	fr := &fleetRun{probe: probe}
	fr.start = now()
	ct := fleet.NewController(fleet.Config{DUTs: registry})
	ts := httptest.NewServer(probe.handler(fleet.NewServer(ct)))
	defer ts.Close()
	defer probe.transport.CloseIdleConnections()
	client := fleet.NewClient(ts.URL)
	client.HTTPClient = &http.Client{Transport: probe}

	st, err := client.Submit(&fleet.Spec{DUT: fleetDUT, Options: shape})
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	fr.workerErrs = make([]error, shape.Workers)
	for i := range fr.workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, fr.workerErrs[i] = fleet.RunWorker(ctx, client, fleet.WorkerOptions{
				ID: fmt.Sprintf("w%d", i), Poll: 2 * time.Millisecond, DUTs: registry,
			})
		}(i)
	}
	err = awaitDone(client, st.ID)
	fr.end = now()
	cancel()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	res, err := client.Result(st.ID)
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	if res.Stats == nil {
		return nil, fmt.Errorf("result of %s carries no stats", st.ID)
	}
	fr.stats = res.Stats
	if fr.events, err = client.Events(st.ID); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	return fr, nil
}

// awaitDone polls the campaign until it is done, pulling a checkpoint
// after every merge round.
func awaitDone(client *fleet.Client, id string) error {
	deadline := time.Now().Add(150 * time.Second)
	round := 0
	for {
		st, err := client.Campaign(id)
		if err != nil {
			return fmt.Errorf("status: %w", err)
		}
		if st.State == "done" {
			return nil
		}
		if st.Round > round {
			round = st.Round
			if _, err := client.CheckpointFile(id); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("campaign %s not done after 150s (round %d)", id, round)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// eventTally replays a JSONL event stream into a tally.
func eventTally(stream []byte) (*tally, error) {
	t := &tally{}
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, err
		}
		t.Emit(e)
	}
	return t, sc.Err()
}

// shapeOf is the fleet campaign shape of w at seed: the same shape the
// local engine runs, with its effective batch size spelled out.
func shapeOf(w workload, seed int64) fuzz.Shape {
	opt := w.options(seed)
	return fuzz.Shape{
		Iterations: opt.Iterations, Seed: opt.Seed,
		Retention: opt.Retention, Selection: opt.Selection,
		DirectedMutation: opt.DirectedMutation,
		SecretA:          opt.SecretA, SecretB: opt.SecretB,
		KeepFindings: opt.KeepFindings,
		Workers:      workers, BatchSize: batch,
	}
}

// measure runs one untraced campaign of w at seed and checks its output.
// verify adds the checks against a second campaign: the fleet result
// against a local campaign of the same shape, the Lanes=64 netlist
// campaign against Lanes=1. Repeats of a seed leave them out, since they
// are compared with the first run of the seed instead.
func measure(w workload, seed int64, verify bool) (*result, error) {
	r := &result{Workload: w.name, Seed: seed}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	heap := startHeapSampler()
	// ended closes the measured window when the campaign has returned.
	ended := func() {
		r.PeakHeapMB = heap.peakMB()
		runtime.ReadMemStats(&ms)
		r.AllocsPerIter = float64(ms.Mallocs-mallocs) / float64(w.iters)
	}
	var (
		sw            fuzz.StatsWire
		t             *tally
		setup, steady time.Duration
	)
	if w.fleet {
		fr, err := runFleet(shapeOf(w, seed), newHTTPProbe(nil, 0))
		if err != nil {
			return nil, err
		}
		ended()
		sw, setup, steady = *fr.stats, fr.setup(), fr.steady()
		if t, err = eventTally(fr.events); err != nil {
			return nil, err
		}
		for i, err := range fr.workerErrs {
			r.check(err == nil, "worker %d: %v", i, err)
		}
		r.check(fr.probe.conflicts == 0, "%d lease reports answered 409", fr.probe.conflicts)
	} else {
		l, err := runLocal(w, seed, &execProbe{}, "")
		if err != nil {
			return nil, err
		}
		ended()
		sw, t, setup, steady = l.stats.Wire(), l.tally, l.setup(), l.steady()
	}
	r.SetupS, r.SteadyS = setup.Seconds(), steady.Seconds()
	r.check(t.workerFailed == 0, "%d worker_failed events", t.workerFailed)
	switch {
	case verify && w.fleet:
		local := fuzz.RunParallel(fuzz.SharedAnalysisFactory(w.soc), shapeOf(w, seed).Options()).Wire()
		r.check(digest(&local) == digest(&sw), "fleet result differs from local RunParallel of the same shape")
	case verify && w.lanes > 1:
		r.check(lanePrefixMatches(w, seed), "Lanes=1 and Lanes=%d campaigns differ on a %d-iteration prefix", w.lanes, netPrefix)
	}
	r.fillCounts(w, &sw, t.firstFinding)
	return r, nil
}

// lanePrefixMatches runs a short campaign of w at Lanes=1 and at w.lanes
// and compares their outputs byte for byte.
func lanePrefixMatches(w workload, seed int64) bool {
	var digests [2]string
	for i, lanes := range []int{1, w.lanes} {
		opt := w.options(seed)
		opt.Iterations, opt.Lanes = netPrefix, lanes
		f, err := w.factory()
		if err != nil {
			return false
		}
		sw := fuzz.RunParallelExec(f, opt).Wire()
		digests[i] = digest(&sw)
	}
	return digests[0] == digests[1]
}
