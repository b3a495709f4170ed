package main

// Measurement seams. Every layer is timed from outside, at a public
// boundary of the program: a fuzz.Executor decorator around each campaign
// worker's executor, a timing http.RoundTripper on the fleet client, and a
// middleware around the fleet server's handler. With tracing off the seams
// only stamp the first iteration (the end of set-up); with tracing on they
// record spans.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sonar/internal/fuzz"
	"sonar/internal/trace"
)

// span is one timed interval of the traced run.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Campaign string `json:"campaign"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// epoch is the process clock origin; now reads the clock in nanoseconds.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// tracer keeps the spans of one traced run in memory. Every method is a
// no-op on a nil tracer (tracing off).
type tracer struct {
	campaign string
	nextID   atomic.Int64

	mu    sync.Mutex
	spans []span
}

// newID reserves a span ID before the span ends, so children can name it.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span; id 0 gives it a fresh ID.
func (t *tracer) add(id, parent int64, name string, start, end int64) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Campaign: t.campaign, StartNs: start, EndNs: end})
	t.mu.Unlock()
}

// time runs fn inside a span and returns its duration.
func (t *tracer) time(parent int64, name string, fn func()) time.Duration {
	start := now()
	fn()
	end := now()
	t.add(0, parent, name, start, end)
	return time.Duration(end - start)
}

// selfTimes returns each span name's total self time: its spans' durations
// minus the part of each interval that the span's children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		covered := int64(0)
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		cur := [2]int64{-1, -1}
		for _, iv := range ivs {
			lo, hi := max(iv[0], s.StartNs), min(iv[1], s.EndNs)
			if hi <= lo {
				continue
			}
			if lo > cur[1] {
				covered += cur[1] - cur[0]
				cur = [2]int64{lo, hi}
			} else if hi > cur[1] {
				cur[1] = hi
			}
		}
		covered += cur[1] - cur[0]
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return self
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// firstStamp records the clock reading of the first call through any seam
// sharing it: the end of a campaign's set-up.
type firstStamp struct{ ns atomic.Int64 }

func (f *firstStamp) mark(t int64) {
	if f.ns.Load() == 0 {
		f.ns.CompareAndSwap(0, t)
	}
}

// execProbe is the state the executor decorators of one campaign share.
// With tracing on, every decorated executor (one per campaign worker) keeps
// its own span and duration buffers, so tracing adds no lock to the
// workers' hot path; finish merges them once the campaign has returned.
type execProbe struct {
	tr    *tracer // nil with tracing off
	root  int64   // parent span of the worker spans
	first firstStamp
	// every is the sampling period of the testcases kept for replay.
	every   int64
	secretA uint64
	// perRound is how many executor calls one worker makes per merge
	// round: each round starts a new batch after the barrier.
	perRound int

	mu      sync.Mutex
	workers []*worker

	// Filled by finish.
	durations []time.Duration
	calls     int64
	busy      time.Duration
	barrier   time.Duration // gaps between a worker's rounds
	sample    []*fuzz.Testcase
}

// wrap returns the factory the campaign engine sees: each executor it
// builds is decorated, keeping the GroupExecutor seam when the inner
// executor has one.
func (p *execProbe) wrap(newExec func() fuzz.Executor) func() fuzz.Executor {
	return func() fuzz.Executor {
		inner := newExec()
		var w *worker
		if p.tr != nil {
			p.mu.Lock()
			w = &worker{name: fmt.Sprintf("worker/%d", len(p.workers)), id: p.tr.newID(), first: -1}
			p.workers = append(p.workers, w)
			p.mu.Unlock()
		}
		te := &timedExec{inner: inner, p: p, w: w}
		if g, ok := inner.(fuzz.GroupExecutor); ok && g.GroupWidth() > 1 {
			return &timedGroupExec{timedExec: te, group: g}
		}
		return te
	}
}

// worker is one decorated executor's buffers. Its span runs from its first
// to its last call; the span's self time is the engine's own work on that
// worker (mutation, detection, corpus feedback) plus merge-barrier waits.
type worker struct {
	name        string
	id          int64
	first, last int64
	calls       [][2]int64 // start and end of every call
	seen        int64      // testcases seen under SecretA
	sample      []*fuzz.Testcase
}

// finish merges the worker buffers once the campaign has returned.
func (p *execProbe) finish() {
	for _, w := range p.workers {
		if w.first < 0 {
			continue
		}
		p.tr.add(w.id, p.root, w.name, w.first, w.last)
		for i, c := range w.calls {
			p.tr.add(0, w.id, "fuzz.execute", c[0], c[1])
			d := time.Duration(c[1] - c[0])
			p.durations = append(p.durations, d)
			p.busy += d
			if i > 0 && i%p.perRound == 0 {
				p.barrier += time.Duration(c[0] - w.calls[i-1][1])
			}
		}
		p.calls += int64(len(w.calls))
		p.sample = append(p.sample, w.sample...)
	}
}

// record files one call in the worker's buffers.
func (w *worker) record(start, end int64) {
	if w.first < 0 {
		w.first = start
	}
	w.last = end
	w.calls = append(w.calls, [2]int64{start, end})
}

// maybeSample keeps every every-th testcase the worker sees.
func (w *worker) maybeSample(tc *fuzz.Testcase, every int64) {
	if w.seen%every == 0 {
		w.sample = append(w.sample, tc.Clone())
	}
	w.seen++
}

// timedExec decorates a behavioural (scalar) executor.
type timedExec struct {
	inner fuzz.Executor
	p     *execProbe
	w     *worker
}

func (e *timedExec) ContentionAnalysis() *trace.Analysis { return e.inner.ContentionAnalysis() }

func (e *timedExec) Execute(tc *fuzz.Testcase, secret uint64) *fuzz.Execution {
	start := now()
	e.p.first.mark(start)
	if e.w == nil {
		return e.inner.Execute(tc, secret)
	}
	ex := e.inner.Execute(tc, secret)
	e.w.record(start, now())
	if secret == e.p.secretA {
		e.w.maybeSample(tc, e.p.every)
	}
	return ex
}

// timedGroupExec decorates a lane-group executor (fuzz.LaneDUT).
type timedGroupExec struct {
	*timedExec
	group fuzz.GroupExecutor
}

func (e *timedGroupExec) GroupWidth() int { return e.group.GroupWidth() }

func (e *timedGroupExec) ExecuteGroup(tcs []*fuzz.Testcase, secretA, secretB uint64, chunk int, dst []fuzz.ExecPair) []fuzz.ExecPair {
	start := now()
	e.p.first.mark(start)
	if e.w == nil {
		return e.group.ExecuteGroup(tcs, secretA, secretB, chunk, dst)
	}
	dst = e.group.ExecuteGroup(tcs, secretA, secretB, chunk, dst)
	e.w.record(start, now())
	for _, tc := range tcs {
		e.w.maybeSample(tc, e.p.every)
	}
	return dst
}

// spanHeader carries the client-side span ID to the server middleware, so
// a handler span is the child of the round trip that caused it.
const spanHeader = "X-Perfbench-Span"

// httpProbe times the fleet's HTTP traffic on both sides of the loopback.
type httpProbe struct {
	tr        *tracer // nil with tracing off
	parent    int64
	first     firstStamp // first granted lease: the end of fleet set-up
	transport *http.Transport

	mu         sync.Mutex
	rtt        map[string][]time.Duration // client-side, by route
	server     map[string][]time.Duration // handler time, by route
	grantBytes []int
	conflicts  int // 409 answers to lease reports
}

func newHTTPProbe(tr *tracer, parent int64) *httpProbe {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16 // both workers and the monitor keep their connections
	return &httpProbe{
		tr: tr, parent: parent, transport: t,
		rtt:    make(map[string][]time.Duration),
		server: make(map[string][]time.Duration),
	}
}

// outcome refines a route by its answer: an acquire that found no work is
// "acquire.empty", so "acquire" times granted leases only.
func outcome(name string, status int) string {
	if name == "acquire" && status == http.StatusNoContent {
		return "acquire.empty"
	}
	return name
}

// route names an API request by its method and path shape.
func route(r *http.Request) string {
	path := r.URL.Path
	switch {
	case strings.HasSuffix(path, "/leases/acquire"):
		return "acquire"
	case strings.HasSuffix(path, "/renew"):
		return "renew"
	case strings.HasPrefix(path, "/api/v1/leases/") && strings.HasSuffix(path, "/result"):
		return "report"
	case strings.HasSuffix(path, "/checkpoint"):
		return "checkpoint"
	case strings.HasSuffix(path, "/result"):
		return "result"
	case r.Method == http.MethodPost && strings.HasSuffix(path, "/campaigns"):
		return "submit"
	default:
		return "status"
	}
}

// countingBody counts the bytes a response body delivers.
type countingBody struct {
	io.ReadCloser
	n    int
	done func(n int)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	return n, err
}

func (b *countingBody) Close() error {
	if b.done != nil {
		b.done(b.n)
		b.done = nil
	}
	return b.ReadCloser.Close()
}

// RoundTrip implements http.RoundTripper: the client-side round-trip time of
// every request, and the size of every granted lease.
func (p *httpProbe) RoundTrip(r *http.Request) (*http.Response, error) {
	name := route(r)
	id := p.tr.newID()
	if id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	start := now()
	resp, err := p.transport.RoundTrip(r)
	if err != nil {
		return resp, err
	}
	name = outcome(name, resp.StatusCode)
	grant := name == "acquire" && resp.StatusCode == http.StatusOK
	if grant {
		p.first.mark(start)
	}
	if name == "report" && resp.StatusCode == http.StatusConflict {
		p.mu.Lock()
		p.conflicts++
		p.mu.Unlock()
	}
	// The round trip ends when the caller has read the body.
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int) {
		end := now()
		p.tr.add(id, p.parent, "fleet.rtt."+name, start, end)
		p.mu.Lock()
		p.rtt[name] = append(p.rtt[name], time.Duration(end-start))
		if grant {
			p.grantBytes = append(p.grantBytes, n)
		}
		p.mu.Unlock()
	}}
	return resp, nil
}

// handler wraps the fleet server: the handler time of every request,
// including any wait for the controller lock.
func (p *httpProbe) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := now()
		next.ServeHTTP(sw, r)
		end := now()
		name := outcome(route(r), sw.status)
		p.tr.add(0, parent, "fleet.server."+name, start, end)
		p.mu.Lock()
		p.server[name] = append(p.server[name], time.Duration(end-start))
		p.mu.Unlock()
	})
}

// statusWriter remembers the status code a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
