// Package monitor implements Sonar's runtime instrumentation: collection of
// contention-critical microarchitectural states at monitorable contention
// points (paper §5.1 and §6.1).
//
// For every contention point that survives the §5.2 risk filter, the monitor
// watches each request's validity conjunction. On a rising edge inside the
// monitoring window it records a request event and updates the two
// reqsIntvl statistics the fuzzer feeds on:
//
//   - the minimum cycle interval between valid events of two *distinct*
//     requests (0 means simultaneous arrival — a volatile contention);
//   - the minimum interval between two *consecutive* valid events of the
//     same request path (a persistent-contention precondition when the data
//     fields map to the same storage unit).
//
// The monitoring window corresponds to the clock period during which
// secret-dependent instructions are in flight (first one entering the ROB to
// last one committing); only events inside it can belong to secret-dependent
// contention (§6.1).
package monitor

import (
	"math"

	"sonar/internal/hdl"
	"sonar/internal/trace"
)

// maxEventsPerPoint caps the per-point event log so long runs stay bounded;
// the full event stream still contributes to the state digest hash.
const maxEventsPerPoint = 64

// Event is one valid-request arrival at a contention point.
type Event struct {
	// Cycle is the absolute cycle of the rising valid edge.
	Cycle int64
	// Req is the request index within the point (select-priority order).
	Req int
	// Data is the request data field value at arrival.
	Data uint64
}

// pointState is the mutable per-point instrumentation state.
type pointState struct {
	point *trace.Point
	// constPeer marks a point with at least one constantly-valid request
	// (no validity indication): any valid arrival coincides with it, so the
	// distinct-request interval is 0 the moment any request fires. This is
	// the paper's §8.3.2 observation ① — contentions dominated by a single
	// valid signal trigger at the outset of testing.
	constPeer bool
	// trueCnt counts the currently-true valid signals per request; the
	// conjunction holds exactly when trueCnt[ri] == need[ri]. Watch hooks
	// maintain the count incrementally from old/new transitions, so a value
	// change costs O(1) instead of re-reading every valid in the conjunction.
	trueCnt []int32
	// need is the conjunction size per request (0 for requests without
	// validity indication).
	need []int32
	// lastCycle is the last valid-arrival cycle per request (-1 = never).
	lastCycle []int64
	// lastData is the data value at the last arrival per request.
	lastData []uint64
	// lastAnyCycle/lastAnyReq track the most recent arrival of any request.
	lastAnyCycle int64
	lastAnyReq   int

	minIntvlDistinct int64
	minIntvlSame     int64
	events           []Event
	eventCount       int
	hash             uint64
	samePathHit      bool // same request twice with similar data
}

// Config tunes the monitor.
type Config struct {
	// SimilarityMask is ANDed over data fields when deciding whether two
	// consecutive same-path requests target the same storage unit (e.g. a
	// cacheline mask). Zero means exact match.
	SimilarityMask uint64
	// IgnoreFilter instruments every traced point, including the ones the
	// §5.2 risk filter would drop — the no-filter ablation. Points without
	// any valid-carrying request still never produce events (there is
	// nothing to watch), but their monitors are carried.
	IgnoreFilter bool
}

// points returns the point list a monitor under this config instruments.
func (cfg *Config) points(a *trace.Analysis) []*trace.Point {
	if cfg.IgnoreFilter {
		return a.Points
	}
	return a.Monitored()
}

// Monitor instruments a set of contention points over a netlist.
type Monitor struct {
	net    *hdl.Netlist
	cfg    Config
	states []*pointState
	window bool
	// statements approximates the amount of monitoring logic inserted, the
	// paper's "#New verilog" column in Table 2.
	statements int
}

// New attaches instrumentation for every monitorable point in the analysis.
// Watch hooks are installed on the request validity signals; they are cheap
// when values do not change.
func New(a *trace.Analysis, cfg Config) *Monitor {
	if cfg.SimilarityMask == 0 {
		cfg.SimilarityMask = ^uint64(0)
	}
	m := &Monitor{net: a.Netlist, cfg: cfg}
	points := cfg.points(a)
	m.states = newPointStates(points)
	for pi, p := range points {
		st := m.states[pi]
		for ri := range p.Requests {
			req := &p.Requests[ri]
			if !req.HasValid() {
				continue
			}
			ri := ri
			hook := func(_ *hdl.Signal, old, new uint64, cycle int64) {
				m.onValidDelta(st, ri, old, new, cycle)
			}
			for _, v := range req.Valids {
				v.Watch(hook)
				m.statements++ // one sampling statement per watched signal
			}
		}
		st.recount()
		// Interval registers and comparators per point: the fixed part of
		// the inserted monitoring logic.
		m.statements += 2 + len(p.Requests)
	}
	return m
}

// newPointStates builds the instrumentation states for an ordered point
// list, reset and ready for hooks (the true-valid recount is the caller's
// job: scalar and lane monitors read values from different planes). All
// per-point bookkeeping — the states themselves, the per-request counters,
// and the capped event logs — is carved from a handful of contiguous slabs,
// so construction costs O(1) allocations instead of O(points): a LaneBank
// builds hdl.Lanes independent copies of every state, and per-point
// allocation there dominated whole-campaign allocation counts. record never
// outgrows its event slice (maxEventsPerPoint cap), so the slab also keeps
// the monitoring hot path allocation-free from the first execution.
func newPointStates(points []*trace.Point) []*pointState {
	reqs := 0
	for _, p := range points {
		reqs += len(p.Requests)
	}
	var (
		structs = make([]pointState, len(points))
		states  = make([]*pointState, len(points))
		i32     = make([]int32, 2*reqs)
		cycles  = make([]int64, reqs)
		data    = make([]uint64, reqs)
		events  = make([]Event, len(points)*maxEventsPerPoint)
	)
	off := 0
	for i, p := range points {
		n := len(p.Requests)
		st := &structs[i]
		st.point = p
		st.trueCnt = i32[off : off+n : off+n]
		st.need = i32[reqs+off : reqs+off+n : reqs+off+n]
		st.lastCycle = cycles[off : off+n : off+n]
		st.lastData = data[off : off+n : off+n]
		st.events = events[i*maxEventsPerPoint : i*maxEventsPerPoint : (i+1)*maxEventsPerPoint]
		for ri := range p.Requests {
			req := &p.Requests[ri]
			if !req.HasValid() && !req.Data.IsConst() {
				st.constPeer = true
			}
			if req.HasValid() {
				st.need[ri] = int32(len(req.Valids))
			}
		}
		st.reset()
		states[i] = st
		off += n
	}
	return states
}

// recount re-derives the per-request true-valid counts from the current
// signal values, re-anchoring the incremental bookkeeping. Called once per
// Reset; steady-state updates flow through onValidDelta.
func (st *pointState) recount() {
	for ri := range st.point.Requests {
		req := &st.point.Requests[ri]
		if !req.HasValid() {
			continue
		}
		cnt := int32(0)
		for _, v := range req.Valids {
			if v.Bool() {
				cnt++
			}
		}
		st.trueCnt[ri] = cnt
	}
}

func (st *pointState) reset() {
	for i := range st.lastCycle {
		st.lastCycle[i] = -1
		st.lastData[i] = 0
	}
	st.lastAnyCycle = -1
	st.lastAnyReq = -1
	st.minIntvlDistinct = math.MaxInt64
	st.minIntvlSame = math.MaxInt64
	st.events = st.events[:0]
	st.eventCount = 0
	st.hash = 1469598103934665603 // FNV-1a offset basis
	st.samePathHit = false
}

// NumPoints returns the number of instrumented contention points.
func (m *Monitor) NumPoints() int { return len(m.states) }

// Statements returns the approximate number of inserted monitoring
// statements (Table 2's generated-code proxy).
func (m *Monitor) Statements() int { return m.statements }

// SetWindow opens or closes the monitoring window. Events arriving while
// the window is closed are ignored (paper §6.1).
func (m *Monitor) SetWindow(open bool) { m.window = open }

// WindowOpen reports whether the monitoring window is currently open.
func (m *Monitor) WindowOpen() bool { return m.window }

// Reset clears all collected state, keeping the instrumentation attached.
// Call it between testcase executions.
func (m *Monitor) Reset() {
	m.window = false
	for _, st := range m.states {
		st.reset()
		st.recount()
	}
}

// onValidDelta folds one valid-signal value change into the request's
// true-valid count, recording an event on a completed conjunction inside the
// window.
func (m *Monitor) onValidDelta(st *pointState, ri int, old, new uint64, cycle int64) {
	if !st.applyValidDelta(ri, old, new) {
		return
	}
	if !m.window {
		return
	}
	st.record(&m.cfg, ri, cycle, st.point.Requests[ri].Data.Value())
}

// applyValidDelta folds one valid-signal value change into the request's
// true-valid count and reports whether the validity conjunction just
// completed. The conjunction rises exactly when the count reaches the
// conjunction size via an increment: a nonzero→nonzero change leaves the
// truth (and the count) untouched, so this reproduces re-evaluating the full
// conjunction at O(1) cost. Both the scalar Monitor and the LaneBank fold
// their deltas through here.
func (st *pointState) applyValidDelta(ri int, old, new uint64) bool {
	wasTrue, isTrue := old != 0, new != 0
	if wasTrue == isTrue {
		return false // value changed but truth did not
	}
	if !isTrue {
		st.trueCnt[ri]--
		return false
	}
	st.trueCnt[ri]++
	return st.trueCnt[ri] == st.need[ri]
}

// record folds one in-window valid arrival of request ri with the given
// data-field value into the point's reqsIntvl statistics and event log. The
// event append stays within the log's preallocated cap (maxEventsPerPoint).
//
//sonar:alloc-free
func (st *pointState) record(cfg *Config, ri int, cycle int64, data uint64) {
	// A constantly-valid co-request arrives every cycle: any event is a
	// simultaneous distinct-request arrival.
	if st.constPeer {
		st.minIntvlDistinct = 0
	}
	// Distinct-request interval: against the most recent arrival of any
	// other request.
	if st.lastAnyCycle >= 0 && st.lastAnyReq != ri {
		if d := cycle - st.lastAnyCycle; d < st.minIntvlDistinct {
			st.minIntvlDistinct = d
		}
	}
	// Same-cycle arrivals of two distinct requests: the other request may
	// have been recorded this very cycle.
	for rj := range st.lastCycle {
		if rj != ri && st.lastCycle[rj] == cycle {
			st.minIntvlDistinct = 0
		}
	}
	// Same-path interval and data similarity.
	if st.lastCycle[ri] >= 0 {
		if d := cycle - st.lastCycle[ri]; d < st.minIntvlSame {
			st.minIntvlSame = d
		}
		if data&cfg.SimilarityMask == st.lastData[ri]&cfg.SimilarityMask {
			st.samePathHit = true
		}
	}
	st.lastCycle[ri] = cycle
	st.lastData[ri] = data
	st.lastAnyCycle = cycle
	st.lastAnyReq = ri

	if len(st.events) < maxEventsPerPoint {
		st.events = append(st.events, Event{Cycle: cycle, Req: ri, Data: data})
	}
	st.eventCount++
	// FNV-1a over (req, data); cycle is folded in relative form by the
	// snapshot, so identical behaviour at a different start cycle hashes
	// identically there, while the running hash captures order and values.
	st.hash = fnv1a(st.hash, uint64(ri))
	st.hash = fnv1a(st.hash, data)
}

func fnv1a(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}
