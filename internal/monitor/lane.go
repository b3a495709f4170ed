// This file holds the lane-indexed monitor: the reqsIntvl instrumentation
// of Monitor, banked per lane for the bit-parallel evaluator
// (sim.LaneSimulator). One LaneBank carries hdl.Lanes independent copies of
// every point's state, so 64 testcases can be monitored through a single
// lane-parallel simulation and demuxed into ordinary per-testcase snapshots.

package monitor

import (
	"sonar/internal/hdl"
	"sonar/internal/trace"
)

// LaneHost is the evaluation backend a LaneBank attaches to: it must deliver
// per-lane value-change hooks and expose the bit-sliced plane the monitored
// values live in. sim.LaneSimulator implements it.
type LaneHost interface {
	// WatchLanes registers a hook fired on per-lane value changes of s.
	WatchLanes(s *hdl.Signal, fn hdl.LaneWatchFunc)
	// Plane returns the bit-sliced value plane being evaluated.
	Plane() *hdl.LanePlane
}

// LaneBank instruments a set of contention points across all lanes of a
// lane-parallel simulation. It is the lane analog of Monitor: the same
// incremental validity-conjunction tracking and reqsIntvl statistics,
// maintained independently per (point, lane). The monitoring window is
// per-lane, since each lane is an independent testcase with its own
// secret-dependent flight window.
type LaneBank struct {
	cfg   Config
	plane *hdl.LanePlane
	// states[lane][pi] is point pi's instrumentation state in that lane;
	// the per-lane slice is ordered exactly like Monitor.states, so lane
	// snapshots are directly comparable with scalar ones.
	states [hdl.Lanes][]*pointState
	window [hdl.Lanes]bool
	// statements counts inserted monitoring logic once, not per lane: in
	// hardware terms the lanes share one instrumentation harness.
	statements int
}

// NewLaneBank attaches lane instrumentation for every monitorable point in
// the analysis to the host's lane watch hooks. The analysis must be over the
// host's netlist.
func NewLaneBank(a *trace.Analysis, cfg Config, host LaneHost) *LaneBank {
	if cfg.SimilarityMask == 0 {
		cfg.SimilarityMask = ^uint64(0)
	}
	b := &LaneBank{cfg: cfg, plane: host.Plane()}
	points := cfg.points(a)
	for lane := 0; lane < hdl.Lanes; lane++ {
		b.states[lane] = newPointStates(points)
	}
	for pi, p := range points {
		for ri := range p.Requests {
			req := &p.Requests[ri]
			if !req.HasValid() {
				continue
			}
			pi, ri := pi, ri
			hook := func(_ *hdl.Signal, lane int, old, new uint64, cycle int64) {
				b.onValidDelta(pi, ri, lane, old, new, cycle)
			}
			for _, v := range req.Valids {
				host.WatchLanes(v, hook)
				b.statements++
			}
		}
		b.statements += 2 + len(p.Requests)
	}
	for lane := 0; lane < hdl.Lanes; lane++ {
		for _, st := range b.states[lane] {
			b.recount(st, lane)
		}
	}
	return b
}

// recount re-derives one lane's per-request true-valid counts from the lane
// plane, the lane analog of pointState.recount.
func (b *LaneBank) recount(st *pointState, lane int) {
	for ri := range st.point.Requests {
		req := &st.point.Requests[ri]
		if !req.HasValid() {
			continue
		}
		cnt := int32(0)
		for _, v := range req.Valids {
			if b.plane.NonzeroMask(v)>>uint(lane)&1 != 0 {
				cnt++
			}
		}
		st.trueCnt[ri] = cnt
	}
}

// onValidDelta folds one lane's valid-signal change into that lane's point
// state, recording an event on a completed conjunction inside the lane's
// window. The data field is gathered from the lane plane at hook time,
// mirroring the scalar monitor's read of Signal.Value.
//
//sonar:alloc-free
func (b *LaneBank) onValidDelta(pi, ri, lane int, old, new uint64, cycle int64) {
	st := b.states[lane][pi]
	if !st.applyValidDelta(ri, old, new) {
		return
	}
	if !b.window[lane] {
		return
	}
	st.record(&b.cfg, ri, cycle, b.plane.Get(st.point.Requests[ri].Data, lane))
}

// NumPoints returns the number of instrumented contention points (per lane).
func (b *LaneBank) NumPoints() int { return len(b.states[0]) }

// Statements returns the approximate number of inserted monitoring
// statements; lanes share one harness, so this matches the scalar Monitor.
func (b *LaneBank) Statements() int { return b.statements }

// SetWindow opens or closes one lane's monitoring window.
func (b *LaneBank) SetWindow(lane int, open bool) { b.window[lane] = open }

// SetWindowAll opens or closes every lane's monitoring window.
func (b *LaneBank) SetWindowAll(open bool) {
	for lane := range b.window {
		b.window[lane] = open
	}
}

// WindowOpen reports whether the given lane's window is open.
func (b *LaneBank) WindowOpen(lane int) bool { return b.window[lane] }

// Reset clears all collected state in every lane and re-anchors the
// true-valid counts from the lane plane, keeping hooks attached. Call it
// between lane-batch executions.
func (b *LaneBank) Reset() {
	for lane := range b.states {
		b.window[lane] = false
		for _, st := range b.states[lane] {
			st.reset()
			b.recount(st, lane)
		}
	}
}

// SnapshotLane captures one lane's collected state as a freshly allocated
// snapshot, directly comparable with a scalar Monitor.Snapshot of the same
// testcase.
func (b *LaneBank) SnapshotLane(lane int) *Snapshot {
	s := new(Snapshot)
	b.SnapshotLaneInto(lane, s)
	return s
}

// SnapshotLaneInto captures one lane's collected state into s, reusing its
// buffers (see Monitor.SnapshotInto for the aliasing contract).
//
//sonar:alloc-free
func (b *LaneBank) SnapshotLaneInto(lane int, s *Snapshot) {
	snapshotInto(s, b.states[lane])
}
