package monitor

import (
	"math"
	"sort"

	"sonar/internal/trace"
)

// PointSnapshot is the immutable per-point record of one testcase execution.
type PointSnapshot struct {
	// Point is the contention point this snapshot describes.
	Point *trace.Point
	// MinIntvlDistinct is the smallest observed cycle interval between
	// valid events of two distinct requests; NoInterval if fewer than two
	// distinct requests arrived.
	MinIntvlDistinct int64
	// MinIntvlSame is the smallest interval between consecutive valid
	// events of the same request; NoInterval if no request arrived twice.
	MinIntvlSame int64
	// Events is the (capped) event log inside the monitoring window.
	Events []Event
	// EventCount is the total number of events, including beyond the cap.
	EventCount int
	// Digest summarizes the full ordered event stream (request indices and
	// data values); differing digests under differing secrets indicate the
	// contention states diverged (paper §7.2).
	Digest uint64
	// VolatileContention reports simultaneous distinct-request arrival
	// (reqsIntvl of zero).
	VolatileContention bool
	// PersistentCandidate reports a same-path revisit with similar data —
	// the persistent-contention precondition (paper §6.2.2).
	PersistentCandidate bool
}

// NoInterval is the MinIntvl value when no qualifying pair was observed.
const NoInterval int64 = math.MaxInt64

// Snapshot is the full record of one instrumented execution.
type Snapshot struct {
	Points []PointSnapshot // per-point state, indexed by monitor order
}

// Snapshot captures the current collected state of all points. The result
// is freshly allocated and safe to retain; hot paths that recycle snapshots
// should use SnapshotInto instead.
func (m *Monitor) Snapshot() *Snapshot {
	s := new(Snapshot)
	m.SnapshotInto(s)
	return s
}

// SnapshotInto captures the current collected state of all points into s,
// reusing s.Points and the per-point Events buffers. After the first call on
// a given arena the capture allocates nothing, which is what keeps the
// steady-state Execute path heap-quiet. The previous contents of s are
// overwritten; callers own the aliasing (a recycled snapshot must no longer
// be read by anyone else).
//
//sonar:alloc-free
func (m *Monitor) SnapshotInto(s *Snapshot) {
	snapshotInto(s, m.states)
}

// snapshotInto captures the state of one ordered point-state list into s,
// reusing its buffers; it backs both Monitor.SnapshotInto and the per-lane
// captures of LaneBank.
//
//sonar:alloc-free
func snapshotInto(s *Snapshot, states []*pointState) {
	if cap(s.Points) < len(states) {
		s.Points = make([]PointSnapshot, len(states))
		// One contiguous event slab for the arena: source logs are capped at
		// maxEventsPerPoint, so the copy below never outgrows its buffer and
		// the arena allocates nothing after this first sizing — per-group
		// event-count jitter otherwise regrows buffers for the whole campaign.
		slab := make([]Event, len(states)*maxEventsPerPoint)
		for i := range s.Points {
			s.Points[i].Events = slab[i*maxEventsPerPoint : i*maxEventsPerPoint : (i+1)*maxEventsPerPoint]
		}
	}
	s.Points = s.Points[:len(states)]
	for i, st := range states {
		events := append(s.Points[i].Events[:0], st.events...)
		s.Points[i] = PointSnapshot{
			Point:               st.point,
			MinIntvlDistinct:    st.minIntvlDistinct,
			MinIntvlSame:        st.minIntvlSame,
			Events:              events,
			EventCount:          st.eventCount,
			Digest:              st.hash,
			VolatileContention:  st.minIntvlDistinct == 0,
			PersistentCandidate: st.samePathHit,
		}
	}
}

// Triggered returns the IDs of points where any contention was triggered:
// a volatile simultaneous arrival or a persistent same-path revisit. The
// IDs are sorted ascending regardless of the monitor's internal point
// order, so the result (and every event stream built from it) is keyed by
// ID alone.
func (s *Snapshot) Triggered() []int {
	var ids []int
	for i := range s.Points {
		p := &s.Points[i]
		if p.VolatileContention || p.PersistentCandidate {
			ids = append(ids, p.Point.ID)
		}
	}
	sort.Ints(ids)
	return ids
}

// MinIntervals returns the distinct-request reqsIntvl per point ID — the
// fuzzer's feedback signal (paper §6.2.1).
func (s *Snapshot) MinIntervals() map[int]int64 {
	m := make(map[int]int64, len(s.Points))
	for i := range s.Points {
		p := &s.Points[i]
		if p.MinIntvlDistinct != NoInterval {
			m[p.Point.ID] = p.MinIntvlDistinct
		}
	}
	return m
}

// MergeMinIntervals takes the per-point minimum distinct-request interval
// across two snapshots — the merged reqsIntvl feedback of one
// dual-execution (the same testcase run under both secrets). Both the
// fuzzer's corpus retention rule and the observability layer's per-point
// best-interval metrics consume this view.
func MergeMinIntervals(a, b *Snapshot) map[int]int64 {
	m := a.MinIntervals()
	for id, v := range b.MinIntervals() { //sonar:nondeterministic-ok min-fold is order-insensitive
		if old, ok := m[id]; !ok || v < old {
			m[id] = v
		}
	}
	return m
}

// SameIntervals returns the consecutive same-path reqsIntvl per point ID —
// the persistent-contention approach metric (paper §6.2.2). A point appears
// only if some request path was observed at least twice; triggering is
// reached when the data fields also match (PersistentCandidate).
func (s *Snapshot) SameIntervals() map[int]int64 {
	m := make(map[int]int64)
	for i := range s.Points {
		p := &s.Points[i]
		if p.MinIntvlSame == NoInterval {
			continue
		}
		v := p.MinIntvlSame
		if p.PersistentCandidate {
			v = 0 // same storage unit revisited: persistent contention
		}
		m[p.Point.ID] = v
	}
	return m
}
