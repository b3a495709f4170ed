package uarch

import (
	"math/rand"
	"reflect"
	"testing"

	"sonar/internal/hdl"
)

// pulseProbe is a request port whose every rising valid edge logs the data
// value driven with it, so a test sees which pulses fired and in what order.
type pulseProbe struct {
	valid, data *hdl.Signal
	fired       []uint64
}

func newPulseProbe() *pulseProbe {
	n := hdl.NewNetlist("t")
	pp := &pulseProbe{valid: n.Wire("p_valid", 1), data: n.Wire("p_bits", 32)}
	pp.valid.Watch(func(_ *hdl.Signal, old, new uint64, _ int64) {
		if old == 0 && new == 1 {
			pp.fired = append(pp.fired, pp.data.Value())
		}
	})
	return pp
}

// take returns and forgets the values fired since the last call.
func (pp *pulseProbe) take() []uint64 {
	f := pp.fired
	pp.fired = nil
	return f
}

// refPulser is the map-keyed scheduler the ring replaced, kept as the
// oracle: pulses per cycle in insertion order, fired when drained past.
type refPulser struct {
	pending map[int64][]uint64
	drained int64
	fired   []uint64
}

func newRefPulser() *refPulser { return &refPulser{pending: map[int64][]uint64{}, drained: -1} }

func (r *refPulser) At(cycle int64, val uint64) {
	if cycle <= r.drained {
		r.fired = append(r.fired, val)
		return
	}
	r.pending[cycle] = append(r.pending[cycle], val)
}

func (r *refPulser) Drain(cycle int64) {
	for c := r.drained + 1; c <= cycle; c++ {
		r.fired = append(r.fired, r.pending[c]...)
		delete(r.pending, c)
	}
	r.drained = cycle
}

func (r *refPulser) Reset() {
	r.pending = map[int64][]uint64{}
	r.drained = -1
}

func (r *refPulser) take() []uint64 {
	f := r.fired
	r.fired = nil
	return f
}

func TestPulserRingCases(t *testing.T) {
	pp := newPulseProbe()
	p := NewPulser()
	expect := func(what string, want []uint64, pending int) {
		t.Helper()
		if got := pp.take(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fired %v, want %v", what, got, want)
		}
		if got := p.PendingCycles(); got != pending {
			t.Errorf("%s: PendingCycles = %d, want %d", what, got, pending)
		}
	}

	// Several pulses in one cycle fire in insertion order.
	p.At(2, pp.valid, pp.data, 21)
	p.At(2, pp.valid, pp.data, 22)
	p.At(2, pp.valid, pp.data, 23)
	p.At(1, pp.valid, pp.data, 11)
	expect("scheduled", nil, 2)
	p.Drain(0)
	expect("drain 0", nil, 2)
	p.Drain(1)
	expect("drain 1", []uint64{11}, 1)
	p.Drain(2)
	expect("drain 2", []uint64{21, 22, 23}, 0)

	// At on an already drained cycle fires immediately.
	p.At(2, pp.valid, pp.data, 24)
	p.At(-5, pp.valid, pp.data, 25)
	expect("past", []uint64{24, 25}, 0)

	// Scheduling far past the ring while pulses are pending grows it and
	// keeps every pending pulse on its cycle.
	p.At(5, pp.valid, pp.data, 50)
	p.At(60, pp.valid, pp.data, 600)
	p.At(2+10*initialPulserSlots, pp.valid, pp.data, 6400)
	p.At(60, pp.valid, pp.data, 601)
	expect("grown", nil, 3)
	if len(p.ring) <= initialPulserSlots {
		t.Fatalf("ring did not grow: %d slots", len(p.ring))
	}
	p.Drain(59)
	expect("drain to 59", []uint64{50}, 2)

	// Drain jumps several cycles at once.
	p.Drain(61)
	expect("drain to 61", []uint64{600, 601}, 1)
	p.Drain(5000)
	expect("drain to 5000", []uint64{6400}, 0)

	// Reset drops what is pending and rewinds the drain clock.
	p.At(5003, pp.valid, pp.data, 1)
	p.At(5004, pp.valid, pp.data, 2)
	expect("before reset", nil, 2)
	p.Reset()
	expect("reset", nil, 0)
	p.At(0, pp.valid, pp.data, 70)
	p.At(3, pp.valid, pp.data, 73)
	expect("reuse", nil, 2)
	for c := int64(0); c <= 3; c++ {
		p.Drain(c)
	}
	expect("reuse drained", []uint64{70, 73}, 0)
}

// Property: the ring fires exactly what the map-keyed reference fires, in
// the same order, with the same pending-cycle count, across random
// schedules, drain jumps and resets.
func TestPulserMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pp := newPulseProbe()
	p := NewPulser()
	ref := newRefPulser()
	cur := int64(-1)
	for step := 0; step < 20000; step++ {
		switch k := rng.Intn(100); {
		case k < 55:
			cycle := cur + int64(rng.Intn(40)) - 3
			if rng.Intn(20) == 0 {
				cycle += int64(rng.Intn(2000))
			}
			val := uint64(step)
			p.At(cycle, pp.valid, pp.data, val)
			ref.At(cycle, val)
		case k < 98:
			cur += int64(rng.Intn(3))
			if rng.Intn(30) == 0 {
				cur += int64(rng.Intn(500))
			}
			p.Drain(cur)
			ref.Drain(cur)
		default:
			cur = -1
			p.Reset()
			ref.Reset()
		}
		if got, want := pp.take(), ref.take(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: fired %v, reference %v", step, got, want)
		}
		if got, want := p.PendingCycles(), len(ref.pending); got != want {
			t.Fatalf("step %d: PendingCycles = %d, reference %d", step, got, want)
		}
	}
}
