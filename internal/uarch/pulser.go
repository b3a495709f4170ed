package uarch

import "sonar/internal/hdl"

// pulse is one scheduled request-port activation: data is driven, then the
// valid signal is raised and lowered, producing a rising edge at exactly the
// scheduled cycle.
type pulse struct {
	valid *hdl.Signal
	data  *hdl.Signal // may be nil
	val   uint64
}

// Pulser schedules netlist request pulses for future cycles. The behavioural
// models compute multi-cycle transactions (cache misses, bus transfers)
// eagerly, but the monitor must observe each request at the cycle it
// actually arrives at its contention point; the Pulser bridges the two by
// replaying scheduled pulses when the simulation reaches their cycle.
type Pulser struct {
	// ring holds the pulses of cycles (drained, drained+len(ring)]: cycle c
	// lives in slot c&mask, in insertion order. Its length is a power of
	// two, doubled by At when a pulse lands past the window. Drained slots
	// keep their capacity, so steady-state scheduling allocates nothing
	// once the schedule shape has been seen.
	ring [][]pulse
	mask int64
	// busy counts the non-empty slots.
	busy int
	// drained is the most recent cycle Drain ran for; pulses scheduled at
	// or before it fire immediately (the core is mid-cycle).
	drained int64
}

// initialPulserSlots is the ring's starting length; a transaction that
// schedules further ahead grows it.
const initialPulserSlots = 64

// NewPulser creates an empty scheduler.
func NewPulser() *Pulser {
	return &Pulser{
		ring:    make([][]pulse, initialPulserSlots),
		mask:    initialPulserSlots - 1,
		drained: -1,
	}
}

// At schedules a request pulse (valid rising edge, with data driven first)
// for the given cycle. A pulse scheduled for the current or an already
// drained cycle fires immediately.
func (p *Pulser) At(cycle int64, valid, data *hdl.Signal, val uint64) {
	if cycle <= p.drained {
		fire(pulse{valid: valid, data: data, val: val})
		return
	}
	if cycle-p.drained > int64(len(p.ring)) {
		p.grow(cycle)
	}
	slot := &p.ring[cycle&p.mask]
	if len(*slot) == 0 {
		p.busy++
	}
	*slot = append(*slot, pulse{valid: valid, data: data, val: val})
}

// grow doubles the ring until it covers cycle, moving every slot to its
// position under the wider mask.
func (p *Pulser) grow(cycle int64) {
	n := int64(len(p.ring))
	for cycle-p.drained > n {
		n *= 2
	}
	ring := make([][]pulse, n)
	for c := p.drained + 1; c <= p.drained+int64(len(p.ring)); c++ {
		ring[c&(n-1)] = p.ring[c&p.mask]
	}
	p.ring, p.mask = ring, n-1
}

// Drain fires all pulses scheduled for cycles up to and including the given
// cycle. The runner calls it once per cycle before stepping the cores.
// Firing a pulse never schedules another one (watch hooks do not call back
// into the Pulser), so emptying each slot after firing it is safe.
//
//sonar:alloc-free
func (p *Pulser) Drain(cycle int64) {
	for c := p.drained + 1; c <= cycle && p.busy > 0; c++ {
		slot := &p.ring[c&p.mask]
		if len(*slot) == 0 {
			continue
		}
		for _, pl := range *slot {
			fire(pl)
		}
		*slot = (*slot)[:0]
		p.busy--
	}
	p.drained = cycle
}

func fire(pl pulse) {
	if pl.data != nil {
		pl.data.Set(pl.val)
	}
	pl.valid.Set(1)
	pl.valid.Set(0)
}

// Reset drops all scheduled pulses and rewinds the drain clock. The ring
// and its slots are kept for reuse.
func (p *Pulser) Reset() {
	for i := range p.ring {
		p.ring[i] = p.ring[i][:0]
	}
	p.busy = 0
	p.drained = -1
}

// PendingCycles returns the number of future cycles with scheduled pulses.
func (p *Pulser) PendingCycles() int { return p.busy }
