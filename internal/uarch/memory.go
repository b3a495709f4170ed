package uarch

import "encoding/binary"

// Memory is a sparse flat byte-addressed memory with a privileged range.
// Loads from the privileged range by the (always user-mode) cores raise an
// access fault; the data is still returned to the pipeline, modelling the
// lazy-exception forwarding Meltdown-style attacks exploit (paper §7.3).
type Memory struct {
	pages     map[uint64][]byte // 4 KiB pages
	privBase  uint64
	privLimit uint64
}

const pageBytes = 4096

// NewMemory creates an empty memory with no privileged range.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64][]byte)}
}

// SetPrivRange marks [base, limit) as privileged.
func (m *Memory) SetPrivRange(base, limit uint64) {
	m.privBase, m.privLimit = base, limit
}

// Privileged reports whether an address lies in the privileged range.
func (m *Memory) Privileged(addr uint64) bool {
	return addr >= m.privBase && addr < m.privLimit
}

func (m *Memory) page(addr uint64, create bool) []byte {
	key := addr / pageBytes
	p, ok := m.pages[key]
	if !ok && create {
		p = make([]byte, pageBytes)
		m.pages[key] = p
	}
	return p
}

// LoadByte returns the byte at addr (0 for untouched memory).
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr%pageBytes]
}

// StoreByte stores one byte.
func (m *Memory) StoreByte(addr uint64, v byte) {
	m.page(addr, true)[addr%pageBytes] = v
}

// Read reads n little-endian bytes as a uint64 (n <= 8). Accesses may span
// pages; one within a page costs a single page lookup.
//
//sonar:alloc-free
func (m *Memory) Read(addr uint64, n int) uint64 {
	off := addr % pageBytes
	if off+uint64(n) > pageBytes {
		var buf [8]byte
		for i := 0; i < n; i++ {
			buf[i] = m.LoadByte(addr + uint64(i))
		}
		return binary.LittleEndian.Uint64(buf[:])
	}
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(p[off+uint64(i)])
	}
	return v
}

// Write stores the low n bytes of v little-endian at addr (n <= 8).
//
//sonar:alloc-free
func (m *Memory) Write(addr uint64, v uint64, n int) {
	off := addr % pageBytes
	if off+uint64(n) > pageBytes {
		for i := 0; i < n; i++ {
			m.StoreByte(addr+uint64(i), byte(v>>(8*i)))
		}
		return
	}
	p := m.page(addr, true)
	for i := 0; i < n; i++ {
		p[off+uint64(i)] = byte(v >> (8 * i))
	}
}

// WriteBytes copies a byte slice into memory, one page chunk at a time.
func (m *Memory) WriteBytes(addr uint64, data []byte) {
	for len(data) > 0 {
		off := addr % pageBytes
		n := copy(m.page(addr, true)[off:], data)
		addr += uint64(n)
		data = data[n:]
	}
}

// Reset drops all contents but keeps the privileged range. Allocated pages
// are zeroed in place and kept resident, so re-running a similarly shaped
// program touches no new memory.
func (m *Memory) Reset() {
	for _, p := range m.pages { //sonar:nondeterministic-ok page zeroing is order-insensitive
		clear(p)
	}
}
