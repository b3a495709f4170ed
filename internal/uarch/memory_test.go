package uarch

import (
	"math/rand"
	"testing"
)

// refMemory is a byte-at-a-time reference: one map entry per written byte.
type refMemory map[uint64]byte

func (r refMemory) read(addr uint64, n int) uint64 {
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(r[addr+uint64(i)])
	}
	return v
}

func (r refMemory) write(addr, v uint64, n int) {
	for i := 0; i < n; i++ {
		r[addr+uint64(i)] = byte(v >> (8 * i))
	}
}

// Accesses of every width at every offset near the end of a page — within
// the page and across into the next one — agree with the byte reference.
func TestMemoryPageEdgeAccesses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, ref := NewMemory(), refMemory{}
	const base = 7 * pageBytes
	for round := 0; round < 50; round++ {
		for _, n := range []int{1, 2, 4, 8} {
			for off := uint64(pageBytes - 8); off < pageBytes; off++ {
				addr := base + off
				v := rng.Uint64()
				m.Write(addr, v, n)
				ref.write(addr, v, n)
				for _, rn := range []int{1, 2, 4, 8} {
					for ro := uint64(pageBytes - 8); ro < pageBytes; ro++ {
						if got, want := m.Read(base+ro, rn), ref.read(base+ro, rn); got != want {
							t.Fatalf("after Write(%#x, %d): Read(%#x, %d) = %#x, want %#x",
								addr, n, base+ro, rn, got, want)
						}
					}
				}
			}
		}
	}
}

// WriteBytes spanning several pages lands every byte where the byte
// reference puts it; untouched pages read as zero.
func TestMemoryWriteBytesAcrossPages(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, ref := NewMemory(), refMemory{}
	for _, span := range []struct {
		addr uint64
		n    int
	}{
		{3*pageBytes - 5, 10},
		{5*pageBytes + 100, 3 * pageBytes},
		{9 * pageBytes, pageBytes},
		{12*pageBytes - 1, 2},
		{20 * pageBytes, 0},
	} {
		data := make([]byte, span.n)
		rng.Read(data)
		m.WriteBytes(span.addr, data)
		for i, b := range data {
			ref[span.addr+uint64(i)] = b
		}
	}
	for addr := uint64(2 * pageBytes); addr < 13*pageBytes; addr++ {
		if got, want := m.LoadByte(addr), ref[addr]; got != want {
			t.Fatalf("byte %#x = %#x, want %#x", addr, got, want)
		}
	}
	for _, addr := range []uint64{0, pageBytes - 4, 30 * pageBytes, 1 << 40} {
		if got := m.Read(addr, 8); got != 0 {
			t.Errorf("untouched Read(%#x) = %#x, want 0", addr, got)
		}
	}
	if _, ok := m.pages[20]; ok {
		t.Error("empty WriteBytes created a page")
	}
}
