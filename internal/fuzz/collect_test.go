//go:build go1.24

// The weak package arrived in Go 1.24; go.mod stays at 1.22, so older
// toolchains skip this file.

package fuzz

import (
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"sonar/internal/boom"
	"sonar/internal/hdl"
)

// A dropped DUT must not pin its design: nothing process-global may keep a
// reference to the netlist once the DUT and its SoC are gone, or every
// campaign that builds private DUTs leaks a full elaboration per DUT.
func TestDroppedDUTNetlistCollectable(t *testing.T) {
	net := func() weak.Pointer[hdl.Netlist] {
		soc := boom.NewLite()
		d := NewDUT(soc)
		d.Execute(Generate(rand.New(rand.NewSource(7)), false), 0)
		return weak.Make(soc.Net)
	}()
	for i := 0; i < 3 && net.Value() != nil; i++ {
		runtime.GC()
	}
	if net.Value() != nil {
		t.Error("netlist of a dropped DUT is still reachable after GC")
	}
}
