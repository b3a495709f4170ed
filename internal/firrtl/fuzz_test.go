package firrtl

import "testing"

// Designs the hdl builders would reject with a panic must come back from
// the parser as errors: FIRRTL text arrives from campaign submits, so a
// malformed design is an input error, not a programming error.
func TestParseMalformedDesignsError(t *testing.T) {
	cases := map[string]string{
		"duplicate port":     "circuit 0\nmodule 0\ninput a:UInt<1>\ninput a:UInt<1>",
		"node shadows port":  "circuit C\nmodule C\ninput a:UInt<1>\nnode a = not(a)",
		"two mux drivers":    "circuit C\nmodule C\ninput s:UInt<1>\nwire w:UInt<1>\nw <= mux(s, s, s)\nw <= mux(s, s, s)",
		"mux into constant":  "circuit C\nmodule C\ninput s:UInt<1>\nnode n = UInt<1>(0)\n_c1 <= mux(s, s, s)",
		"mux node temp name": "circuit C\nmodule C\ninput s:UInt<1>\nnode _t1 = mux(s, not(s), s)",
	}
	for name, src := range cases {
		if _, err := ParseChecked(src); err == nil {
			t.Errorf("%s: ParseChecked succeeded, want error", name)
		}
	}
}

// Temporaries skip names the source declared itself, and a module declared
// twice keeps numbering past the first declaration's temporaries.
func TestParseTemporariesAvoidDeclaredNames(t *testing.T) {
	src := "circuit C\nmodule C\ninput a:UInt<1>\nwire _t1:UInt<1>\n_t1 <= a\nnode n = not(a)\n" +
		"module C\nnode m = not(a)\nnode k = UInt<1>(1)\nmodule C\nnode j = UInt<1>(0)"
	if _, err := Parse(src); err != nil {
		t.Fatalf("Parse: %v", err)
	}
}

// FuzzParseChecked feeds arbitrary text to the checked parser: it must
// return a netlist or an error, never panic.
func FuzzParseChecked(f *testing.F) {
	f.Add(fig3)
	f.Add("circuit 0\nmodule 0\ninput a:UInt<1>\ninput a:UInt<1>")
	f.Add("circuit C\nmodule C\ninput s:UInt<1>\nwire w:UInt<1>\nw <= mux(s, s, s)\nw <= mux(s, s, s)")
	f.Add("circuit C :\n  module C :\n    input a : UInt<4>\n    output o : UInt<4>\n    node x = bits(add(a, UInt<4>(3)), 3, 0)\n    o <= x\n")
	f.Fuzz(func(t *testing.T, src string) {
		n, err := ParseChecked(src)
		if (n == nil) == (err == nil) {
			t.Fatalf("ParseChecked returned netlist %v with error %v", n, err)
		}
	})
}
