package fuzz

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"sonar/internal/boom"
	"sonar/internal/isa"
)

func TestTestcaseMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		tc := Generate(rng, i%2 == 0)
		text := tc.Marshal()
		back, err := Unmarshal(text)
		if err != nil {
			t.Fatalf("case %d: %v\n%s", i, err, text)
		}
		if back.Probe != tc.Probe || back.ProbeOffset != tc.ProbeOffset || back.ProbeDelay != tc.ProbeDelay {
			t.Fatalf("case %d: template metadata drifted", i)
		}
		if len(back.Patterns) != len(tc.Patterns) {
			t.Fatalf("case %d: patterns %d != %d", i, len(back.Patterns), len(tc.Patterns))
		}
		pa, _, _ := tc.Build()
		pb, _, _ := back.Build()
		if pa.Len() != pb.Len() {
			t.Fatalf("case %d: rebuilt program length %d != %d", i, pb.Len(), pa.Len())
		}
		for j := range pa.Code {
			if pa.Code[j] != pb.Code[j] {
				t.Fatalf("case %d instr %d: %s != %s", i, j, pb.Code[j], pa.Code[j])
			}
		}
	}
}

func TestTestcaseMarshalIsEditable(t *testing.T) {
	src := `
# sonar testcase
# probe: 1
# probe-offset: 4096
# probe-delay: 12
# patterns: 0 1
.chain
  addi x9, x9, 1
  addi x9, x9, 1
.prologue
  ld x3, 64(x28)
.epilogue
  mul x4, x3, x3
`
	tc, err := Unmarshal(src)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Probe != PatternDiv || tc.ProbeOffset != 4096 || tc.ProbeDelay != 12 {
		t.Errorf("metadata = %+v", tc)
	}
	if len(tc.HeadChain) != 2 || len(tc.Prologue) != 1 || len(tc.Epilogue) != 1 {
		t.Errorf("regions = %d/%d/%d", len(tc.HeadChain), len(tc.Prologue), len(tc.Epilogue))
	}
	if len(tc.Patterns) != 2 || tc.Patterns[0] != PatternLoad || tc.Patterns[1] != PatternDiv {
		t.Errorf("patterns = %v", tc.Patterns)
	}
	// The parsed testcase must build into a runnable program.
	prog, s, e := tc.Build()
	if prog.Len() == 0 || s <= 0 || e <= s {
		t.Error("rebuilt program malformed")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"bad section", ".bogus\n"},
		{"instr outside section", "addi x1, x0, 1\n"},
		{"bad instr", ".chain\n frobnicate x1\n"},
		{"bad probe", "# probe: 99\n"},
		{"bad pattern", "# patterns: banana\n"},
		{"bad offset", "# probe-offset: xyz\n"},
	}
	for _, c := range cases {
		if _, err := Unmarshal(c.src); err == nil {
			t.Errorf("%s: Unmarshal succeeded", c.name)
		}
	}
	// Plain comments and unknown keys are tolerated.
	if _, err := Unmarshal("# hello world\n# future-key: 7\n.chain\n"); err != nil {
		t.Errorf("benign input rejected: %v", err)
	}
}

func TestMarshalMentionsSections(t *testing.T) {
	tc := Generate(rand.New(rand.NewSource(1)), true)
	text := tc.Marshal()
	for _, want := range []string{".chain", ".prologue", ".epilogue", ".attacker", "# patterns:"} {
		if !strings.Contains(text, want) {
			t.Errorf("Marshal missing %q", want)
		}
	}
}

// fmtMarshal is the fmt-based Testcase.Marshal the append renderer
// replaced — kept as the differential oracle for the testcase text format.
func fmtMarshal(tc *Testcase) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# sonar testcase\n")
	fmt.Fprintf(&b, "# probe: %d\n", tc.Probe)
	fmt.Fprintf(&b, "# probe-offset: %d\n", tc.ProbeOffset)
	fmt.Fprintf(&b, "# probe-delay: %d\n", tc.ProbeDelay)
	fmt.Fprintf(&b, "# probe-base: %d\n", tc.ProbeBase)
	patterns := make([]string, len(tc.Patterns))
	for i, p := range tc.Patterns {
		patterns[i] = strconv.Itoa(int(p))
	}
	fmt.Fprintf(&b, "# patterns: %s\n", strings.Join(patterns, " "))
	section := func(name string, code []isa.Instr) {
		fmt.Fprintf(&b, ".%s\n", name)
		for _, ins := range code {
			fmt.Fprintf(&b, "  %s\n", ins)
		}
	}
	section("chain", tc.HeadChain)
	section("prologue", tc.Prologue)
	section("epilogue", tc.Epilogue)
	section("attacker", tc.Attacker)
	return b.String()
}

// Marshal is byte-identical to the fmt oracle over generated testcases,
// their directed mutants, and testcases whose regions hold every opcode
// (every rendering class of isa.Instr.String) with extreme operands.
func TestMarshalMatchesFmtOracle(t *testing.T) {
	check := func(what string, tc *Testcase) {
		t.Helper()
		if got, want := tc.Marshal(), fmtMarshal(tc); got != want {
			t.Fatalf("%s: Marshal differs from the fmt oracle:\n%s\nvs\n%s", what, got, want)
		}
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		tc := Generate(rng, i%2 == 0)
		check("Generate", tc)
		seed := &Seed{TC: tc, Dir: 1 - 2*(i%2)}
		for k := 0; k < 4; k++ {
			seed.TC = MutateDirected(seed, rng)
			check("MutateDirected", seed.TC)
		}
	}
	var all []isa.Instr
	for op := 0; ; op++ {
		o := isa.Op(op)
		if strings.HasPrefix(o.String(), "Op(") {
			// One out-of-range op exercises the fallback mnemonic too.
			all = append(all, isa.Instr{Op: o, Rd: 3, Rs1: 4, Rs2: 5, Imm: -9})
			break
		}
		all = append(all,
			isa.Instr{Op: o, Rd: 1, Rs1: 2, Rs2: 3, Imm: -2048},
			isa.Instr{Op: o, Rd: 31, Rs1: 0, Rs2: 30, Imm: math.MaxInt64},
			isa.Instr{Op: o, Imm: math.MinInt64})
	}
	check("every opcode", &Testcase{
		HeadChain: all, Prologue: all, Epilogue: all, Attacker: all,
		Patterns: []SecretPattern{PatternLoad, PatternDiv, PatternMul, PatternStore},
		Probe:    PatternStore, ProbeOffset: -1 << 40, ProbeDelay: -7, ProbeBase: 255,
	})
	check("empty", &Testcase{})
}

// FuzzUnmarshal feeds testcase text, the form in which seeds are exported,
// edited and replayed, to Unmarshal. Text it accepts must marshal to a
// fixed point (Marshal, Unmarshal, Marshal gives the same text) and must run
// on a boom-lite DUT under both secrets without panicking.
func FuzzUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		f.Add(Generate(rng, i%2 == 1).Marshal())
	}
	f.Add("# probe: 3\n# probe-delay: -7\n# probe-base: 31\n.attacker\n  sc.d x1, x2, 0(x3)\n")
	f.Add(".chain\n  beq x1, x1, -4\n")
	dut := NewDUT(boom.NewLite())
	f.Fuzz(func(t *testing.T, src string) {
		tc, err := Unmarshal(src)
		if err != nil {
			return
		}
		text := tc.Marshal()
		back, err := Unmarshal(text)
		if err != nil {
			t.Fatalf("marshalled text does not parse: %v\n%s", err, text)
		}
		if again := back.Marshal(); again != text {
			t.Fatalf("Marshal is not a fixed point:\n%s\nthen\n%s", text, again)
		}
		dut.Execute(tc, 0)
		dut.Execute(tc, 1)
	})
}
