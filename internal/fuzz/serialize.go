package fuzz

import (
	"fmt"
	"strconv"
	"strings"

	"sonar/internal/isa"
)

// Marshal renders a testcase as an annotated assembly listing: template
// metadata in header comments, then each region under a section marker.
// The format round-trips through Unmarshal, so interesting seeds can be
// exported from a campaign, stored, edited, and replayed.
func (tc *Testcase) Marshal() string {
	n := len(tc.HeadChain) + len(tc.Prologue) + len(tc.Epilogue) + len(tc.Attacker)
	b := make([]byte, 0, 160+28*n)
	b = append(b, "# sonar testcase\n# probe: "...)
	b = strconv.AppendUint(b, uint64(tc.Probe), 10)
	b = append(b, "\n# probe-offset: "...)
	b = strconv.AppendInt(b, tc.ProbeOffset, 10)
	b = append(b, "\n# probe-delay: "...)
	b = strconv.AppendInt(b, int64(tc.ProbeDelay), 10)
	b = append(b, "\n# probe-base: "...)
	b = strconv.AppendUint(b, uint64(tc.ProbeBase), 10)
	b = append(b, "\n# patterns: "...)
	for i, p := range tc.Patterns {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, uint64(p), 10)
	}
	b = append(b, '\n')
	section := func(name string, code []isa.Instr) {
		b = append(append(append(b, '.'), name...), '\n')
		for _, ins := range code {
			b = append(ins.Append(append(b, "  "...)), '\n')
		}
	}
	section("chain", tc.HeadChain)
	section("prologue", tc.Prologue)
	section("epilogue", tc.Epilogue)
	section("attacker", tc.Attacker)
	return string(b)
}

// Unmarshal parses the Marshal format back into a testcase.
func Unmarshal(src string) (*Testcase, error) {
	tc := &Testcase{}
	section := ""
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "#"):
			if err := tc.header(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", ln+1, err)
			}
		case strings.HasPrefix(line, "."):
			section = line[1:]
			switch section {
			case "chain", "prologue", "epilogue", "attacker":
			default:
				return nil, fmt.Errorf("line %d: unknown section %q", ln+1, section)
			}
		default:
			ins, err := isa.Assemble(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", ln+1, err)
			}
			switch section {
			case "chain":
				tc.HeadChain = append(tc.HeadChain, ins)
			case "prologue":
				tc.Prologue = append(tc.Prologue, ins)
			case "epilogue":
				tc.Epilogue = append(tc.Epilogue, ins)
			case "attacker":
				tc.Attacker = append(tc.Attacker, ins)
			default:
				return nil, fmt.Errorf("line %d: instruction outside a section", ln+1)
			}
		}
	}
	return tc, nil
}

// header parses one "# key: value" metadata comment; unknown keys are
// ignored so the format can grow.
func (tc *Testcase) header(line string) error {
	body := strings.TrimSpace(strings.TrimPrefix(line, "#"))
	key, value, found := strings.Cut(body, ":")
	if !found {
		return nil // plain comment
	}
	key = strings.TrimSpace(key)
	value = strings.TrimSpace(value)
	atoi := func() (int, error) {
		v, err := strconv.Atoi(value)
		if err != nil {
			return 0, fmt.Errorf("bad %s value %q", key, value)
		}
		return v, nil
	}
	switch key {
	case "probe":
		v, err := atoi()
		if err != nil {
			return err
		}
		if v < 0 || v >= int(numPatterns) {
			return fmt.Errorf("probe pattern %d out of range", v)
		}
		tc.Probe = SecretPattern(v)
	case "probe-offset":
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return fmt.Errorf("bad probe-offset %q", value)
		}
		tc.ProbeOffset = v
	case "probe-delay":
		v, err := atoi()
		if err != nil {
			return err
		}
		tc.ProbeDelay = v
	case "probe-base":
		v, err := atoi()
		if err != nil || v < 0 || v > 31 {
			return fmt.Errorf("bad probe-base %q", value)
		}
		tc.ProbeBase = uint8(v)
	case "patterns":
		tc.Patterns = nil
		for _, f := range strings.Fields(value) {
			v, err := strconv.Atoi(f)
			if err != nil || v < 0 || v >= int(numPatterns) {
				return fmt.Errorf("bad pattern %q", f)
			}
			tc.Patterns = append(tc.Patterns, SecretPattern(v))
		}
	}
	return nil
}
