// Package flow implements Sonar's static information-flow audit over an
// elaborated netlist: a deterministic, CellIFT-style taint propagation from
// designated secret and attacker input ports, an independent extraction of
// the design's contention surface (every arbitration MUX cascade and the
// requestor cones converging on it), and a ranked audit report that
// cross-checks the dynamic pipeline's contention-point identification
// (trace.Analyze) against the surface.
//
// The audit answers, before a single cycle is simulated, the questions a
// campaign needs triaged: where can contention exist at all (the surface),
// which of those points can an attacker actually steer (attacker taint
// reaching a select), which can the secret actually reach (secret taint
// reaching the cone), and which points carry the highest risk. The rank is
// a report for humans (sonar-audit, fleet submit summaries); campaigns
// instrument every monitorable point in ID order and never consult it.
//
// Like internal/hdl/check, the audit reports structured findings instead of
// a flat error: cross-check discrepancies between the surface and
// trace.Analyze are Error findings (one layer is wrong about the design),
// while dead arbitration and unreachable taint are Info findings (the
// design is consistent but some monitors would be wasted).
//
// Everything is deterministic: seeds are collected in elaboration order,
// propagation runs in the simulator's levelized order (docs/SIMULATOR.md)
// with a fixpoint over register feedback, and every report is byte-identical
// across runs for a fixed (netlist, Spec).
package flow

import (
	"fmt"
	"strings"

	"sonar/internal/hdl"
	"sonar/internal/trace"
)

// Taint is a bitset of information-flow labels carried by one signal.
type Taint uint8

// Taint labels: the two parties of a contention side channel.
const (
	// TaintSecret marks data reachable from a secret (victim) source.
	TaintSecret Taint = 1 << iota
	// TaintAttacker marks data reachable from an attacker-steerable source.
	TaintAttacker
)

// Has reports whether every label in q is present in t.
func (t Taint) Has(q Taint) bool { return t&q == q }

// Pair reports whether both the secret and the attacker label are present —
// the reachability precondition of a contention side channel.
func (t Taint) Pair() bool { return t.Has(TaintSecret | TaintAttacker) }

// String renders the taint as a compact column value: "-", "S", "A", "SA".
func (t Taint) String() string {
	switch {
	case t.Pair():
		return "SA"
	case t.Has(TaintSecret):
		return "S"
	case t.Has(TaintAttacker):
		return "A"
	}
	return "-"
}

// Spec designates the taint sources of an audit. Patterns are matched
// against full hierarchical signal names; the only metacharacter is '*',
// which matches any (possibly empty) run of characters. An empty Spec
// selects the default heuristic (DefaultSpec).
type Spec struct {
	// Secret are the patterns naming secret (victim-data) source signals.
	Secret []string
	// Attacker are the patterns naming attacker-steerable source signals.
	Attacker []string
}

// empty reports whether the spec designates no sources at all.
func (s Spec) empty() bool { return len(s.Secret) == 0 && len(s.Attacker) == 0 }

// DefaultSpec returns the heuristic taint-source designation for a netlist:
// every externally driven signal — an input port or a wire/register with no
// structural driver of any kind, the signals Go model code or the testbench
// pokes — seeds taint. Multi-bit sources carry data and seed the secret
// label; single-bit sources are valids, selects, and steering bits and seed
// the attacker label. The heuristic matches the elaboration style of the
// bundled DUTs (boom, nutshell), whose contention-point wires are poked
// from Go code each cycle, and of gen/FIRRTL designs, whose inputs are the
// only free signals.
func DefaultSpec(n *hdl.Netlist) Spec {
	spec := Spec{}
	for _, s := range n.Signals() {
		if !externallyDriven(n, s) {
			continue
		}
		if s.Width() > 1 {
			spec.Secret = append(spec.Secret, s.Name())
		} else {
			spec.Attacker = append(spec.Attacker, s.Name())
		}
	}
	return spec
}

// externallyDriven reports whether nothing inside the netlist drives s: no
// mux, no prim, no declared fan-in. Such signals change only from outside
// the combinational fabric and are the audit's taint entry points.
func externallyDriven(n *hdl.Netlist, s *hdl.Signal) bool {
	if s.IsConst() || s.Kind() == hdl.Output {
		return false
	}
	if s.Kind() == hdl.Input {
		return true
	}
	if _, ok := n.Driver(s); ok {
		return false
	}
	if _, ok := n.PrimDriver(s); ok {
		return false
	}
	return len(s.Sources()) == 0
}

// matchGlob matches name against a pattern whose only metacharacter is '*'
// (any run of characters, including empty). Bracketed and dotted signal
// names are matched literally — no character-class surprises.
func matchGlob(pattern, name string) bool {
	// Fast paths.
	if !strings.ContainsRune(pattern, '*') {
		return pattern == name
	}
	parts := strings.Split(pattern, "*")
	if !strings.HasPrefix(name, parts[0]) {
		return false
	}
	name = name[len(parts[0]):]
	for i := 1; i < len(parts)-1; i++ {
		idx := strings.Index(name, parts[i])
		if idx < 0 {
			return false
		}
		name = name[idx+len(parts[i]):]
	}
	return strings.HasSuffix(name, parts[len(parts)-1])
}

// Code classifies an audit finding.
type Code string

// Finding codes, one per audited property.
const (
	// CodeEmptySurface marks a design whose contention surface is empty:
	// no MUX cascades exist, so no contention side channel can exist and a
	// campaign has nothing to monitor. The fleet submit API rejects such
	// designs.
	CodeEmptySurface Code = "empty-surface"
	// CodeSurfaceMissing marks a monitorable trace.Analyze point whose MUX
	// cascade does not appear in the independently extracted surface — the
	// two static layers disagree about the design.
	CodeSurfaceMissing Code = "surface-missing-point"
	// CodeSurfaceExtra marks a surface cascade root that trace.Analyze did
	// not report as a contention point.
	CodeSurfaceExtra Code = "surface-extra-point"
	// CodeLeafMismatch marks a point whose surface cascade resolved a
	// different requestor leaf set than trace.Analyze.
	CodeLeafMismatch Code = "surface-leaf-mismatch"
	// CodeConstArbiter marks a point whose every select is a literal
	// constant: the arbitration is structurally dead and can never switch.
	CodeConstArbiter Code = "const-arbiter"
	// CodeUntainted marks a monitorable point that no taint label reaches:
	// its monitor can never observe secret- or attacker-dependent traffic
	// under the audited source designation.
	CodeUntainted Code = "untainted-point"
	// CodeUnmatchedPattern marks an explicit Spec pattern that matched no
	// signal — almost always a typo in a port name.
	CodeUnmatchedPattern Code = "unmatched-pattern"
	// CodeNoSeeds marks an audit whose source designation (explicit or
	// heuristic) produced no taint seeds at all; taint columns are vacuous.
	CodeNoSeeds Code = "no-taint-seeds"
)

// Severity grades a finding, mirroring internal/hdl/check.
type Severity uint8

// Severities: Info findings describe the design without condemning it;
// Error findings make Audit.Err non-nil (and fail the CI audit smoke).
const (
	// Info describes structure worth knowing without condemning it.
	Info Severity = iota
	// Error marks a cross-check discrepancy or an unusable designation.
	Error
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "info"
}

// Finding is one audit diagnostic.
type Finding struct {
	// Code is the finding class.
	Code Code
	// Severity grades the finding; only Error findings fail Err.
	Severity Severity
	// PointID is the trace point concerned, -1 when not point-scoped.
	PointID int
	// Msg is the human-readable description.
	Msg string
}

// String renders the finding as "severity code: msg".
func (f Finding) String() string {
	return fmt.Sprintf("%s %s: %s", f.Severity, f.Code, f.Msg)
}

// SurfacePoint is one element of the contention surface: a MUX cascade
// reconstructed independently of trace.Analyze, with the requestor leaf
// signals whose cones converge on it.
type SurfacePoint struct {
	// Root is the topmost 2:1 MUX of the cascade.
	Root *hdl.Mux
	// Out is the cascade output signal.
	Out *hdl.Signal
	// Muxes are the cascade's MUXes in walk order (TVal before FVal).
	Muxes []*hdl.Mux
	// Selects are the select signals of the cascade's MUXes, in walk order.
	Selects []*hdl.Signal
	// Leaves are the requestor data signals, in select-priority order.
	Leaves []*hdl.Signal
}

// PointAudit is the audit's verdict on one contention point, pairing the
// trace.Analyze point with its surface cascade, taint reachability, and
// placement rank.
type PointAudit struct {
	// Point is the trace.Analyze contention point.
	Point *trace.Point
	// Surface is the matching surface cascade (nil on a cross-check miss).
	Surface *SurfacePoint
	// Rank is the point's position in the audit's placement order (0 =
	// highest risk).
	Rank int
	// Monitorable mirrors the §5.2 risk filter verdict.
	Monitorable bool
	// SelectTaint is the union of taint over the cascade's selects — the
	// labels that can steer the arbitration.
	SelectTaint Taint
	// RequestTaint is the union of taint over the requestor data leaves.
	RequestTaint Taint
	// ConeTaint is the union of SelectTaint and RequestTaint: every label
	// reaching the point at all.
	ConeTaint Taint
	// TaintPair reports that both a secret-tainted and an attacker-tainted
	// cone reach the point — the static precondition of a contention side
	// channel.
	TaintPair bool
	// SharedFanin counts the signals appearing in at least two distinct
	// requestor cones: the amount of logic the requests genuinely share.
	SharedFanin int
	// ConeDepth is the deepest requestor cone, in combinational steps.
	ConeDepth int
}

// Audit is the result of one information-flow audit: the taint plane, the
// contention surface, the ranked per-point verdicts, and the cross-check
// findings. Build one with Analyze.
type Audit struct {
	// Netlist is the audited design.
	Netlist *hdl.Netlist
	// Analysis is the trace.Analyze result the audit cross-checked.
	Analysis *trace.Analysis
	// Spec is the effective source designation (the heuristic's result when
	// the caller passed an empty Spec).
	Spec Spec
	// SecretSeeds are the matched secret source signals, elaboration order.
	SecretSeeds []*hdl.Signal
	// AttackerSeeds are the matched attacker source signals.
	AttackerSeeds []*hdl.Signal
	// Surface is the contention surface in root-mux creation order.
	Surface []*SurfacePoint
	// Points are the per-point verdicts in placement-rank order.
	Points []*PointAudit
	// Findings are the audit diagnostics in deterministic order.
	Findings []Finding
	// Passes is the number of levelized propagation passes the taint
	// fixpoint needed (register feedback depth + 1).
	Passes int

	taint []Taint // by dense signal id
}

// TaintOf returns the propagated taint of a signal.
func (au *Audit) TaintOf(s *hdl.Signal) Taint { return au.taint[s.ID()] }

// ByCode returns the findings of one class, in order.
func (au *Audit) ByCode(c Code) []Finding {
	var out []Finding
	for _, f := range au.Findings {
		if f.Code == c {
			out = append(out, f)
		}
	}
	return out
}

// OK reports whether no Error-severity findings exist.
func (au *Audit) OK() bool {
	for _, f := range au.Findings {
		if f.Severity == Error {
			return false
		}
	}
	return true
}

// Err returns nil when the audit is clean of errors, otherwise an error
// summarizing the first few Error findings.
func (au *Audit) Err() error {
	var errs []string
	n := 0
	for _, f := range au.Findings {
		if f.Severity != Error {
			continue
		}
		n++
		if len(errs) < 3 {
			errs = append(errs, f.String())
		}
	}
	if n == 0 {
		return nil
	}
	suffix := ""
	if n > len(errs) {
		suffix = fmt.Sprintf(" (and %d more)", n-len(errs))
	}
	return fmt.Errorf("flow: netlist %s: %s%s", au.Netlist.Name(), strings.Join(errs, "; "), suffix)
}

// TaintPairPoints counts the points whose TaintPair verdict holds.
func (au *Audit) TaintPairPoints() int {
	n := 0
	for _, p := range au.Points {
		if p.TaintPair {
			n++
		}
	}
	return n
}

// TaintedPoints counts the points reached by any taint label.
func (au *Audit) TaintedPoints() int {
	n := 0
	for _, p := range au.Points {
		if p.ConeTaint != 0 {
			n++
		}
	}
	return n
}

// MonitorRankIDs returns the IDs of the monitorable points in placement
// rank order, highest risk first. Point IDs are stable across
// independently elaborated instances of the same design
// (trace.Analysis.Rebind), so the ranking applies to every instance.
func (au *Audit) MonitorRankIDs() []int {
	var ids []int
	for _, p := range au.Points {
		if p.Monitorable {
			ids = append(ids, p.Point.ID)
		}
	}
	return ids
}

// Analyze runs the full information-flow audit: taint seeding and
// propagation, surface extraction, the trace cross-check, per-point scoring,
// and placement ranking. a may be nil (the analysis is computed here) or an
// analysis of the same design; an analysis bound to a different netlist
// instance is rebound by dense id. spec may be empty to select the
// DefaultSpec heuristic.
func Analyze(n *hdl.Netlist, a *trace.Analysis, spec Spec) *Audit {
	if a == nil {
		a = trace.Analyze(n)
	} else if a.Netlist != n {
		a = a.Rebind(n)
	}
	au := &Audit{Netlist: n, Analysis: a}

	explicit := !spec.empty()
	if explicit {
		au.Spec = spec
	} else {
		au.Spec = DefaultSpec(n)
	}
	au.seed(explicit)
	au.propagate()
	au.extractSurface()
	au.crossCheck()
	au.score()
	au.rank()
	return au
}
