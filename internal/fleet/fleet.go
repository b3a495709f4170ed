// Package fleet implements the distributed campaign service: a controller
// that owns campaign and shard-lease state, an HTTP+JSON server exposing it
// (docs/SERVICE.md documents the API), a client, and the worker loop that
// executes leases against the fuzzing engine.
//
// The controller is the server half of the fuzz.LeaseCoordinator contract:
// it splits each fuzz campaign into shard leases, grants at most one lease
// per open shard per round, re-offers leases lost to worker churn (expiry,
// bounded by MaxRetries), and folds reported results at round barriers in
// canonical worker order. Because lease execution is deterministic and
// expiry/re-offer bookkeeping is metrics-only, a distributed campaign over
// a fixed (Seed, Workers, BatchSize) topology produces a byte-identical
// event stream and identical final Stats to a local fuzz.RunParallel — even
// when workers die mid-campaign, as long as no shard exhausts its retries.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sonar/internal/boom"
	"sonar/internal/firrtl"
	"sonar/internal/fuzz"
	"sonar/internal/hdl"
	"sonar/internal/hdl/flow"
	"sonar/internal/nutshell"
	"sonar/internal/obs"
	"sonar/internal/trace"
	"sonar/internal/uarch"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// errBadRequest maps to 400: malformed specs, unknown DUT names,
	// rejected lease results.
	errBadRequest = errors.New("bad request")
	// errNotFound maps to 404: unknown campaign or resource.
	errNotFound = errors.New("not found")
	// errGone maps to 409: a lease that expired or was already resolved —
	// the shard has moved on, the worker should discard its result.
	errGone = errors.New("lease gone")
	// errConflict maps to 409: a resource that exists but is not in the
	// right state (e.g. the result of a still-running campaign).
	errConflict = errors.New("conflict")
	// errTooLarge maps to 413: a request body over maxRequestBytes.
	errTooLarge = errors.New("request body too large")
)

// Fleet metric names (exposed on the server's /metrics handler, alongside
// obs.MetricWorkerFailures which the fleet increments on every lease
// expiry).
const (
	MetricCampaigns        = "sonar_fleet_campaigns_total"
	MetricCampaignsRunning = "sonar_fleet_campaigns_running"
	MetricLeasesGranted    = "sonar_fleet_leases_granted_total"
	MetricLeasesCompleted  = "sonar_fleet_leases_completed_total"
	MetricLeasesExpired    = "sonar_fleet_leases_expired_total"
	MetricLeaseRenewals    = "sonar_fleet_lease_renewals_total"
	MetricStaleReports     = "sonar_fleet_stale_reports_total"
	MetricShardsAbandoned  = "sonar_fleet_shards_abandoned_total"
	MetricAcquiresParked   = "sonar_fleet_acquires_parked"
)

// Per-campaign gauge names (label: campaign ID).
const (
	MetricCampaignIterations = "sonar_campaign_iterations_done"
	MetricCampaignRound      = "sonar_campaign_round"
	MetricCampaignPoints     = "sonar_campaign_points"
	MetricCampaignFindings   = "sonar_campaign_findings"
	MetricCampaignCorpus     = "sonar_campaign_corpus_seeds"
	MetricCampaignDone       = "sonar_campaign_done"
)

// DefaultLeaseTTL is the lease time-to-live when Config.LeaseTTL is zero.
// docs/SERVICE.md's runbook explains how to tune it: it must comfortably
// exceed one batch's execution time, or healthy workers lose their leases.
const DefaultLeaseTTL = 30 * time.Second

// MaxAcquireWait caps how long an acquire may park waiting for work
// (acquireRequest.WaitMillis); a longer requested wait is cut to it.
const MaxAcquireWait = 10 * time.Second

// Builtins returns the built-in DUT registry shared by cmd/sonar-server and
// cmd/sonar-worker: the paper's two targets, plus boom's dual-core
// elaboration under its own name. Campaign submission resolves a dual-core
// spec (Options.DualCore) against the "-dual" variant, so workers always
// elaborate the exact design the server folds stats against.
func Builtins() map[string]func() *uarch.SoC {
	return map[string]func() *uarch.SoC{
		"boom":      boom.New,
		"boom-dual": boom.NewDual,
		"nutshell":  nutshell.New,
	}
}

// Config parameterizes a Controller.
type Config struct {
	// LeaseTTL is how long a granted lease stays valid without a renewal;
	// zero means DefaultLeaseTTL. Expired leases are re-offered to the next
	// worker that asks.
	LeaseTTL time.Duration
	// MaxRetries bounds lease re-offers per shard per round, with the same
	// convention as fuzz.Options.MaxRetries: zero means the engine default
	// (2), negative means no retries — the shard is abandoned after its
	// first expired lease. A shard that exhausts its retries is abandoned
	// and its remaining budget dropped, exactly like a local campaign's
	// fault disposition.
	MaxRetries int
	// DUTs overrides the built-in DUT registry (Builtins) — tests inject
	// cheap lite designs here. Workers must be configured with the same
	// registry.
	DUTs map[string]func() *uarch.SoC
}

// ttl returns the effective lease TTL.
func (cfg Config) ttl() time.Duration {
	if cfg.LeaseTTL <= 0 {
		return DefaultLeaseTTL
	}
	return cfg.LeaseTTL
}

// maxAttempts returns how many expired leases a shard tolerates per round
// before abandonment (first attempt + retries).
func (cfg Config) maxAttempts() int {
	switch {
	case cfg.MaxRetries == 0:
		return 3 // engine default: 2 retries after the first failure
	case cfg.MaxRetries < 0:
		return 1
	default:
		return cfg.MaxRetries + 1
	}
}

// Spec is a campaign submission: exactly one of DUT or FIRRTL must be set.
// A named DUT starts a fuzzing campaign. FIRRTL source with zero iterations
// starts an analysis-only campaign (§5 contention-point identification)
// that completes immediately; with Options.Iterations >= 1 it starts an
// executable netlist campaign — workers elaborate the design into a
// lane-parallel fuzz.LaneDUT and whole lane groups of testcase pairs run
// bit-parallel through the optimizing simulator pipeline.
type Spec struct {
	// DUT names a design in the server's registry ("boom", "nutshell", ...).
	DUT string `json:"dut,omitempty"`
	// FIRRTL is FIRRTL source text: analysis-only when Options.Iterations is
	// zero, a lane-parallel netlist fuzzing campaign otherwise.
	FIRRTL string `json:"firrtl,omitempty"`
	// Options is the campaign shape. The server normalizes Workers and
	// BatchSize to their effective values at submission; the determinism
	// contract is per effective (Seed, Workers, BatchSize).
	Options fuzz.Shape `json:"options"`
	// Lanes is the evaluator lane width suggested to workers (operational;
	// does not affect results). Zero lets each worker pick its own.
	Lanes int `json:"lanes,omitempty"`
}

// AnalysisResult is the outcome of an analysis-only campaign — the same
// numbers the sonar CLI's identification report prints.
type AnalysisResult struct {
	// Design is the circuit name from the FIRRTL source.
	Design string `json:"design"`
	// NaiveMuxes counts all 2:1 MUXes (the naive baseline of paper Fig. 6).
	NaiveMuxes int `json:"naive_muxes"`
	// TracedPoints counts the deduplicated contention points.
	TracedPoints int `json:"traced_points"`
	// MonitoredPoints counts the points surviving the §5.2 filter.
	MonitoredPoints int `json:"monitored_points"`
	// ByComponent maps component name to [traced, monitored] counts.
	ByComponent map[string][2]int `json:"by_component"`
	// Audit is the static information-flow audit summary of the design.
	Audit *AuditSummary `json:"audit,omitempty"`
}

// AuditSummary is the API's view of a design's information-flow audit
// (internal/hdl/flow), attached to every FIRRTL campaign at submission.
type AuditSummary struct {
	// SurfaceCascades is the number of arbitration MUX cascades in the
	// contention surface. Zero is rejected at submission: such a design has
	// nothing to monitor.
	SurfaceCascades int `json:"surface_cascades"`
	// TaintedPoints counts contention points reached by any taint label
	// under the heuristic source designation.
	TaintedPoints int `json:"tainted_points"`
	// TaintPairPoints counts points reached by both secret and attacker
	// taint — the statically channel-capable points.
	TaintPairPoints int `json:"taint_pair_points"`
	// TopPoints is the audit's placement rank order (monitorable point IDs,
	// highest risk first), truncated to the first auditTopPoints entries.
	TopPoints []int `json:"top_points,omitempty"`
	// InfoFindings counts the audit's Info-severity findings.
	InfoFindings int `json:"info_findings"`
	// ErrorFindings counts Error-severity findings; a submission with any
	// is rejected, so a stored summary always reports zero.
	ErrorFindings int `json:"error_findings"`
}

// auditTopPoints caps the rank order echoed in an AuditSummary.
const auditTopPoints = 16

// auditFIRRTL audits a parsed FIRRTL design for submission: campaigns get
// the summary attached, and designs the audit proves unmonitorable — an
// empty contention surface or a cross-check discrepancy — are rejected
// before any lease is opened.
func auditFIRRTL(n *hdl.Netlist, a *trace.Analysis) (*AuditSummary, error) {
	au := flow.Analyze(n, a, flow.Spec{})
	if len(au.Surface) == 0 {
		return nil, fmt.Errorf("%w: firrtl: design %s has an empty contention surface (no arbitration MUX cascades); nothing to monitor", errBadRequest, n.Name())
	}
	if err := au.Err(); err != nil {
		return nil, fmt.Errorf("%w: firrtl audit: %v", errBadRequest, err)
	}
	sum := &AuditSummary{
		SurfaceCascades: len(au.Surface),
		TaintedPoints:   au.TaintedPoints(),
		TaintPairPoints: au.TaintPairPoints(),
		TopPoints:       au.MonitorRankIDs(),
	}
	if len(sum.TopPoints) > auditTopPoints {
		sum.TopPoints = sum.TopPoints[:auditTopPoints]
	}
	for _, f := range au.Findings {
		if f.Severity == flow.Error {
			sum.ErrorFindings++
		} else {
			sum.InfoFindings++
		}
	}
	return sum, nil
}

// CampaignStatus is the API's view of one campaign.
type CampaignStatus struct {
	// ID is the campaign's deterministic identifier ("c1", "c2", ... in
	// submission order).
	ID string `json:"id"`
	// Kind is "fuzz" or "analysis".
	Kind string `json:"kind"`
	// State is "running" or "done".
	State string `json:"state"`
	// DUT is the design name: the registry name for fuzz campaigns, the
	// circuit name for analysis campaigns.
	DUT string `json:"dut"`
	// Shape is the effective campaign shape (fuzz campaigns only).
	Shape *fuzz.Shape `json:"shape,omitempty"`
	// Lanes echoes the spec's suggested evaluator lane width.
	Lanes int `json:"lanes,omitempty"`
	// Round is the number of completed merge rounds.
	Round int `json:"round,omitempty"`
	// Done is the campaign position in iterations (executed plus dropped),
	// as of the last round barrier.
	Done int `json:"done,omitempty"`
	// Points is the number of distinct contention points triggered so far.
	Points int `json:"points,omitempty"`
	// Findings is the number of verified side-channel findings so far.
	Findings int `json:"findings,omitempty"`
	// CorpusSize is the merged seed corpus size.
	CorpusSize int `json:"corpus_size,omitempty"`
	// GrantedLeases is the number of currently outstanding leases.
	GrantedLeases int `json:"granted_leases,omitempty"`
	// Audit is the information-flow audit summary (FIRRTL campaigns).
	Audit *AuditSummary `json:"audit,omitempty"`
}

// Result is a campaign's final result.
type Result struct {
	// Kind is "fuzz" or "analysis".
	Kind string `json:"kind"`
	// Stats is the fuzz campaign's canonical serialized statistics —
	// byte-identical to a local run's fuzz.Stats.Wire() for the same
	// topology.
	Stats *fuzz.StatsWire `json:"stats,omitempty"`
	// Analysis is the analysis-only campaign's report.
	Analysis *AnalysisResult `json:"analysis,omitempty"`
}

// LeaseGrant is the server's response to a successful lease acquisition:
// the work assignment plus everything the worker needs to execute it.
type LeaseGrant struct {
	// LeaseID is the deterministic lease identifier
	// "{campaign}-r{round}-s{shard}-a{attempt}".
	LeaseID string `json:"lease_id"`
	// Campaign is the campaign ID the lease belongs to.
	Campaign string `json:"campaign"`
	// DUT is the registry name of the design to elaborate — or, for FIRRTL
	// campaigns, the circuit name (informational; FIRRTL carries the design).
	DUT string `json:"dut"`
	// FIRRTL is the campaign's FIRRTL source for netlist campaigns; workers
	// elaborate it into a lane-parallel executor instead of consulting their
	// DUT registry.
	FIRRTL string `json:"firrtl,omitempty"`
	// Shape is the campaign shape to execute under.
	Shape fuzz.Shape `json:"shape"`
	// Lanes is the suggested evaluator lane width (0 = worker's choice).
	Lanes int `json:"lanes,omitempty"`
	// TTLMillis is the lease time-to-live; workers renew at a fraction of
	// it while executing.
	TTLMillis int64 `json:"ttl_ms"`
	// Lease is the shard-batch work assignment for fuzz.ExecuteLease. Its
	// corpus starts past the prefix the worker's acquire proved it holds.
	Lease fuzz.Lease `json:"lease"`
}

// HeldPrefix is one entry of an acquire request's held list: a campaign
// corpus prefix the worker already holds decoded from an earlier lease.
type HeldPrefix struct {
	// Campaign is the campaign ID the prefix belongs to.
	Campaign string `json:"campaign"`
	// CorpusPrefix is the held seed count and digest.
	fuzz.CorpusPrefix
}

// Health is the healthz endpoint's body.
type Health struct {
	// Status is "ok".
	Status string `json:"status"`
	// Draining reports whether the controller has stopped granting leases.
	Draining bool `json:"draining"`
	// Campaigns is the total number of campaigns submitted.
	Campaigns int `json:"campaigns"`
	// OpenLeases is the number of currently outstanding leases.
	OpenLeases int `json:"open_leases"`
}

// campaign is the controller's per-campaign state.
type campaign struct {
	id       string
	kind     string // "fuzz" | "analysis"
	dutName  string // registry name (fuzz) or circuit name (analysis/FIRRTL)
	firrtl   string // FIRRTL source for netlist campaigns, forwarded in grants
	lanes    int
	lc       *fuzz.LeaseCoordinator // fuzz campaigns only
	sink     *obs.MemorySink        // backs the events download
	analysis *AnalysisResult        // analysis campaigns only
	audit    *AuditSummary          // FIRRTL campaigns: information-flow audit

	// Open-round churn bookkeeping, reset when the round advances.
	lastRound int
	granted   map[int]*lease   // shard → outstanding lease
	attempts  map[int]int      // shard → expired leases this round
	reasons   map[int][]string // shard → expiry reasons this round
}

// done reports whether the campaign has finished.
func (c *campaign) done() bool {
	return c.kind == "analysis" || c.lc.Finished()
}

// lease is one outstanding granted lease.
type lease struct {
	id      string
	camp    *campaign
	shard   int
	round   int
	attempt int
	expires time.Time
	worker  string
	// held is the corpus prefix the worker holds once it has run the lease
	// (its Base plus its seeds): what a fused next grant is a delta against.
	held fuzz.CorpusPrefix
}

// Controller owns all campaign and lease state behind the HTTP API. All
// methods are safe for concurrent use; a single mutex serializes access to
// the per-campaign LeaseCoordinators (which are not concurrency-safe), and
// nothing slower than a lease report runs under it.
type Controller struct {
	mu sync.Mutex
	// work is signalled (under mu) whenever a shard may have become open
	// for a grant — a round closed, a lease expired, a campaign was
	// submitted — or draining changed; parked acquires wait on it.
	work *sync.Cond
	cfg  Config
	duts map[string]func() *uarch.SoC

	fmu       sync.Mutex                  // guards factories only
	factories map[string]func() *fuzz.DUT // shared-analysis DUT factories

	campaigns []*campaign
	byID      map[string]*campaign
	leases    map[string]*lease
	draining  bool
	now       func() time.Time

	metrics        *obs.Metrics
	campaignsTotal *obs.Counter
	running        *obs.Gauge
	granted        *obs.Counter
	completed      *obs.Counter
	expired        *obs.Counter
	renewals       *obs.Counter
	stale          *obs.Counter
	abandonedCnt   *obs.Counter
	workerFails    *obs.Counter
	parked         *obs.Gauge
	gaugeIters     *obs.GaugeVec
	gaugeRound     *obs.GaugeVec
	gaugePoints    *obs.GaugeVec
	gaugeFindings  *obs.GaugeVec
	gaugeCorpus    *obs.GaugeVec
	gaugeDone      *obs.GaugeVec
}

// NewController builds an empty controller.
func NewController(cfg Config) *Controller {
	duts := cfg.DUTs
	if duts == nil {
		duts = Builtins()
	}
	m := obs.NewMetrics()
	ct := &Controller{
		cfg:       cfg,
		duts:      duts,
		factories: make(map[string]func() *fuzz.DUT),
		byID:      make(map[string]*campaign),
		leases:    make(map[string]*lease),
		now:       time.Now, //sonar:nondeterministic-ok lease TTL/expiry is wall-clock by design; campaign outputs never fold over it (tests inject a fake clock)
		metrics:   m,

		campaignsTotal: m.Counter(MetricCampaigns, "Campaigns submitted."),
		running:        m.Gauge(MetricCampaignsRunning, "Campaigns currently running."),
		granted:        m.Counter(MetricLeasesGranted, "Shard leases granted to workers."),
		completed:      m.Counter(MetricLeasesCompleted, "Shard leases completed by a worker report."),
		expired:        m.Counter(MetricLeasesExpired, "Shard leases expired without a report (worker churn)."),
		renewals:       m.Counter(MetricLeaseRenewals, "Lease renewals."),
		stale:          m.Counter(MetricStaleReports, "Reports for expired or already-resolved leases."),
		abandonedCnt:   m.Counter(MetricShardsAbandoned, "Shards abandoned after exhausting lease retries."),
		workerFails:    m.Counter(obs.MetricWorkerFailures, "Failed lease attempts (expiries and abandonments)."),
		parked:         m.Gauge(MetricAcquiresParked, "Acquire requests parked waiting for work."),

		gaugeIters:    m.GaugeVec(MetricCampaignIterations, "Campaign position in iterations.", "campaign"),
		gaugeRound:    m.GaugeVec(MetricCampaignRound, "Completed merge rounds.", "campaign"),
		gaugePoints:   m.GaugeVec(MetricCampaignPoints, "Distinct contention points triggered.", "campaign"),
		gaugeFindings: m.GaugeVec(MetricCampaignFindings, "Verified side-channel findings.", "campaign"),
		gaugeCorpus:   m.GaugeVec(MetricCampaignCorpus, "Merged seed corpus size.", "campaign"),
		gaugeDone:     m.GaugeVec(MetricCampaignDone, "1 once the campaign has finished.", "campaign"),
	}
	ct.work = sync.NewCond(&ct.mu)
	return ct
}

// Metrics returns the controller's metric registry; the server mounts its
// Handler at /metrics.
func (ct *Controller) Metrics() *obs.Metrics { return ct.metrics }

// Submit validates a campaign spec and opens the campaign. FIRRTL specs run
// the contention-point analysis synchronously and complete immediately;
// named-DUT specs elaborate the design (once per name — the analysis is
// shared across campaigns, and the call can take a few seconds for the full
// cores) and open a lease coordinator. All of that runs before the
// controller lock is taken, so a slow submission never stalls acquires and
// reports; only assigning the campaign ID ("c%d" in commit order) and
// registering the campaign happen under it.
func (ct *Controller) Submit(spec *Spec) (*CampaignStatus, error) {
	c, err := ct.newCampaign(spec)
	if err != nil {
		return nil, err
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	c.id = fmt.Sprintf("c%d", len(ct.campaigns)+1)
	ct.campaigns = append(ct.campaigns, c)
	ct.byID[c.id] = c
	ct.campaignsTotal.Inc()
	if !c.done() {
		ct.running.Add(1)
	}
	ct.updateGaugesLocked(c)
	ct.work.Broadcast()
	return ct.statusLocked(c), nil
}

// newCampaign validates a spec and builds its campaign — parse, analysis,
// audit and elaboration — without touching controller state; Submit
// registers the result.
func (ct *Controller) newCampaign(spec *Spec) (*campaign, error) {
	if (spec.DUT == "") == (spec.FIRRTL == "") {
		return nil, fmt.Errorf("%w: spec must set exactly one of dut, firrtl", errBadRequest)
	}
	if spec.Options.BatchSize > maxBatchSize {
		return nil, fmt.Errorf("%w: batch_size %d exceeds %d (lease results must fit the request body cap)", errBadRequest, spec.Options.BatchSize, maxBatchSize)
	}

	c := &campaign{
		lanes:    spec.Lanes,
		granted:  make(map[int]*lease),
		attempts: make(map[int]int),
		reasons:  make(map[int][]string),
	}

	switch {
	case spec.FIRRTL != "" && spec.Options.Iterations < 1:
		net, err := firrtl.ParseChecked(spec.FIRRTL)
		if err != nil {
			return nil, fmt.Errorf("%w: firrtl: %v", errBadRequest, err)
		}
		a := trace.Analyze(net)
		sum, err := auditFIRRTL(net, a)
		if err != nil {
			return nil, err
		}
		c.kind = "analysis"
		c.dutName = net.Name()
		c.audit = sum
		c.analysis = &AnalysisResult{
			Design:          net.Name(),
			NaiveMuxes:      a.NaiveMuxCount,
			TracedPoints:    len(a.Points),
			MonitoredPoints: len(a.Monitored()),
			ByComponent:     a.ByComponent(),
			Audit:           sum,
		}
	case spec.FIRRTL != "":
		// Executable netlist campaign: the source elaborates into a
		// lane-parallel executor here (for the coordinator's analysis and
		// stats folding) and again on every worker that gets a grant.
		src := spec.FIRRTL
		factory, err := fuzz.LaneDUTFactory(func() (*hdl.Netlist, error) {
			return firrtl.ParseChecked(src)
		}, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("%w: firrtl: %v", errBadRequest, err)
		}
		d := factory()
		an := d.ContentionAnalysis()
		sum, err := auditFIRRTL(an.Netlist, an)
		if err != nil {
			return nil, err
		}
		c.kind = "fuzz"
		c.dutName = an.Netlist.Name()
		c.audit = sum
		c.firrtl = src
		c.sink = obs.NewMemorySink()
		opt := spec.Options.Options()
		opt.Observer = obs.New(c.sink)
		c.lc = fuzz.NewLeaseCoordinator(d, opt)
	default:
		if spec.Options.Iterations < 1 {
			return nil, fmt.Errorf("%w: fuzz campaign needs iterations >= 1", errBadRequest)
		}
		name, err := ct.resolveDUT(spec)
		if err != nil {
			return nil, err
		}
		c.kind = "fuzz"
		c.dutName = name
		c.sink = obs.NewMemorySink()
		opt := spec.Options.Options()
		opt.Observer = obs.New(c.sink)
		c.lc = fuzz.NewLeaseCoordinator(ct.factory(name)(), opt)
	}
	return c, nil
}

// resolveDUT maps a spec to the registry name workers will elaborate. A
// dual-core spec resolves to the "-dual" registry variant so the worker's
// SoC matches the shape.
func (ct *Controller) resolveDUT(spec *Spec) (string, error) {
	name := spec.DUT
	if spec.Options.DualCore {
		dual := name + "-dual"
		if _, ok := ct.duts[dual]; !ok {
			return "", fmt.Errorf("%w: no dual-core variant of DUT %q in the registry", errBadRequest, name)
		}
		name = dual
	}
	if _, ok := ct.duts[name]; !ok {
		return "", fmt.Errorf("%w: unknown DUT %q", errBadRequest, spec.DUT)
	}
	return name, nil
}

// factory returns the shared-analysis DUT factory for a registry name. The
// factory itself is safe for concurrent use: concurrent submissions of one
// design elaborate it once.
func (ct *Controller) factory(name string) func() *fuzz.DUT {
	ct.fmu.Lock()
	defer ct.fmu.Unlock()
	f, ok := ct.factories[name]
	if !ok {
		f = fuzz.SharedAnalysisFactory(ct.duts[name])
		ct.factories[name] = f
	}
	return f
}

// Campaigns lists all campaigns in submission order.
func (ct *Controller) Campaigns() []*CampaignStatus {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	out := make([]*CampaignStatus, len(ct.campaigns))
	for i, c := range ct.campaigns {
		out[i] = ct.statusLocked(c)
	}
	return out
}

// Campaign returns one campaign's status.
func (ct *Controller) Campaign(id string) (*CampaignStatus, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	c, ok := ct.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: campaign %q", errNotFound, id)
	}
	return ct.statusLocked(c), nil
}

// Events returns a campaign's JSONL event stream so far (empty for
// analysis-only campaigns, which emit no events).
func (ct *Controller) Events(id string) ([]byte, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	c, ok := ct.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: campaign %q", errNotFound, id)
	}
	if c.sink == nil {
		return nil, nil
	}
	return c.sink.Bytes(), nil
}

// Result returns a campaign's final result; a still-running fuzz campaign
// is a conflict.
func (ct *Controller) Result(id string) (*Result, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	c, ok := ct.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: campaign %q", errNotFound, id)
	}
	if c.kind == "analysis" {
		return &Result{Kind: "analysis", Analysis: c.analysis}, nil
	}
	if !c.lc.Finished() {
		return nil, fmt.Errorf("%w: campaign %q is still running", errConflict, id)
	}
	w := c.lc.Stats().Wire()
	return &Result{Kind: "fuzz", Stats: &w}, nil
}

// Checkpoint returns a fuzz campaign's state as an encoded checkpoint file
// (the same format fuzz.Checkpoint.Save writes), captured at the last
// closed round barrier. Only the snapshot is taken under the controller
// lock; the snapshot shares no mutable state with the campaign, so the
// encoding runs after unlocking and never stalls acquires and reports.
func (ct *Controller) Checkpoint(id string) ([]byte, error) {
	cp, err := ct.snapshot(id)
	if err != nil {
		return nil, err
	}
	return cp.Encode()
}

// snapshot captures a fuzz campaign's checkpoint under the lock.
func (ct *Controller) snapshot(id string) (*fuzz.Checkpoint, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	c, ok := ct.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: campaign %q", errNotFound, id)
	}
	if c.kind != "fuzz" {
		return nil, fmt.Errorf("%w: campaign %q is analysis-only and has no checkpoint", errNotFound, id)
	}
	return c.lc.Snapshot(c.lc.Finished()), nil
}

// Acquire offers a lease to a worker: the first open, un-leased shard of
// the oldest running campaign. held lists the corpus prefixes the worker
// holds; the entry for the granted campaign, if any, lets the lease carry
// only the seeds past it.
//
// With no work to offer — every campaign drained or every open shard
// leased out — Acquire parks for up to wait (capped at MaxAcquireWait)
// until a shard opens, and returns a nil grant (and nil error) if none
// does. A parked acquire also returns nil as soon as ctx is cancelled or
// the controller starts draining. A zero wait answers at once.
func (ct *Controller) Acquire(ctx context.Context, worker string, held []HeldPrefix, wait time.Duration) (*LeaseGrant, error) {
	wait = min(wait, MaxAcquireWait)
	ct.mu.Lock()
	defer ct.mu.Unlock()
	deadline := ct.now().Add(wait)
	// drained is whether the controller was draining when this acquire
	// arrived or last looked: one that arrives during a drain parks until
	// it ends, one parked when a drain starts returns.
	drained := ct.draining
	for {
		ct.sweepLocked()
		if !ct.draining {
			drained = false
			g, err := ct.grantLocked(worker, ct.campaigns, func(c *campaign) fuzz.CorpusPrefix {
				return heldPrefix(held, c.id)
			})
			if g != nil || err != nil {
				return g, err
			}
		} else if !drained {
			return nil, nil
		}
		now := ct.now()
		if ctx.Err() != nil || !now.Before(deadline) {
			return nil, nil
		}
		ct.parkLocked(ctx, ct.wakeLocked(deadline).Sub(now))
	}
}

// grantLocked grants the first open, un-leased shard among cs (oldest
// campaign first), or returns nil when there is none. held gives the corpus
// prefix the worker holds of a campaign.
func (ct *Controller) grantLocked(worker string, cs []*campaign, held func(*campaign) fuzz.CorpusPrefix) (*LeaseGrant, error) {
	for _, c := range cs {
		if c.kind != "fuzz" || c.lc.Finished() {
			continue
		}
		for _, shard := range c.lc.OpenShards() {
			if _, leased := c.granted[shard]; leased {
				continue
			}
			payload, err := c.lc.Lease(shard, held(c))
			if err != nil {
				return nil, err
			}
			l := &lease{
				id:   fmt.Sprintf("%s-r%d-s%d-a%d", c.id, payload.Round, shard, c.attempts[shard]+1),
				camp: c, shard: shard, round: payload.Round,
				attempt: c.attempts[shard] + 1,
				expires: ct.now().Add(ct.cfg.ttl()),
				worker:  worker,
				held:    c.lc.CorpusPrefix(),
			}
			c.granted[shard] = l
			ct.leases[l.id] = l
			ct.granted.Inc()
			return &LeaseGrant{
				LeaseID:   l.id,
				Campaign:  c.id,
				DUT:       c.dutName,
				FIRRTL:    c.firrtl,
				Shape:     c.lc.Shape(),
				Lanes:     c.lanes,
				TTLMillis: ct.cfg.ttl().Milliseconds(),
				Lease:     *payload,
			}, nil
		}
	}
	return nil, nil
}

// wakeLocked returns when a parked acquire must next look again: at its
// deadline, or earlier at the first outstanding lease's expiry — expiry is
// swept lazily, so no other event would re-offer that shard.
func (ct *Controller) wakeLocked(deadline time.Time) time.Time {
	wake := deadline
	for _, l := range ct.leases { //sonar:nondeterministic-ok a minimum over expiry times is order-insensitive
		if l.expires.Before(wake) {
			wake = l.expires
		}
	}
	return wake
}

// parkLocked waits on ct.work for at most d or until ctx is cancelled,
// releasing ct.mu while it waits. Wakeups may be spurious; callers
// re-check their condition.
func (ct *Controller) parkLocked(ctx context.Context, d time.Duration) {
	wake := func() {
		ct.mu.Lock()
		ct.work.Broadcast()
		ct.mu.Unlock()
	}
	t := time.AfterFunc(d, wake)
	stop := context.AfterFunc(ctx, wake)
	ct.parked.Add(1)
	ct.work.Wait()
	ct.parked.Add(-1)
	t.Stop()
	stop()
}

// heldPrefix returns the held entry for a campaign, or the empty prefix.
func heldPrefix(held []HeldPrefix, campaign string) fuzz.CorpusPrefix {
	for _, h := range held {
		if h.Campaign == campaign {
			return h.CorpusPrefix
		}
	}
	return fuzz.CorpusPrefix{}
}

// Renew extends an outstanding lease's TTL.
func (ct *Controller) Renew(leaseID string) (time.Duration, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	l, ok := ct.leases[leaseID]
	if !ok {
		return 0, fmt.Errorf("%w: lease %q expired or already resolved", errGone, leaseID)
	}
	l.expires = ct.now().Add(ct.cfg.ttl())
	ct.renewals.Inc()
	return ct.cfg.ttl(), nil
}

// Report resolves an outstanding lease with its executed result. A result
// for an expired or already-resolved lease is gone (the shard was re-leased
// or the round moved on); a result the coordinator rejects is a bad
// request.
//
// With next set, Report also grants the reporter its next lease of the
// same campaign when one is open after the merge the report triggered — a
// delta against the corpus the reporter holds after this lease — or
// returns a nil grant when none is.
func (ct *Controller) Report(leaseID string, res *fuzz.LeaseResult, next bool) (*LeaseGrant, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	l, ok := ct.leases[leaseID]
	if !ok {
		ct.stale.Inc()
		return nil, fmt.Errorf("%w: lease %q expired or already resolved", errGone, leaseID)
	}
	if res == nil || res.Shard != l.shard || res.Round != l.round {
		return nil, fmt.Errorf("%w: result does not match lease %q (shard %d round %d)", errBadRequest, leaseID, l.shard, l.round)
	}
	if err := l.camp.lc.Report(res); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	delete(ct.leases, leaseID)
	delete(l.camp.granted, l.shard)
	ct.completed.Inc()
	ct.afterAdvanceLocked(l.camp)
	ct.work.Broadcast()
	if !next || ct.draining {
		return nil, nil
	}
	// The report has merged; a grant that fails here leaves the reporter to
	// acquire, which surfaces the error.
	g, _ := ct.grantLocked(l.worker, []*campaign{l.camp}, func(*campaign) fuzz.CorpusPrefix { return l.held })
	return g, nil
}

// Drain switches lease granting off (true) or back on (false). Outstanding
// leases can still be renewed and reported; Acquire returns no work while
// draining (acquires parked when the drain starts return at once, later
// ones park until it ends), so workers idle and the operator can stop them
// or the server.
func (ct *Controller) Drain(on bool) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.draining = on
	ct.work.Broadcast()
}

// Health summarizes the controller for the healthz endpoint.
func (ct *Controller) Health() *Health {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	return &Health{
		Status:     "ok",
		Draining:   ct.draining,
		Campaigns:  len(ct.campaigns),
		OpenLeases: len(ct.leases),
	}
}

// sweepLocked expires overdue leases and abandons shards that exhausted
// their retries. It runs at the top of every API call — the controller has
// no background clock, so expiry is processed lazily but before any state
// is read or changed. Expiry is metrics-only bookkeeping (no events) unless
// it tips a shard into abandonment, which emits the same worker_failed
// events a local campaign's fault disposition does — that is what keeps a
// churned-but-recovered campaign byte-identical to a fault-free local run.
func (ct *Controller) sweepLocked() {
	now := ct.now()
	var due []*lease
	for _, l := range ct.leases { //sonar:nondeterministic-ok expiry candidates are collected then sorted by lease id before any state change
		if !l.expires.After(now) {
			due = append(due, l)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].id < due[j].id })
	if len(due) > 0 {
		ct.work.Broadcast() // the expired leases' shards are open again
	}
	for _, l := range due {
		delete(ct.leases, l.id)
		delete(l.camp.granted, l.shard)
		c := l.camp
		c.attempts[l.shard]++
		c.reasons[l.shard] = append(c.reasons[l.shard],
			fmt.Sprintf("lease %s expired after %v", l.id, ct.cfg.ttl()))
		ct.expired.Inc()
		ct.workerFails.Inc()
		if c.attempts[l.shard] >= ct.cfg.maxAttempts() {
			// Retries exhausted: drop the shard. The coordinator emits one
			// worker_failed per expired lease plus the disposition at the
			// round barrier.
			if err := c.lc.Abandon(l.shard, c.reasons[l.shard]); err == nil {
				ct.abandonedCnt.Inc()
				ct.workerFails.Inc()
				ct.afterAdvanceLocked(c)
			}
		}
	}
}

// afterAdvanceLocked refreshes derived state after a coordinator mutation:
// round-scoped churn bookkeeping resets when the barrier closes, gauges
// re-publish, and a finished campaign leaves the running set.
func (ct *Controller) afterAdvanceLocked(c *campaign) {
	if r := c.lc.Round(); r != c.lastRound {
		c.lastRound = r
		c.attempts = make(map[int]int)
		c.reasons = make(map[int][]string)
	}
	ct.updateGaugesLocked(c)
	if c.lc.Finished() {
		ct.running.Add(-1)
	}
}

// updateGaugesLocked publishes a campaign's per-campaign gauges.
func (ct *Controller) updateGaugesLocked(c *campaign) {
	done := 0.0
	if c.done() {
		done = 1
	}
	ct.gaugeDone.At(c.id).Set(done)
	if c.kind != "fuzz" {
		return
	}
	st := c.lc.Stats()
	ct.gaugeIters.At(c.id).Set(float64(c.lc.Position()))
	ct.gaugeRound.At(c.id).Set(float64(c.lc.Round()))
	ct.gaugePoints.At(c.id).Set(float64(len(st.TriggeredPoints)))
	ct.gaugeFindings.At(c.id).Set(float64(len(st.Findings)))
	ct.gaugeCorpus.At(c.id).Set(float64(c.lc.CorpusLen()))
}

// statusLocked builds a campaign's API status.
func (ct *Controller) statusLocked(c *campaign) *CampaignStatus {
	s := &CampaignStatus{
		ID:    c.id,
		Kind:  c.kind,
		State: "running",
		DUT:   c.dutName,
		Lanes: c.lanes,
		Audit: c.audit,
	}
	if c.done() {
		s.State = "done"
	}
	if c.kind == "fuzz" {
		shape := c.lc.Shape()
		st := c.lc.Stats()
		s.Shape = &shape
		s.Round = c.lc.Round()
		s.Done = c.lc.Position()
		s.Points = len(st.TriggeredPoints)
		s.Findings = len(st.Findings)
		s.CorpusSize = c.lc.CorpusLen()
		s.GrantedLeases = len(c.granted)
	}
	return s
}
