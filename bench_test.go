// Benchmarks regenerating every table and figure of the paper's evaluation
// (§8). Each benchmark wraps the corresponding internal/experiments
// generator; run them all with
//
//	go test -bench=. -benchmem
//
// Reported custom metrics carry the experiment's headline numbers (counts,
// reductions, gains) so a benchmark run doubles as a results summary; see
// EXPERIMENTS.md for paper-vs-measured values.
package sonar

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sonar/internal/boom"
	"sonar/internal/experiments"
	"sonar/internal/fuzz"
)

// benchIters is the campaign length used by the campaign benchmarks. The
// paper runs 3000 iterations; benchmarks use a shorter budget so the full
// suite stays in CI range. cmd/sonar-bench -iters 3000 reproduces the
// paper-scale run.
const benchIters = 500

func BenchmarkTable1_DUTConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1().String() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFigure6_ContentionPointIdentification(b *testing.B) {
	var rs []experiments.Figure6Result
	for i := 0; i < b.N; i++ {
		rs = experiments.Figure6()
	}
	b.ReportMetric(float64(rs[0].TracedPoints), "boom-points")
	b.ReportMetric(100*rs[0].Reduction(), "boom-reduction-%")
	b.ReportMetric(float64(rs[1].TracedPoints), "nutshell-points")
	b.ReportMetric(100*rs[1].Reduction(), "nutshell-reduction-%")
}

func BenchmarkFigure7_DistributionAndFiltering(b *testing.B) {
	var rs []experiments.Figure7Result
	for i := 0; i < b.N; i++ {
		rs = experiments.Figure7()
	}
	b.ReportMetric(100*rs[0].FilterReduction(), "boom-filtered-%")
	b.ReportMetric(100*rs[1].FilterReduction(), "nutshell-filtered-%")
}

func BenchmarkTable2_InstrumentationOverhead(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2(10)
	}
	for _, r := range rows {
		b.ReportMetric(100*r.SimSlowdown(), r.DUT+"-sim-slowdown-%")
		b.ReportMetric(100*r.CompileOverhead(), r.DUT+"-compile-overhead-%")
	}
}

func BenchmarkFigure8_SonarVsRandom(b *testing.B) {
	var rs []experiments.Figure8Result
	for i := 0; i < b.N; i++ {
		rs = experiments.Figure8(benchIters)
	}
	for _, r := range rs {
		b.ReportMetric(100*r.ContentionGain(), r.DUT+"-contention-gain-%")
		b.ReportMetric(100*r.TimingDiffGain(), r.DUT+"-timingdiff-gain-%")
	}
}

func BenchmarkFigure9_SingleValidDominance(b *testing.B) {
	var r experiments.Figure9Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure9()
	}
	b.ReportMetric(100*r.DominanceShare(), "single-valid-share-%")
}

func BenchmarkFigure10_StrategyBreakdown(b *testing.B) {
	var r experiments.Figure10Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure10(benchIters)
	}
	for _, s := range r.Series {
		name := strings.ReplaceAll(s.Name, " ", "-")
		b.ReportMetric(float64(s.Final().CumPoints), name+"-points")
	}
}

func BenchmarkFigure11_SonarVsSpecDoctor(b *testing.B) {
	var r experiments.Figure11Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure11(benchIters)
	}
	b.ReportMetric(r.NewContentionRatio(), "sonar/specdoctor-ratio")
	last := r.Complexity[len(r.Complexity)-1]
	b.ReportMetric(float64(last.SpecDoctorNs)/float64(last.SonarNs), "instr-cost-ratio-at-16k")
}

func BenchmarkTable3_SideChannels(b *testing.B) {
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3(3)
	}
	detected := 0
	for _, r := range rows {
		if r.TimeDiff > 0 {
			detected++
		}
	}
	b.ReportMetric(float64(detected), "channels-with-timing-diff")
	b.ReportMetric(float64(len(rows)), "channels-total")
}

func BenchmarkExploitation_PoCAccuracy(b *testing.B) {
	var rs []AttackResult
	for i := 0; i < b.N; i++ {
		rs = experiments.Exploitation(1, 5)
	}
	recovered := 0
	for _, r := range rs {
		if r.KeyAccuracy >= 1 {
			recovered++
		}
	}
	b.ReportMetric(float64(recovered), "keys-recovered")
	b.ReportMetric(float64(len(rs)), "pocs-total")
}

// campaignResult is one row of BENCH_campaign.json — the machine-readable
// throughput record the CI perf gate (cmd/sonar-benchguard) compares against
// the committed baseline. TestMain writes the file after the campaign
// benchmarks run; plain test runs produce no records and no file.
type campaignResult struct {
	// ItersPerSec is fuzzing iterations (testcase x two secrets) per second.
	ItersPerSec float64 `json:"iters_per_sec"`
	// NsPerIter is wall-clock nanoseconds per fuzzing iteration.
	NsPerIter float64 `json:"ns_per_iter"`
	// AllocsPerIter is heap allocations per fuzzing iteration, measured
	// over the whole campaign (includes DUT construction amortized over
	// the run, so it is small but nonzero even with an alloc-free Execute).
	AllocsPerIter float64 `json:"allocs_per_iter"`
	// CyclesPerSec is simulated DUT cycles per wall-clock second.
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// Cores is the effective parallelism of the measuring process
	// (GOMAXPROCS), recorded so the benchguard scaling gate can cap its
	// expectations at what the runner can physically deliver.
	Cores int `json:"cores"`
	// ScalingVsParallel1 is this entry's iters_per_sec over the same run's
	// CampaignParallel1 — the parallel-scaling ratio the benchguard
	// efficiency floor checks. Zero when CampaignParallel1 was not measured
	// in the same run.
	ScalingVsParallel1 float64 `json:"scaling_vs_parallel1"`
	// LanesSpeedup is a wide lane entry's cycles_per_sec over the same run's
	// scalar entry of the same workload: CampaignLanes64 over CampaignLanes1
	// (the bit-parallel evaluator vs 64 scalar replays) and
	// CampaignNetlistLanes64 over CampaignNetlistLanes1 (a full lane-group
	// campaign vs the same campaign at Lanes=1). Enforced by the benchguard
	// lane floors (-lane-speedup, -campaign-lane-speedup). Recorded only on
	// the wide entries.
	LanesSpeedup float64 `json:"lanes_speedup,omitempty"`
}

var (
	campaignResultsMu sync.Mutex
	campaignResults   = map[string]campaignResult{}
)

// benchJSONPath returns where the campaign benchmarks write their results;
// override with SONAR_BENCH_JSON.
func benchJSONPath() string {
	if p := os.Getenv("SONAR_BENCH_JSON"); p != "" {
		return p
	}
	return "BENCH_campaign.json"
}

// TestMain flushes the campaign benchmark records to BENCH_campaign.json.
// See docs/PERFORMANCE.md for the file format and the CI regression gate.
func TestMain(m *testing.M) {
	code := m.Run()
	campaignResultsMu.Lock()
	defer campaignResultsMu.Unlock()
	// Parallel-scaling ratios: each CampaignParallelN entry records its
	// throughput relative to CampaignParallel1 from the same run.
	if base, ok := campaignResults["CampaignParallel1"]; ok && base.ItersPerSec > 0 {
		for name, r := range campaignResults {
			if strings.HasPrefix(name, "CampaignParallel") {
				r.ScalingVsParallel1 = r.ItersPerSec / base.ItersPerSec
				campaignResults[name] = r
			}
		}
	}
	// Lane speedups: each wide entry's cycle throughput relative to the
	// scalar entry of the same workload from the same run — the evaluator
	// ratio for the CampaignLanes micro pair, the end-to-end campaign ratio
	// for the CampaignNetlistLanes pair (see lane_bench_test.go).
	for _, pair := range [][2]string{
		{"CampaignLanes1", "CampaignLanes64"},
		{"CampaignNetlistLanes1", "CampaignNetlistLanes64"},
	} {
		if l1, ok := campaignResults[pair[0]]; ok && l1.CyclesPerSec > 0 {
			if lw, ok := campaignResults[pair[1]]; ok {
				lw.LanesSpeedup = lw.CyclesPerSec / l1.CyclesPerSec
				campaignResults[pair[1]] = lw
			}
		}
	}
	if len(campaignResults) > 0 {
		data, err := json.MarshalIndent(campaignResults, "", "  ")
		if err == nil {
			err = os.WriteFile(benchJSONPath(), append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench json:", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

// recordCampaign runs one campaign benchmark body under alloc/cycle
// accounting and files the result for the BENCH_campaign.json emitter.
// run executes one full campaign and returns its simulated cycle count.
func recordCampaign(b *testing.B, name string, run func() int64) {
	recordThroughput(b, name, benchIters, run)
}

// recordThroughput is the shared benchmark recorder: run is executed b.N
// times under alloc/cycle accounting, with each execution counting as
// itersPerRun iterations (fuzzing iterations for the campaign benchmarks,
// testcases for the lane benchmarks).
func recordThroughput(b *testing.B, name string, itersPerRun int, run func() int64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs0 := ms.Mallocs
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles += run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	secs := b.Elapsed().Seconds()
	iters := float64(itersPerRun) * float64(b.N)
	r := campaignResult{
		ItersPerSec:   iters / secs,
		NsPerIter:     b.Elapsed().Seconds() * 1e9 / iters,
		AllocsPerIter: float64(ms.Mallocs-allocs0) / iters,
		CyclesPerSec:  float64(cycles) / secs,
		Cores:         runtime.GOMAXPROCS(0),
	}
	b.ReportMetric(r.ItersPerSec, "iters/sec")
	b.ReportMetric(r.CyclesPerSec, "cycles/sec")
	campaignResultsMu.Lock()
	campaignResults[name] = r
	campaignResultsMu.Unlock()
}

// Campaign-engine throughput: serial Run (the engine at one shard on one
// DUT) vs sharded runs at increasing worker counts. The metric is fuzzing
// iterations per second; the parallel entries should scale with physical
// cores (Workers=1 retraces the serial campaign exactly, see
// TestParallelWorkers1MatchesSerial).
// Workers share one contention-point analysis (fuzz.SharedAnalysisFactory),
// as the production engines do via core.Sonar.
func benchmarkCampaign(b *testing.B, workers int) {
	opt := fuzz.SonarOptions(benchIters)
	opt.Workers = workers
	recordCampaign(b, fmt.Sprintf("CampaignParallel%d", workers), func() int64 {
		st := fuzz.RunParallel(fuzz.SharedAnalysisFactory(boom.NewLite), opt)
		if len(st.PerIteration) != benchIters {
			b.Fatal("campaign incomplete")
		}
		return st.ExecutedCycles
	})
}

func BenchmarkCampaignSerial(b *testing.B) {
	mkDUT := fuzz.SharedAnalysisFactory(boom.NewLite)
	recordCampaign(b, "CampaignSerial", func() int64 {
		st := fuzz.Run(mkDUT(), fuzz.SonarOptions(benchIters))
		if len(st.PerIteration) != benchIters {
			b.Fatal("campaign incomplete")
		}
		return st.ExecutedCycles
	})
}

// Single-iteration hot path: one testcase executed under one secret on a
// warm DUT. This is the unit the campaign engines repeat ~2N times per
// N-iteration campaign; steady state performs zero heap allocations
// (TestExecuteSteadyStateAllocFree pins that).
func BenchmarkExecute(b *testing.B) {
	d := fuzz.NewDUT(boom.NewLite())
	tc := fuzz.Generate(rand.New(rand.NewSource(1)), false)
	d.Execute(tc, 0) // warm the arenas
	d.Execute(tc, ^uint64(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Execute(tc, uint64(i)&1)
	}
}

func BenchmarkCampaignParallel1(b *testing.B) { benchmarkCampaign(b, 1) }
func BenchmarkCampaignParallel2(b *testing.B) { benchmarkCampaign(b, 2) }
func BenchmarkCampaignParallel4(b *testing.B) { benchmarkCampaign(b, 4) }
func BenchmarkCampaignParallel8(b *testing.B) { benchmarkCampaign(b, 8) }

// Ablation benches for the design choices DESIGN.md calls out.

// Risk filtering off: every traced point is instrumented; the metric is
// the extra monitors carried.
func BenchmarkAblation_NoRiskFilter(b *testing.B) {
	r := experiments.AblationNoFilter()
	for i := 1; i < b.N; i++ {
		r = experiments.AblationNoFilter()
	}
	b.ReportMetric(float64(r.MonitorsFiltered), "monitors-with-filter")
	b.ReportMetric(float64(r.MonitorsUnfiltered), "monitors-without-filter")
}

// Monitoring window off: states are collected over the whole run; the
// metric is the state-diff noise per finding.
func BenchmarkAblation_NoMonitoringWindow(b *testing.B) {
	r := experiments.AblationWindow(60)
	for i := 1; i < b.N; i++ {
		r = experiments.AblationWindow(60)
	}
	b.ReportMetric(r.StateDiffsWindowed, "statediffs/finding-windowed")
	b.ReportMetric(r.StateDiffsAlways, "statediffs/finding-whole-run")
}

// CCD vs raw commit-time comparison: the metric is how many flagged
// instructions the CCD metric filters out as in-order-commit artifacts.
func BenchmarkAblation_CCDvsRawCommitTimes(b *testing.B) {
	r := experiments.AblationCCD(60)
	for i := 1; i < b.N; i++ {
		r = experiments.AblationCCD(60)
	}
	b.ReportMetric(r.RawFlagged, "raw-flagged/testcase")
	b.ReportMetric(r.CCDFlagged, "ccd-flagged/testcase")
}

// Directed mutation vs random mutation at equal budget (the Figure 10
// delta, isolated).
func BenchmarkAblation_DirectedVsRandomMutation(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure10(benchIters)
		directed := r.Series[3].Final().CumPoints
		random := r.Series[1].Final().CumPoints
		gain = float64(directed) / float64(random)
	}
	b.ReportMetric(gain, "directed/random-ratio")
}

// The adaptive direction memory of the directed mutation (§6.2.1) vs
// random directions at equal budget.
func BenchmarkAblation_AdaptiveDirection(b *testing.B) {
	var r experiments.AblationDirectionResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationDirection(benchIters)
	}
	b.ReportMetric(float64(r.AdaptivePoints), "adaptive-points")
	b.ReportMetric(float64(r.RandomDirPoints), "randomdir-points")
	b.ReportMetric(float64(r.AdaptiveTimingDiffs), "adaptive-timingdiffs")
	b.ReportMetric(float64(r.RandomDirTimingDiffs), "randomdir-timingdiffs")
}

// Mitigation extension (§8.6): coarse timers and bus partitioning versus
// the strongest PoCs.
func BenchmarkMitigations(b *testing.B) {
	var rows []experiments.MitigationRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Mitigations(5)
	}
	for _, r := range rows {
		if r.Mitigation == "baseline" {
			b.ReportMetric(100*r.BitAccuracy, r.PoC+"-baseline-acc-%")
		}
	}
}

var _ = fuzz.SonarOptions // keep the import for documentation links
