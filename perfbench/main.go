// Command perfbench is the repository benchmark: it runs one named campaign
// workload for a fixed time, checks the campaigns' outputs, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the last
// line of its standard output. See README.md in this directory.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload boom-lite --seed 1 --seconds 20 --trace 0
//
// Each campaign runs in a fresh child process of this binary, so set-up
// time and heap are measured as a user starting a campaign sees them; the
// parent repeats campaigns until the time is up and reports medians.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported metric and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metric{
	{"iters_per_s", "1/s"},
	{"sim_cycles_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"contention_points", "count"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
var perLayer = []metric{
	{"uarch.elaborate_s", "s"},
	{"uarch.run_ns_per_cycle", "ns"},
	{"uarch.cycles_per_iter", "count"},
	{"uarch.reset_us", "us"},
	{"monitor.reset_us", "us"},
	{"monitor.hook_ns_per_cycle", "ns"},
	{"monitor.snapshot_us", "us"},
	{"monitor.lanebank_ns_per_lane_cycle", "ns"},
	{"monitor.points", "count"},
	{"sim.lane_eval_ns_per_lane_cycle", "ns"},
	{"sim.compile_s", "s"},
	{"trace.analyze_s", "s"},
	{"flow.analyze_s", "s"},
	{"setup.heap_mb", "MB"},
	{"detect.analyze_us", "us"},
	{"detect.timing_diff_iters", "count"},
	{"detect.channel_families", "count"},
	{"detect.iters_to_first_finding", "count"},
	{"fuzz.load_us", "us"},
	{"fuzz.execute.busy_s", "s"},
	{"fuzz.execute.calls", "count"},
	{"fuzz.execute.p50_us", "us"},
	{"fuzz.execute.p99_us", "us"},
	{"fuzz.engine.self_s", "s"},
	{"fuzz.mutate_us", "us"},
	{"fuzz.corpus.select_us", "us"},
	{"fuzz.corpus.offer_us", "us"},
	{"fuzz.mutation_accept_ratio", "ratio"},
	{"fuzz.barrier.merge_mean_ms", "ms"},
	{"fuzz.barrier.wait_s", "s"},
	{"fuzz.allocs_per_iter", "count"},
	{"fuzz.checkpoint.encode_ms", "ms"},
	{"fuzz.checkpoint.save_ms", "ms"},
	{"fuzz.checkpoint.bytes", "bytes"},
	{"fleet.acquire.p50_ms", "ms"},
	{"fleet.acquire.p99_ms", "ms"},
	{"fleet.report.p50_ms", "ms"},
	{"fleet.report.p99_ms", "ms"},
	{"fleet.acquire.server_ms", "ms"},
	{"fleet.checkpoint.pull_ms", "ms"},
	{"fleet.lease.bytes", "bytes"},
	{"fleet.lease.grants", "count"},
	{"breakdown.replay_execute_us", "us"},
	{"breakdown.replay_layers_us", "us"},
	{"breakdown.execute_residual", "ratio"},
	{"breakdown.campaign_residual", "ratio"},
	{"breakdown.worker_residual", "ratio"},
	{"tracing.untraced_iters_per_s", "1/s"},
	{"tracing.traced_iters_per_s", "1/s"},
	{"tracing.overhead_ratio", "ratio"},
}

// hardStop is when the parent stops starting campaigns, and killDeadline
// when it kills one still running, so that it exits within 180 seconds.
const (
	hardStop     = 140 * time.Second
	killDeadline = 170 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name: boom-lite, netlist-lanes64, boom-lite-fleet")
		seed    = flag.Int64("seed", 1, "workload seed; campaign seeds are derived from it")
		seconds = flag.Int("seconds", 20, "how long to measure")
		traced  = flag.Int("trace", 0, "1: print the per-layer metrics of a traced run")
		out     = flag.String("out", ".bench_build", "directory for spans, temporary files and the result history")
		child   = flag.Bool("child", false, "internal: run one campaign and print its result")
		verify  = flag.Bool("verify", false, "internal: with -child, also check the campaign against a second one")
	)
	flag.Parse()
	w, ok := lookup(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *child {
		runChild(w, *seed, *traced == 1, *verify, *out)
		return
	}
	if err := os.MkdirAll(filepath.Join(*out, "tmp"), 0o755); err != nil {
		fatalf("%v", err)
	}
	fp := fingerprint()
	runs, err := drive(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	if err != nil {
		fatalf("%v", err)
	}
	line := report(runs, *traced == 1)
	record := map[string]any{"fingerprint": fp, "workload": w.name, "seed": *seed, "trace": *traced, "result": line}
	rec, _ := json.Marshal(record)
	fmt.Println(string(rec))
	appendHistory(filepath.Join(*out, "results.jsonl"), rec)
	last, _ := json.Marshal(line)
	fmt.Println(string(last))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// runChild measures one campaign and prints its result as JSON.
func runChild(w workload, seed int64, traced, verify bool, out string) {
	var (
		r   *result
		err error
	)
	if traced {
		r, err = tracedRun(w, seed, out)
	} else {
		r, err = measure(w, seed, verify)
	}
	if err != nil {
		fatalf("%s seed %d: %v", w.name, seed, err)
	}
	b, _ := json.Marshal(r)
	fmt.Println(string(b))
}

// drive runs child campaigns, cycling through the derived campaign seeds,
// until the measuring time is up. An untraced run measures every derived
// seed at least once and the first one at least twice, so that at least
// one campaign is checked against a repeat of itself; a traced run measures
// the first derived seed at least once. The first campaign of a run also
// makes the checks against a second campaign (see measure).
func drive(w workload, seed int64, seconds time.Duration, traced bool, out string) ([][]*result, error) {
	start := time.Now()
	seeds := w.seeds
	if traced {
		seeds = 1
	}
	runs := make([][]*result, seeds)
	complete := func() bool {
		for _, rs := range runs {
			if len(rs) == 0 {
				return false
			}
		}
		return traced || len(runs[0]) >= 2
	}
	var longest time.Duration
	failures := 0
	for k := 0; ; k++ {
		i := k % seeds
		elapsed := time.Since(start)
		if complete() && elapsed >= seconds {
			break
		}
		if elapsed+longest > hardStop {
			break
		}
		t0 := time.Now()
		ctx, cancel := context.WithDeadline(context.Background(), start.Add(killDeadline))
		r, err := runOne(ctx, w, campaignSeed(seed, i), traced, k == 0, out)
		cancel()
		longest = max(longest, time.Since(t0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: campaign %d of %s: %v\n", k, w.name, err)
			failures++
			if failures > 2 {
				return nil, errors.New("too many failed campaigns")
			}
			continue
		}
		if !traced {
			fmt.Fprintf(os.Stderr, "perfbench: %s campaign seed %d: setup %.4fs, %d iterations in %.3fs (%.1f/s), peak heap %.1fMB\n",
				w.name, r.Seed, r.SetupS, r.Iters, r.SteadyS, float64(r.Iters)/r.SteadyS, r.PeakHeapMB)
		}
		runs[i] = append(runs[i], r)
	}
	for i, rs := range runs {
		if len(rs) == 0 {
			return nil, fmt.Errorf("no campaign of derived seed %d completed", i)
		}
	}
	if failures > 0 {
		runs[0][0].fail("%d campaign processes failed", failures)
	}
	if !complete() {
		runs[0][0].fail("stopped at %v before the first campaign seed was repeated", hardStop)
	}
	return runs, nil
}

// runOne runs one campaign in a child process and reads its result.
func runOne(ctx context.Context, w workload, seed int64, traced, verify bool, out string) (*result, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, os.Args[0], "-child", "-workload", w.name, "-seed", fmt.Sprint(seed), "-trace", tr,
		fmt.Sprintf("-verify=%t", verify), "-out", out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: check failed: %s\n", w.name, seed, e)
	}
	return &r, nil
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the benchmark's last output line.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report aggregates the child results of one run.
func report(runs [][]*result, traced bool) line {
	var (
		l                     = line{Metrics: map[string]value{}}
		all                   []*result
		iters, cycles, steady float64
		points                float64
	)
	for _, rs := range runs {
		all = append(all, rs...)
		for _, r := range rs[1:] {
			l.Attempted++
			if r.Digest != rs[0].Digest {
				l.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: output differs between repeats\n", r.Workload, r.Seed)
			}
		}
		// Each seed's campaigns are identical work: take its median time.
		iters += float64(rs[0].Iters)
		cycles += float64(rs[0].Cycles)
		steady += median(rs, func(r *result) float64 { return r.SteadyS })
		points += float64(rs[0].Points)
	}
	for _, r := range all {
		l.Attempted += r.Attempted
		l.Failed += r.Failed
	}
	l.Correct = l.Failed == 0
	if traced {
		for _, m := range perLayer {
			l.Metrics[m.name] = value{median(all, func(r *result) float64 { return r.Layers[m.name] }), m.unit}
		}
		return l
	}
	vals := map[string]float64{
		"iters_per_s":       iters / steady,
		"sim_cycles_per_s":  cycles / steady,
		"setup_s":           median(all, func(r *result) float64 { return r.SetupS }),
		"peak_heap_mb":      median(all, func(r *result) float64 { return r.PeakHeapMB }),
		"contention_points": points / float64(len(runs)),
	}
	for _, m := range endToEnd {
		l.Metrics[m.name] = value{vals[m.name], m.unit}
	}
	return l
}

// median is the median of f over rs.
func median(rs []*result, f func(*result) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// fingerprint describes the machine and the code a result was measured on.
func fingerprint() map[string]any {
	fp := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"source":     sourceDigest("."),
	}
	// Only a checkout of its own: a copy inside another repository must not
	// report that repository's commit.
	if _, err := os.Stat(".git"); err != nil {
		return fp
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp["commit"] = strings.TrimSpace(string(b))
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// appendHistory appends one result record to the run history. The history
// is a convenience: failing to write it is reported, not fatal.
func appendHistory(path string, rec []byte) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err == nil {
		_, err = f.Write(append(rec, '\n'))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result history: %v\n", err)
	}
}
