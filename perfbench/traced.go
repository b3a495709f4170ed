package main

// The traced run: the per-layer breakdown of one workload. It runs the
// workload's campaign untraced (the overhead baseline), then traced through
// the seams, then replays the campaign's testcases and final corpus through
// each layer's public calls, timing every call in a span.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"

	"sonar/internal/boom"
	"sonar/internal/detect"
	"sonar/internal/fuzz"
	"sonar/internal/hdl"
	"sonar/internal/hdl/flow"
	"sonar/internal/hdl/gen"
	"sonar/internal/isa"
	"sonar/internal/monitor"
	"sonar/internal/obs"
	"sonar/internal/sim"
	"sonar/internal/trace"
	"sonar/internal/uarch"
)

// Stated tolerances of the two breakdown checks.
const (
	// executeTolerance bounds the median share of a replayed executor call
	// that the same call, replayed one layer at a time, leaves unexplained
	// (see replayExec). The layers are checked against the executor call
	// replayed beside them, not against the campaign's own
	// fuzz.execute.p50_us: on a shared 2-core VM the host's speed drifts by
	// up to 30% between the campaign and the replays, seconds later. The
	// residual against the campaign is printed beside it.
	executeTolerance = 0.10
	// workerTolerance bounds the share of workers x campaign wall time not
	// covered by execute busy time, engine self time and the waits between
	// merge rounds: each worker's lead-in and tail (the last worker to
	// finish, the final fold).
	workerTolerance = 0.10
)

// Replay sizes.
const (
	replaySample  = 192  // testcases replayed through uarch/monitor/detect
	lanePasses    = 24   // lane passes per side (with and without LaneBank)
	selectReplays = 2000 // Corpus.Select + MutateDirected replays
	fleetProbe    = 1024 // budget of the loopback lease probe on local workloads
)

// layers collects the per-layer metrics of one traced run.
type layers map[string]float64

func (l layers) ms(name string, d time.Duration) { l[name] = d.Seconds() * 1e3 }
func (l layers) us(name string, d time.Duration) { l[name] = d.Seconds() * 1e6 }

// tracedRun is the traced measurement of w at seed.
func tracedRun(w workload, seed int64, out string) (*result, error) {
	tr := &tracer{campaign: fmt.Sprintf("%s-s%d-p%d", w.name, seed, os.Getpid())}
	L := layers{}
	setupRoot, setupStart := tr.newID(), now()
	if err := replaySetup(tr, setupRoot, w, L); err != nil {
		return nil, err
	}
	tr.add(setupRoot, 0, "replay.setup", setupStart, now())

	base, err := measure(w, seed, true)
	if err != nil {
		return nil, err
	}
	r := &result{Workload: w.name, Seed: seed, Attempted: base.Attempted, Failed: base.Failed, Errors: base.Errors, Layers: L}
	untracedIPS := float64(base.Iters) / base.SteadyS

	ckpt := filepath.Join(out, "tmp", fmt.Sprintf("ckpt-%d", os.Getpid()))
	defer os.Remove(ckpt)

	// The traced campaign. On the fleet workload the executors are built
	// inside fleet.RunWorker, out of the decorator's reach, so the executor
	// seam and engine metrics come from a traced local campaign of the same
	// shape (its output is byte-identical, see measure).
	var tracedIPS float64
	if w.fleet {
		root, start := tr.newID(), now()
		hp := newHTTPProbe(tr, root)
		fr, err := runFleet(shapeOf(w, seed), hp)
		if err != nil {
			return nil, err
		}
		tr.add(root, 0, "campaign", start, fr.end)
		tracedIPS = float64(w.iters) / fr.steady().Seconds()
		fleetLayers(L, hp)
	}
	probe := &execProbe{
		tr: tr, root: tr.newID(),
		every: int64(max(1, w.iters/replaySample)), secretA: w.options(seed).SecretA,
		perRound: 2 * batch, // one call per secret and testcase
	}
	if w.lanes > 1 {
		probe.perRound = 1 // one lane group holds a whole batch
	}
	lr, err := runLocal(w, seed, probe, ckpt)
	if err != nil {
		return nil, err
	}
	probe.finish()
	if err := engineLayers(L, lr); err != nil {
		return nil, err
	}
	// The final checkpoint save (the corpus the engine replays below need)
	// is not part of the untraced campaign: leave it out of the wall time.
	steady := lr.steady().Seconds() - L["fuzz.checkpoint.save_ms"]/1e3
	name := "campaign"
	if w.fleet {
		name = "campaign.local-reference"
	} else {
		tracedIPS = float64(w.iters) / steady
	}
	tr.add(probe.root, 0, name, lr.start, lr.end)

	L["tracing.untraced_iters_per_s"] = untracedIPS
	L["tracing.traced_iters_per_s"] = tracedIPS
	L["tracing.overhead_ratio"] = untracedIPS/tracedIPS - 1
	L["uarch.cycles_per_iter"] = float64(base.Cycles) / float64(base.Iters)
	L["fuzz.allocs_per_iter"] = base.AllocsPerIter
	L["detect.timing_diff_iters"] = float64(base.TimingDiffs)
	L["detect.channel_families"] = float64(base.Families)
	L["detect.iters_to_first_finding"] = float64(base.FirstFinding)

	// Replays, each call in a span under one root.
	root, start := tr.newID(), now()
	wholeUs, partsUs, residual, err := replayExec(tr, root, w, seed, probe.sample, L, r)
	if err != nil {
		return nil, err
	}
	cp, err := fuzz.LoadCheckpoint(ckpt)
	if err != nil {
		return nil, err
	}
	if err := replayEngine(tr, root, cp, seed, L); err != nil {
		return nil, err
	}
	if !w.fleet {
		hp := newHTTPProbe(tr, root)
		probeShape := shapeOf(workload{iters: fleetProbe}, seed)
		if _, err := runFleet(probeShape, hp); err != nil {
			return nil, fmt.Errorf("fleet probe: %w", err)
		}
		fleetLayers(L, hp)
	}
	tr.add(root, 0, "replay", start, now())

	// Breakdown checks.
	p50 := L["fuzz.execute.p50_us"]
	L["breakdown.replay_execute_us"] = wholeUs
	L["breakdown.replay_layers_us"] = partsUs
	L["breakdown.execute_residual"] = residual
	L["breakdown.campaign_residual"] = (p50 - partsUs) / p50
	wall := float64(workers) * steady
	busy, self, wait := L["fuzz.execute.busy_s"], L["fuzz.engine.self_s"], L["fuzz.barrier.wait_s"]
	L["breakdown.worker_residual"] = (wall - busy - self - wait) / wall
	fmt.Fprintf(os.Stderr, "breakdown: replayed layers %.1fus vs replayed executor call %.1fus (residual %+.3f, tolerance %.2f) vs campaign p50 %.1fus (residual %+.3f)\n",
		partsUs, wholeUs, L["breakdown.execute_residual"], executeTolerance, p50, L["breakdown.campaign_residual"])
	fmt.Fprintf(os.Stderr, "breakdown: execute busy %.3fs + engine self %.3fs + barrier wait %.3fs vs %d workers x %.3fs wall (residual %+.3f, tolerance %.2f)\n",
		busy, self, wait, workers, steady, L["breakdown.worker_residual"], workerTolerance)
	r.check(math.Abs(L["breakdown.execute_residual"]) <= executeTolerance, "execute breakdown residual %.3f beyond %.2f", L["breakdown.execute_residual"], executeTolerance)
	r.check(math.Abs(L["breakdown.worker_residual"]) <= workerTolerance, "worker breakdown residual %.3f beyond %.2f", L["breakdown.worker_residual"], workerTolerance)

	// Spans out, self time per layer.
	path := filepath.Join(out, "spans", tr.campaign+".jsonl")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(path); err != nil {
		return nil, err
	}
	printSelfTimes(tr, path)
	return r, nil
}

// printSelfTimes reports each span name's self time on stderr.
func printSelfTimes(tr *tracer, path string) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(os.Stderr, "self time by layer (%d spans, campaign %s, written to %s):\n", len(tr.spans), tr.campaign, path)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %10.4fs\n", n, self[n].Seconds())
	}
}

// engineLayers reads the executor seam and the observer's metrics
// exposition of a traced local campaign.
func engineLayers(L layers, lr *localRun) error {
	p := lr.probe
	L["fuzz.execute.busy_s"] = p.busy.Seconds()
	L["fuzz.execute.calls"] = float64(p.calls)
	L.us("fuzz.execute.p50_us", quantile(p.durations, 0.5))
	L.us("fuzz.execute.p99_us", quantile(p.durations, 0.99))

	m, err := obs.ParseExposition(lr.observe.Metrics.ExpositionText())
	if err != nil {
		return fmt.Errorf("campaign metrics: %w", err)
	}
	var busy float64
	for k, v := range m {
		if strings.HasPrefix(k, obs.MetricWorkerBusy+"{") {
			busy += v
		}
	}
	L["fuzz.engine.self_s"] = busy - p.busy.Seconds()
	L["fuzz.barrier.wait_s"] = p.barrier.Seconds()
	L["fuzz.mutation_accept_ratio"] = m[obs.MetricMutationAccept]
	if n := m[obs.MetricMergeLatency+"_count"]; n > 0 {
		L["fuzz.barrier.merge_mean_ms"] = m[obs.MetricMergeLatency+"_sum"] / n * 1e3
	}
	L["fuzz.checkpoint.save_ms"] = m[obs.MetricCheckpointLatency+"_sum"] * 1e3
	return nil
}

// fleetLayers reads the fleet seams.
func fleetLayers(L layers, hp *httpProbe) {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	L.ms("fleet.acquire.p50_ms", quantile(hp.rtt["acquire"], 0.5))
	L.ms("fleet.acquire.p99_ms", quantile(hp.rtt["acquire"], 0.99))
	L.ms("fleet.report.p50_ms", quantile(hp.rtt["report"], 0.5))
	L.ms("fleet.report.p99_ms", quantile(hp.rtt["report"], 0.99))
	L.ms("fleet.acquire.server_ms", quantile(hp.server["acquire"], 0.5))
	L.ms("fleet.checkpoint.pull_ms", quantile(hp.rtt["checkpoint"], 0.5))
	L["fleet.lease.grants"] = float64(len(hp.rtt["acquire"]))
	L["fleet.lease.bytes"] = float64(quantile(hp.grantBytes, 0.5))
}

// heapLive is the live heap after a full collection.
func heapLive() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// replaySetup times the set-up layers on the workload's own design. It runs
// first in the traced process, so the heap the executors retain is
// measured against a fresh process.
func replaySetup(tr *tracer, root int64, w workload, L layers) error {
	h0 := heapLive()
	var execs [workers]fuzz.Executor
	var err error
	tr.time(root, "setup.executors", func() {
		var f func() fuzz.Executor
		if f, err = w.factory(); err == nil {
			for i := range execs {
				execs[i] = f()
			}
		}
	})
	if err != nil {
		return err
	}
	L["setup.heap_mb"] = (float64(heapLive()) - float64(h0)) / 1e6
	L["monitor.points"] = float64(len(execs[0].ContentionAnalysis().Monitored()))
	runtime.KeepAlive(execs)

	var net *hdl.Netlist
	var els, tas, fas []time.Duration
	for i := 0; i < 3; i++ {
		els = append(els, tr.time(root, "uarch.elaborate", func() {
			if w.soc != nil {
				net = w.soc().Net
			} else {
				net, err = gen.New(netCfg)
			}
		}))
	}
	if err != nil {
		return err
	}
	var an *trace.Analysis
	for i := 0; i < 3; i++ {
		tas = append(tas, tr.time(root, "trace.analyze", func() { an = trace.Analyze(net) }))
	}
	for i := 0; i < 2; i++ {
		fas = append(fas, tr.time(root, "flow.analyze", func() { flow.Analyze(net, an, flow.Spec{}) }))
	}
	L["uarch.elaborate_s"] = quantile(els, 0.5).Seconds()
	L["trace.analyze_s"] = quantile(tas, 0.5).Seconds()
	L["flow.analyze_s"] = quantile(fas, 0.5).Seconds()
	return nil
}

// replayExec replays the campaign's sampled testcases through the
// execution layers, one call at a time on one goroutine: a per-layer
// figure is the cost of that layer's call on an otherwise idle machine.
// For the execute breakdown it returns, in microseconds, the median of the
// executor call replayed whole and the median of the same call replayed
// one layer at a time, interleaved in one loop: DUT.Execute on behavioural
// workloads, LaneDUT.ExecuteGroup of 32 pairs at Lanes=64 on the netlist.
// The residual is the median over calls of (whole - layers) / whole, each
// from one call and its layer-by-layer twin, adjacent in time, so a drift
// in the host's speed during the replay does not enter it.
func replayExec(tr *tracer, root int64, w workload, seed int64, sample []*fuzz.Testcase, L layers, r *result) (whole, parts, residual float64, err error) {
	// The netlist workload has no behavioural core; its testcases are
	// replayed on boom-lite.
	mkSoC := w.soc
	if mkSoC == nil {
		mkSoC = boom.NewLite
	}
	newLaneDUT, err := workload{lanes: hdl.Lanes}.factory()
	if err != nil {
		return 0, 0, 0, err
	}
	opt := w.options(seed)
	secrets := [2]uint64{opt.SecretA, opt.SecretB}
	var d dutReplay
	d.run(tr, root, fuzz.NewDUT(mkSoC()), mkSoC(), sample, secrets)
	var l laneReplay
	if err := l.run(tr, root, newLaneDUT().(fuzz.GroupExecutor), sample, secrets, seed); err != nil {
		return 0, 0, 0, err
	}

	r.check(d.mismatched == 0, "bare and monitored replays disagree on cycle counts in %d runs", d.mismatched)
	if d.cycles > 0 {
		L["uarch.run_ns_per_cycle"] = float64(d.bareNs) / float64(d.cycles)
		L["monitor.hook_ns_per_cycle"] = float64(d.runNs-d.bareNs) / float64(d.cycles)
	}
	L.us("uarch.reset_us", quantile(d.socResets, 0.5))
	L.us("monitor.reset_us", quantile(d.monResets, 0.5))
	L.us("fuzz.load_us", quantile(d.loads, 0.5))
	L.us("monitor.snapshot_us", quantile(d.snaps, 0.5))
	L.us("detect.analyze_us", quantile(d.analyses, 0.5))

	laneCycles := float64(len(l.passes) * netCycles * hdl.Lanes)
	L["sim.compile_s"] = quantile(l.compiles, 0.5).Seconds()
	L["sim.lane_eval_ns_per_lane_cycle"] = float64(l.bareTicks.Nanoseconds()) / laneCycles
	L["monitor.lanebank_ns_per_lane_cycle"] = float64((l.monTicks - l.bareTicks).Nanoseconds()) / laneCycles
	wholes, layered := d.wholes, d.calls
	if w.lanes > 1 {
		wholes, layered = l.groups, l.passes
	}
	shares := make([]float64, len(wholes))
	for i := range wholes {
		shares[i] = float64(wholes[i]-layered[i]) / float64(wholes[i])
	}
	us := func(ds []time.Duration) float64 { return quantile(ds, 0.5).Seconds() * 1e6 }
	return us(wholes), us(layered), quantile(shares, 0.5), nil
}

// dutReplay is the behavioural replay.
type dutReplay struct {
	wholes                             []time.Duration
	calls, socResets, monResets, loads []time.Duration
	snaps, analyses                    []time.Duration
	runNs, bareNs, cycles              int64
	mismatched                         int
}

// arena is one secret's buffers in the behavioural replay.
type arena struct {
	prog isa.Program
	log  []uarch.CommitRecord
	snap monitor.Snapshot
}

// run executes each testcase under both secrets with DUT.Execute, then
// again the way DUT.Execute does it, one public call at a time: SoC reset,
// monitor reset, program build and load, the monitored run, the monitor
// snapshot; detect.Analyze compares each A/B pair. A second pass runs the same programs on a bare SoC with no
// monitor attached, the unmonitored baseline. The passes are separate so
// that each, like a campaign worker, keeps one SoC's state in cache.
func (d *dutReplay) run(tr *tracer, root int64, dut *fuzz.DUT, bare *uarch.SoC, tcs []*fuzz.Testcase, secrets [2]uint64) {
	var ars [2]arena
	var cycles []int64
	for _, tc := range tcs {
		for i, secret := range secrets {
			d.wholes = append(d.wholes, tr.time(root, "replay.executor-call", func() { dut.Execute(tc, secret) }))
			a := &ars[i]
			callID := tr.newID()
			t0 := now()
			dut.SoC.Reset()
			t1 := now()
			dut.Mon.Reset()
			t2 := now()
			load(dut.SoC, tc, secret, &a.prog, a.log)
			t3 := now()
			c := dut.SoC.Run()
			t4 := now()
			a.log = dut.SoC.Cores[0].CommitLog
			dut.Mon.SnapshotInto(&a.snap)
			t5 := now()
			tr.add(0, callID, "uarch.reset", t0, t1)
			tr.add(0, callID, "monitor.reset", t1, t2)
			tr.add(0, callID, "fuzz.load", t2, t3)
			tr.add(0, callID, "uarch.run+monitor.hooks", t3, t4)
			tr.add(0, callID, "monitor.snapshot", t4, t5)
			tr.add(callID, root, "replay.layers", t0, t5)
			d.socResets = append(d.socResets, time.Duration(t1-t0))
			d.monResets = append(d.monResets, time.Duration(t2-t1))
			d.loads = append(d.loads, time.Duration(t3-t2))
			d.snaps = append(d.snaps, time.Duration(t5-t4))
			d.calls = append(d.calls, time.Duration(t5-t0))
			d.runNs += t4 - t3
			d.cycles += c
			cycles = append(cycles, c)
		}
		d.analyses = append(d.analyses, tr.time(root, "detect.analyze", func() {
			detect.Analyze(ars[0].log, ars[1].log, &ars[0].snap, &ars[1].snap)
		}))
	}

	bare.Mem.SetPrivRange(fuzz.PrivBase, fuzz.PrivLimit)
	a := &ars[0]
	for j, tc := range tcs {
		for i, secret := range secrets {
			bare.Reset()
			load(bare, tc, secret, &a.prog, a.log)
			b0 := now()
			c := bare.Run()
			b1 := now()
			a.log = bare.Cores[0].CommitLog
			tr.add(0, root, "uarch.run.bare", b0, b1)
			d.bareNs += b1 - b0
			if c != cycles[2*j+i] {
				d.mismatched++
			}
		}
	}
}

// load installs the secret and the testcase's program on a reset SoC's
// victim core, as DUT.Execute does; log is the commit-log buffer to reuse.
func load(soc *uarch.SoC, tc *fuzz.Testcase, secret uint64, prog *isa.Program, log []uarch.CommitRecord) {
	soc.Mem.Write(fuzz.SecretAddr, secret, 8)
	s, e := tc.BuildInto(prog)
	v := soc.Cores[0]
	v.CommitLog = log[:0]
	v.LoadProgram(prog)
	v.SetSecretRange(s, e)
}

// laneReplay is the lane-evaluator replay.
type laneReplay struct {
	compiles, passes, groups []time.Duration
	bareTicks, monTicks      time.Duration
}

// laneSide is one compiled lane simulator of the replay and its inputs.
type laneSide struct {
	ls   *sim.LaneSimulator
	an   *trace.Analysis
	ins  []*hdl.Signal
	bank *monitor.LaneBank
}

// build elaborates and compiles the netlist workload's design the way
// fuzz.LaneDUT does: the compile keeps exactly what a monitor reads.
func (l *laneReplay) build(tr *tracer, root int64) (laneSide, error) {
	net, err := gen.New(netCfg)
	if err != nil {
		return laneSide{}, err
	}
	s := laneSide{an: trace.Analyze(net)}
	var keep []*hdl.Signal
	for _, p := range s.an.Monitored() {
		for i := range p.Requests {
			keep = append(keep, p.Requests[i].Data)
			keep = append(keep, p.Requests[i].Valids...)
		}
	}
	for _, sig := range net.Signals() {
		if sig.Kind() == hdl.Input {
			s.ins = append(s.ins, sig)
		}
	}
	l.compiles = append(l.compiles, tr.time(root, "sim.compile", func() {
		s.ls, err = sim.NewLanesOpt(net, sim.CompileOptions{Keep: keep})
	}))
	return s, err
}

// run times lane passes with and without a LaneBank: every lane driven by
// its own hashed stimulus, held for netHold cycles, as fuzz.LaneDUT drives
// it. Each pass follows a whole LaneDUT.ExecuteGroup of a lane group of the
// sampled testcases.
func (l *laneReplay) run(tr *tracer, root int64, group fuzz.GroupExecutor, sample []*fuzz.Testcase, secrets [2]uint64, seed int64) error {
	bare, err := l.build(tr, root)
	if err != nil {
		return err
	}
	mon, err := l.build(tr, root)
	if err != nil {
		return err
	}
	mon.bank = monitor.NewLaneBank(mon.an, monitor.Config{}, mon.ls)
	rng := rand.New(rand.NewSource(seed))
	var snap monitor.Snapshot
	pass := func(s laneSide, name string) (ticks, total time.Duration) {
		id, start := tr.newID(), now()
		s.ls.Reset()
		if s.bank != nil {
			s.bank.Reset()
			s.bank.SetWindowAll(true)
		}
		salt := rng.Uint64()
		for cyc := 0; cyc < netCycles; cyc++ {
			if cyc%netHold == 0 {
				for k, in := range s.ins {
					for lane := 0; lane < hdl.Lanes; lane++ {
						s.ls.SetLane(in, lane, mix(salt, uint64(cyc), uint64(lane), uint64(k)))
					}
				}
			}
			t0 := now()
			s.ls.Tick()
			ticks += time.Duration(now() - t0)
		}
		if s.bank != nil {
			for lane := 0; lane < hdl.Lanes; lane++ {
				s.bank.SnapshotLaneInto(lane, &snap)
			}
		}
		end := now()
		tr.add(id, root, name, start, end)
		return ticks, time.Duration(end - start)
	}
	var pairs []fuzz.ExecPair
	width := group.GroupWidth()
	for i := 0; i < lanePasses; i++ {
		tcs := make([]*fuzz.Testcase, width)
		for j := range tcs {
			tcs[j] = sample[(i*width+j)%len(sample)]
		}
		// A random order, so that no one of the three always runs first.
		steps := []func(){
			func() {
				l.groups = append(l.groups, tr.time(root, "replay.executor-call", func() {
					pairs = group.ExecuteGroup(tcs, secrets[0], secrets[1], hdl.Lanes, pairs[:0])
				}))
			},
			func() {
				t, _ := pass(bare, "sim.lane-pass")
				l.bareTicks += t
			},
			func() {
				t, total := pass(mon, "sim.lane-pass+monitor.lanebank")
				l.monTicks += t
				l.passes = append(l.passes, total)
			},
		}
		rng.Shuffle(len(steps), func(a, b int) { steps[a], steps[b] = steps[b], steps[a] })
		for _, step := range steps {
			step()
		}
	}
	return nil
}

// mix is a 64-bit mixing hash of its arguments.
func mix(xs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range xs {
		h ^= x
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return h
}

// replayEngine times the engine's corpus and durability calls on the
// campaign's final checkpoint: re-encoding it, re-offering its seeds to a
// fresh corpus, and selecting and mutating seeds from that corpus.
func replayEngine(tr *tracer, root int64, cp *fuzz.Checkpoint, seed int64, L layers) error {
	var enc []time.Duration
	var b []byte
	var err error
	for i := 0; i < 3; i++ {
		enc = append(enc, tr.time(root, "fuzz.checkpoint.encode", func() { b, err = cp.Encode() }))
		if err != nil {
			return err
		}
	}
	L.ms("fuzz.checkpoint.encode_ms", quantile(enc, 0.5))
	L["fuzz.checkpoint.bytes"] = float64(len(b))

	c := fuzz.NewCorpus()
	var offers, selects, mutates []time.Duration
	for _, sw := range cp.Corpus.Seeds {
		tc, err := fuzz.Unmarshal(sw.TC)
		if err != nil {
			return fmt.Errorf("corpus seed: %w", err)
		}
		intvls := make(map[int]int64, len(sw.Intvls))
		for _, pi := range sw.Intvls {
			intvls[pi.Point] = pi.Intvl
		}
		offers = append(offers, tr.time(root, "fuzz.corpus.offer", func() { c.Offer(tc, intvls, sw.Dir, sw.Target) }))
	}
	rng := rand.New(rand.NewSource(seed))
	if c.Len() == 0 {
		c.Offer(fuzz.Generate(rng, false), map[int]int64{0: 1}, 1, 0)
	}
	for i := 0; i < selectReplays; i++ {
		var s *fuzz.Seed
		selects = append(selects, tr.time(root, "fuzz.corpus.select", func() { s, _ = c.Select(rng, true) }))
		mutates = append(mutates, tr.time(root, "fuzz.mutate", func() { fuzz.MutateDirected(s, rng) }))
	}
	L.us("fuzz.corpus.offer_us", quantile(offers, 0.5))
	L.us("fuzz.corpus.select_us", quantile(selects, 0.5))
	L.us("fuzz.mutate_us", quantile(mutates, 0.5))
	return nil
}

// quantile is the nearest-rank q-quantile of xs (zero for none).
func quantile[T cmp.Ordered](xs []T, q float64) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}
