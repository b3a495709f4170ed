package fuzz

import "sonar/internal/trace"

// Executor is the execution substrate a campaign fuzzes: anything that can
// double-execute testcases and expose the contention-point analysis its
// snapshots refer to. The behavioral DUT models (package boom/nutshell via
// *DUT) and the netlist-backed LaneDUT both satisfy it, so the campaign
// engine — serial Run, RunParallelExec shards, shard leases — runs
// unchanged over either substrate.
//
// Contract: Execute returns an Execution whose buffers may live in recycled
// arenas; a result must stay valid across at least one subsequent Execute on
// the same executor (the dual-secret A/B pattern), exactly like DUT.Execute.
// ContentionAnalysis must return the same analysis (same point IDs) for
// every executor instance of one campaign, so stats fold identically across
// workers and fault-recovery replacements.
type Executor interface {
	// Execute runs one testcase under one secret value.
	Execute(tc *Testcase, secret uint64) *Execution
	// ContentionAnalysis returns the §5 contention-point identification the
	// executor's snapshots are indexed by.
	ContentionAnalysis() *trace.Analysis
}

// ExecPair is one iteration's dual execution: the same testcase run under
// SecretA and SecretB.
type ExecPair struct {
	// A and B are the executions under Options.SecretA and SecretB.
	A, B *Execution
}

// GroupExecutor is an Executor that executes whole lane groups of testcases
// at once — the netlist substrate's bit-parallel path (sim.LaneSimulator +
// monitor.LaneBank evaluate one testcase per bit of every plane word).
//
// The campaign engine drives a GroupExecutor through a fixed three-phase
// batch loop (prepare all, execute all, feed back all, each in ascending
// lane order) whose RNG draw order depends only on GroupWidth — never on
// Options.Lanes. Lanes is passed through as the chunk argument and may only
// change how the group is internally sliced across execution passes; the
// per-pair Executions must be a pure function of (testcase, secret), so
// campaign results stay byte-identical at every lane width (the
// TestLaneMatrix contract, extended to netlist DUTs by
// TestNetlistLaneMatrix).
type GroupExecutor interface {
	Executor
	// GroupWidth is the fixed number of testcase pairs one group holds.
	// Widths <= 1 opt out of grouped execution (the behavioral scalar path).
	GroupWidth() int
	// ExecuteGroup double-executes tcs (len(tcs) <= GroupWidth) under both
	// secrets, appending one ExecPair per testcase to dst in testcase order.
	// chunk is the effective Options.Lanes value: how many lanes (two per
	// pair) the executor may evaluate bit-parallel per pass; chunk <= 1
	// requests the scalar reference path. All returned Executions must stay
	// valid until the next ExecuteGroup or Execute call.
	ExecuteGroup(tcs []*Testcase, secretA, secretB uint64, chunk int, dst []ExecPair) []ExecPair
}

// ContentionAnalysis implements Executor; the behavioral DUT's analysis is
// computed (or rebound) at construction.
func (d *DUT) ContentionAnalysis() *trace.Analysis { return d.Analysis }
