package fleet

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sonar/internal/firrtl"
	"sonar/internal/fuzz"
	"sonar/internal/hdl"
	"sonar/internal/uarch"
)

// WorkerOptions parameterizes a worker loop.
type WorkerOptions struct {
	// ID is the worker's self-assigned identifier, recorded on its leases.
	ID string
	// Poll is how long to back off after a failed acquire (server
	// restarting, transient network) before trying again; zero means 500ms.
	// With no work to offer, the server parks the acquire instead, so an
	// idle worker never sleeps between attempts.
	Poll time.Duration
	// MaxLeases stops the worker after executing this many leases; zero
	// means run until the context is cancelled.
	MaxLeases int
	// Lanes overrides the server's suggested evaluator lane width
	// (operational; does not affect results). Zero uses the suggestion.
	Lanes int
	// DUTs is the worker's DUT registry; nil means Builtins. It must
	// resolve every name the server grants, i.e. server and workers must
	// agree on the registry.
	DUTs map[string]func() *uarch.SoC
}

// maxAcquireFailures is how many consecutive failed acquire calls a worker
// tolerates (server restarting, transient network) before giving up.
const maxAcquireFailures = 50

// maxHeldCorpora is how many campaigns' corpus prefixes a worker keeps
// decoded. Beyond it the least recently granted campaign's prefix is
// dropped; that campaign's next lease then carries its full corpus.
const maxHeldCorpora = 4

// heldEntry is one campaign's decoded corpus prefix in a worker's cache.
type heldEntry struct {
	campaign string
	corpus   *fuzz.HeldCorpus
	lastUse  int // grant count at the campaign's latest grant
}

// heldCache is a worker's per-campaign corpus prefixes: what lets each
// lease carry only the seeds merged since the worker's previous one.
type heldCache struct {
	entries []heldEntry
	grants  int
}

// prefixes returns the acquire body's held list, sorted by campaign.
func (hc *heldCache) prefixes() []HeldPrefix {
	var held []HeldPrefix
	for _, e := range hc.entries {
		if p := e.corpus.Prefix(); p.Seeds > 0 {
			held = append(held, HeldPrefix{Campaign: e.campaign, CorpusPrefix: p})
		}
	}
	sort.Slice(held, func(i, j int) bool { return held[i].Campaign < held[j].Campaign })
	return held
}

// granted returns the held corpus of a campaign that was just granted a
// lease, adding it — and evicting the least recently granted campaign
// beyond maxHeldCorpora — when it is new.
func (hc *heldCache) granted(campaign string) *fuzz.HeldCorpus {
	hc.grants++
	for i := range hc.entries {
		if hc.entries[i].campaign == campaign {
			hc.entries[i].lastUse = hc.grants
			return hc.entries[i].corpus
		}
	}
	if len(hc.entries) == maxHeldCorpora {
		lru := 0
		for i, e := range hc.entries {
			if e.lastUse < hc.entries[lru].lastUse {
				lru = i
			}
		}
		hc.entries = append(hc.entries[:lru], hc.entries[lru+1:]...)
	}
	e := heldEntry{campaign: campaign, corpus: &fuzz.HeldCorpus{}, lastUse: hc.grants}
	hc.entries = append(hc.entries, e)
	return e.corpus
}

// RunWorker runs the lease-execution loop against a campaign server until
// the context is cancelled (returns nil), MaxLeases is reached, or an
// unrecoverable error occurs. It returns the number of leases executed.
//
// The loop is: acquire → elaborate the granted DUT (once per design name;
// the DUT is reused across leases) → execute the lease → report. The
// acquire long-polls for the server's longest wait (MaxAcquireWait): the
// server parks it until a lease opens, and cancelling ctx abandons it at
// once. The report asks for the worker's next lease of the same campaign in
// its reply, so while a campaign has work a lease costs one round trip,
// not two. The worker keeps each leased campaign's decoded corpus (up to
// maxHeldCorpora campaigns) and lists it in every acquire, so a lease only
// ships the seeds merged since the worker's previous one. While executing,
// a background goroutine renews the lease at a third of its TTL so slow
// batches survive; if a report still races an expiry the server
// answers 409, the result is discarded, and the re-offered lease
// re-executes deterministically elsewhere — campaign results are
// unaffected. Likewise, a worker cancelled right after a report reply
// granted it a lease leaves that lease to expire and be re-offered, as a
// killed worker's would be.
func RunWorker(ctx context.Context, client *Client, opt WorkerOptions) (int, error) {
	poll := opt.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	duts := opt.DUTs
	if duts == nil {
		duts = Builtins()
	}
	executors := make(map[string]fuzz.Executor)
	var held heldCache
	executed := 0
	failures := 0
	var g *LeaseGrant // the next lease, when a report reply granted one
	for {
		if err := ctx.Err(); err != nil {
			return executed, nil
		}
		if g == nil {
			var err error
			g, err = client.AcquireWait(ctx, opt.ID, held.prefixes(), MaxAcquireWait)
			if ctx.Err() != nil {
				return executed, nil
			}
			if err != nil {
				failures++
				if failures >= maxAcquireFailures {
					return executed, fmt.Errorf("fleet: worker %s: acquire failed %d times in a row: %w", opt.ID, failures, err)
				}
				if !sleep(ctx, poll) {
					return executed, nil
				}
				continue
			}
			failures = 0
			if g == nil {
				continue
			}
		}

		// FIRRTL grants carry the design and elaborate into a lane-parallel
		// netlist executor, cached per campaign (two campaigns may submit
		// different sources under the same circuit name); named grants
		// resolve against the worker's registry, cached per design name.
		// The executor is reused across leases, as a local shard worker
		// reuses its DUT across batches: an execution does not depend on
		// earlier ones, so no lease pays for building a DUT.
		key := g.DUT
		if g.FIRRTL != "" {
			key = "firrtl/" + g.Campaign
		}
		ex, ok := executors[key]
		if !ok {
			if g.FIRRTL != "" {
				src := g.FIRRTL
				lf, err := fuzz.LaneDUTFactory(func() (*hdl.Netlist, error) {
					return firrtl.ParseChecked(src)
				}, 0, 0)
				if err != nil {
					return executed, fmt.Errorf("fleet: worker %s: lease %s: firrtl: %w", opt.ID, g.LeaseID, err)
				}
				ex = lf()
			} else {
				mk, known := duts[g.DUT]
				if !known {
					return executed, fmt.Errorf("fleet: worker %s: server granted unknown DUT %q (registry mismatch)", opt.ID, g.DUT)
				}
				ex = fuzz.NewDUT(mk())
			}
			executors[key] = ex
		}

		lanes := opt.Lanes
		if lanes == 0 {
			lanes = g.Lanes
		}
		stopRenew := renewLoop(client, g)
		res, err := fuzz.ExecuteLeaseExec(func() fuzz.Executor { return ex }, g.Shape, lanes, &g.Lease, held.granted(g.Campaign))
		stopRenew()
		if err != nil {
			// A lease the engine rejects (shape mismatch, a corpus base the
			// worker does not hold) cannot succeed on retry either; let it
			// expire and surface the error.
			return executed, fmt.Errorf("fleet: worker %s: lease %s: %w", opt.ID, g.LeaseID, err)
		}
		last := opt.MaxLeases > 0 && executed+1 >= opt.MaxLeases
		id := g.LeaseID
		if last || ctx.Err() != nil {
			// Ask for no next lease: this worker would not run it.
			g, err = nil, client.Report(id, res)
		} else {
			g, err = client.ReportNext(id, res)
		}
		if err != nil {
			// 409: the lease expired under us and was re-offered; the
			// result is simply discarded. Anything else is fatal.
			if ae, ok := err.(*APIError); !ok || ae.Status != 409 {
				return executed, fmt.Errorf("fleet: worker %s: report lease %s: %w", opt.ID, id, err)
			}
		}
		executed++
		if last {
			return executed, nil
		}
	}
}

// renewLoop renews a granted lease at a third of its TTL until the returned
// stop function is called. Renewal errors are ignored: a lost lease just
// means the eventual report is discarded.
func renewLoop(client *Client, g *LeaseGrant) func() {
	interval := time.Duration(g.TTLMillis) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_ = client.Renew(g.LeaseID)
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// sleep waits d or until the context is cancelled; it reports whether the
// full duration elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
