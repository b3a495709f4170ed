package fuzz

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"sonar/internal/obs"
)

// heldOf returns a HeldCorpus holding the first n seeds of a full lease's
// corpus, as a worker that executed an earlier lease would.
func heldOf(t testing.TB, full *Lease, n int) *HeldCorpus {
	t.Helper()
	h := &HeldCorpus{}
	prefix := &Lease{Corpus: CorpusWire{Seeds: full.Corpus.Seeds[:n]}}
	if _, err := h.resolve(prefix); err != nil {
		t.Fatalf("resolve %d-seed prefix: %v", n, err)
	}
	return h
}

// wireJSON marshals v, failing the test on error.
func wireJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	return b
}

// deltaCoordinator advances a lease campaign until its corpus holds at least
// three seeds, so delta leases have a prefix to leave out.
func deltaCoordinator(t *testing.T) *LeaseCoordinator {
	t.Helper()
	opt := SonarOptions(160)
	opt.Workers = 2
	opt.BatchSize = 8
	opt.Observer = obs.New()
	lc := NewLeaseCoordinator(liteFactory(), opt)
	for lc.CorpusLen() < 3 && !lc.Finished() {
		driveRounds(t, lc, 1)
	}
	if lc.CorpusLen() < 3 || lc.Finished() {
		t.Fatalf("campaign reached corpus %d (finished %v); want >= 3 seeds mid-campaign", lc.CorpusLen(), lc.Finished())
	}
	return lc
}

// A lease to a worker holding the first n seeds carries exactly seeds[n:]
// of the full lease, with the full best list, and executing it against the
// held prefix returns the full lease's result byte for byte — on one DUT
// reused across the executions, as a fleet worker reuses its DUT.
func TestLeaseDeltaCarriesSuffix(t *testing.T) {
	lc := deltaCoordinator(t)
	full, err := lc.Lease(0, CorpusPrefix{})
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	total := len(full.Corpus.Seeds)
	if full.Base != 0 || full.BaseSum != "" || total != lc.CorpusLen() {
		t.Fatalf("full lease: base %d sum %q with %d of %d seeds", full.Base, full.BaseSum, total, lc.CorpusLen())
	}
	want := wireJSON(t, execLease(t, lc.Shape(), 1, full))
	reused := liteFactory()
	for n := 1; n <= total; n++ {
		held := heldOf(t, full, n)
		p := held.Prefix()
		if p.Seeds != n || len(p.Sum) != 64 {
			t.Fatalf("prefix of %d seeds = %+v", n, p)
		}
		delta, err := lc.Lease(0, p)
		if err != nil {
			t.Fatalf("Lease(held %d): %v", n, err)
		}
		if delta.Base != n || delta.BaseSum != p.Sum {
			t.Fatalf("held %d: lease base %d sum %q, want %d %q", n, delta.Base, delta.BaseSum, n, p.Sum)
		}
		if got, want := wireJSON(t, delta.Corpus.Seeds), wireJSON(t, full.Corpus.Seeds[n:]); !bytes.Equal(got, want) {
			t.Fatalf("held %d: delta seeds differ from full seeds[%d:]", n, n)
		}
		if got, want := wireJSON(t, delta.Corpus.Best), wireJSON(t, full.Corpus.Best); !bytes.Equal(got, want) {
			t.Fatalf("held %d: delta best list differs from the full one", n)
		}

		// Over the wire, against the held prefix: the full lease's bytes.
		var wire Lease
		if err := json.Unmarshal(wireJSON(t, delta), &wire); err != nil {
			t.Fatalf("unmarshal delta lease: %v", err)
		}
		res, err := ExecuteLeaseExec(func() Executor { return reused }, lc.Shape(), 1, &wire, held)
		if err != nil {
			t.Fatalf("ExecuteLeaseExec(held %d): %v", n, err)
		}
		if got := wireJSON(t, res); !bytes.Equal(got, want) {
			t.Fatalf("held %d: delta lease result differs from the full lease's", n)
		}
		if got := held.Prefix(); got.Seeds != total || got.Sum != heldOf(t, full, total).Prefix().Sum {
			t.Fatalf("held %d: after execution holds %+v, want the full %d-seed corpus", n, got, total)
		}
	}
}

// A prefix the coordinator cannot vouch for — wrong digest, too long, or
// negative — gets the full corpus, never a delta.
func TestLeaseMismatchedPrefixGetsFullCorpus(t *testing.T) {
	lc := deltaCoordinator(t)
	full, err := lc.Lease(1, CorpusPrefix{})
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	good := heldOf(t, full, 2).Prefix()
	other := heldOf(t, full, 1).Prefix()
	for name, p := range map[string]CorpusPrefix{
		"wrong digest":   {Seeds: 2, Sum: other.Sum},
		"garbled digest": {Seeds: 2, Sum: strings.ToUpper(good.Sum)},
		"too long":       {Seeds: lc.CorpusLen() + 1, Sum: good.Sum},
		"negative":       {Seeds: -1, Sum: good.Sum},
		"no digest":      {Seeds: 2},
	} {
		l, err := lc.Lease(1, p)
		if err != nil {
			t.Fatalf("%s: Lease: %v", name, err)
		}
		if l.Base != 0 || l.BaseSum != "" || !bytes.Equal(wireJSON(t, l), wireJSON(t, full)) {
			t.Errorf("%s: lease base %d, want the full lease", name, l.Base)
		}
	}
}

// A forged or stale base — beyond the held prefix, with a digest that does
// not match it, or negative — is an error that leaves the held prefix as it
// was.
func TestLeaseForgedBaseRejected(t *testing.T) {
	lc := deltaCoordinator(t)
	full, err := lc.Lease(0, CorpusPrefix{})
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	n := len(full.Corpus.Seeds)
	held := heldOf(t, full, 2)
	before := held.Prefix()
	delta, err := lc.Lease(0, before)
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	stale := heldOf(t, full, 1).Prefix().Sum
	for name, mutate := range map[string]func(l *Lease){
		"base beyond held": func(l *Lease) { l.Base, l.BaseSum = n, full.BaseSum },
		"stale base_sum":   func(l *Lease) { l.BaseSum = stale },
		"missing base_sum": func(l *Lease) { l.BaseSum = "" },
		"negative base":    func(l *Lease) { l.Base = -1 },
		"shifted base":     func(l *Lease) { l.Base = 1 },
		"garbled new seed": func(l *Lease) { l.Corpus.Seeds[0].TC = "not a testcase" },
		"base past corpus": func(l *Lease) { l.Base = 1 << 40 },
	} {
		var forged Lease
		if err := json.Unmarshal(wireJSON(t, delta), &forged); err != nil {
			t.Fatal(err)
		}
		mutate(&forged)
		if _, err := ExecuteLeaseExec(liteExec, lc.Shape(), 1, &forged, held); err == nil {
			t.Errorf("%s: forged lease executed", name)
		}
		if got := held.Prefix(); got != before {
			t.Errorf("%s: rejected lease changed the held prefix to %+v", name, got)
		}
	}
	// A delta lease without any held prefix is just as forged.
	if _, err := ExecuteLeaseExec(liteExec, lc.Shape(), 1, delta, nil); err == nil {
		t.Error("delta lease executed without a held prefix")
	}
	// The genuine delta still resolves afterwards.
	if _, err := ExecuteLeaseExec(liteExec, lc.Shape(), 1, delta, held); err != nil {
		t.Fatalf("genuine delta lease rejected: %v", err)
	}
}

// The corpus a lease resolves to is a frozen view of the held seeds: the
// first retained seed thaws it onto private storage instead of appending
// into the held list's spare capacity.
func TestResolvedCorpusDoesNotAliasHeldSeeds(t *testing.T) {
	held := heldOf(t, leaseFuzzSeeds(), 3)
	c, err := held.resolve(&Lease{Base: 3, BaseSum: held.Prefix().Sum})
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if cap(held.seeds) == len(held.seeds) {
		t.Fatal("held seed list has no spare capacity; the test needs some")
	}
	tc := Generate(rand.New(rand.NewSource(1)), false)
	if c.Offer(tc, map[int]int64{99: 1}, 1, 99) == nil {
		t.Fatal("improving offer rejected")
	}
	if spare := held.seeds[:len(held.seeds)+1]; spare[len(held.seeds)] != nil {
		t.Fatal("Offer appended into the held seed list")
	}
	if c.Len() != 4 || held.Prefix().Seeds != 3 {
		t.Fatalf("corpus %d seeds, held %d; want 4 and 3", c.Len(), held.Prefix().Seeds)
	}
}

// leaseFuzzSeeds builds a full lease over a few generated testcases, the
// held prefix fuzz inputs resolve against.
func leaseFuzzSeeds() *Lease {
	rng := rand.New(rand.NewSource(3))
	l := &Lease{Corpus: CorpusWire{Best: []PointIntvl{{Point: 1, Intvl: 4}, {Point: 7, Intvl: 0}}}}
	for i := 0; i < 4; i++ {
		l.Corpus.Seeds = append(l.Corpus.Seeds, SeedWire{
			TC:     Generate(rng, i == 3).Marshal(),
			Intvls: []PointIntvl{{Point: 1, Intvl: int64(4 + i)}, {Point: 7, Intvl: int64(i)}},
			Dir:    1 - 2*(i%2), Target: i,
		})
	}
	return l
}

// FuzzLeaseResolve feeds JSON-decoded leases — genuine deltas, full leases
// and forgeries — to a worker holding a corpus prefix. Resolution must
// return an error or a corpus of exactly base+len(seeds) seeds, never panic.
func FuzzLeaseResolve(f *testing.F) {
	full := leaseFuzzSeeds()
	const heldSeeds = 2
	sum := heldOf(f, full, heldSeeds).Prefix().Sum
	add := func(l *Lease) { f.Add(wireJSON(f, l)) }
	add(full)
	add(&Lease{Base: heldSeeds, BaseSum: sum, Corpus: CorpusWire{Seeds: full.Corpus.Seeds[heldSeeds:], Best: full.Corpus.Best}})
	add(&Lease{Base: heldSeeds, BaseSum: sum})
	add(&Lease{Base: heldSeeds + 1, BaseSum: sum})
	add(&Lease{Base: 1, BaseSum: sum, Corpus: full.Corpus})
	add(&Lease{Base: -3})
	f.Add([]byte(`{"base":2,"base_sum":"00","corpus":{"seeds":[{"tc":".chain\n  add x1, x2, x3\n"}],"best":[{"point":-1,"intvl":-9}]}}`))
	f.Add([]byte(`{"corpus":{"seeds":[{"tc":"# probe: 9\n"}]}}`))
	f.Add([]byte(`{"base":9007199254740993,"corpus":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var l Lease
		if json.Unmarshal(data, &l) != nil {
			return
		}
		held := heldOf(t, full, heldSeeds)
		before := held.Prefix()
		c, err := held.resolve(&l)
		if err != nil {
			if held.Prefix() != before {
				t.Fatalf("failed resolve changed the held prefix: %v", err)
			}
			return
		}
		if want := l.Base + len(l.Corpus.Seeds); c.Len() != want || held.Prefix().Seeds != want {
			t.Fatalf("resolved %d seeds (held %d), want base %d + %d", c.Len(), held.Prefix().Seeds, l.Base, len(l.Corpus.Seeds))
		}
	})
}
