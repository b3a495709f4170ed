package fuzz

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// selectReference is the scan-and-sort Select the cached ranking replaced:
// every call ranks all non-zero best intervals and scans every seed. It is
// the oracle for TestSelectMatchesReference.
func selectReference(c *Corpus, rng *rand.Rand, prioritize bool) (*Seed, int) {
	if len(c.seeds) == 0 {
		return nil, -1
	}
	if !prioritize {
		s := c.seeds[rng.Intn(len(c.seeds))]
		return s, anyPointReference(rng, s.Intvls)
	}
	type cand struct {
		id int
		v  int64
	}
	var cands []cand
	for id, v := range c.best { //sonar:nondeterministic-ok candidates collected then sorted
		if v == 0 {
			continue
		}
		cands = append(cands, cand{id, v})
	}
	if len(cands) == 0 {
		s := c.seeds[rng.Intn(len(c.seeds))]
		return s, anyPointReference(rng, s.Intvls)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].v != cands[j].v {
			return cands[i].v < cands[j].v
		}
		return cands[i].id < cands[j].id
	})
	r := 0
	for r < len(cands)-1 && r < 15 && rng.Intn(3) == 0 {
		r++
	}
	target := cands[r].id
	bestV := cands[r].v
	var candidates []*Seed
	for _, s := range c.seeds {
		if v, ok := s.Intvls[target]; ok && v == bestV {
			candidates = append(candidates, s)
		}
	}
	if len(candidates) == 0 {
		candidates = c.seeds
	}
	return candidates[rng.Intn(len(candidates))], target
}

// anyPointReference sorts the seed's point ids on every call, as Select did
// before Seed memoized them.
func anyPointReference(rng *rand.Rand, intvls map[int]int64) int {
	if len(intvls) == 0 {
		return -1
	}
	ids := make([]int, 0, len(intvls))
	for id := range intvls { //sonar:nondeterministic-ok keys collected then sorted
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids[rng.Intn(len(ids))]
}

// randomIntvls draws a small interval map over a point space narrow enough
// that seeds share points, ties are common and some points trigger (0).
func randomIntvls(rng *rand.Rand) map[int]int64 {
	m := map[int]int64{}
	for k, n := 0, 1+rng.Intn(5); k < n; k++ {
		m[rng.Intn(40)] = int64(rng.Intn(12))
	}
	return m
}

// seedIndex is s's position in c's seed list, or -1.
func seedIndex(c *Corpus, s *Seed) int {
	for i, x := range c.seeds {
		if x == s {
			return i
		}
	}
	return -1
}

// Property: the cached Select picks exactly what the scan-and-sort oracle
// picks — same seed, same target, same rng consumption — across random
// sequences of offers, copy-on-write views, thaws and checkpoint wire
// round trips, with and without prioritization.
func TestSelectMatchesReference(t *testing.T) {
	ops := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		c := NewCorpus()
		gotRng := rand.New(rand.NewSource(int64(trial)))
		refRng := rand.New(rand.NewSource(int64(trial)))
		for step := 0; step < 300; step++ {
			switch k := ops.Intn(20); {
			case k < 6:
				c.Offer(Generate(ops, false), randomIntvls(ops), 1-2*ops.Intn(2), ops.Intn(40))
			case k == 6:
				c = c.view()
			case k == 7:
				c.thaw()
			case k == 8:
				cw := newCorpusWire(c, 0)
				rebuilt, err := cw.corpus()
				if err != nil {
					t.Fatalf("trial %d step %d: wire round trip: %v", trial, step, err)
				}
				c = rebuilt
			default:
				prioritize := k%2 == 0
				want, wantT := selectReference(c, refRng, prioritize)
				got, gotT := c.Select(gotRng, prioritize)
				if seedIndex(c, got) != seedIndex(c, want) || gotT != wantT {
					t.Fatalf("trial %d step %d (prioritize=%v): Select = seed %d target %d, reference seed %d target %d",
						trial, step, prioritize, seedIndex(c, got), gotT, seedIndex(c, want), wantT)
				}
				if g, w := gotRng.Int63(), refRng.Int63(); g != w {
					t.Fatalf("trial %d step %d: rng diverged after Select (%d vs %d)", trial, step, g, w)
				}
			}
		}
	}
}

// Workers select from views of one corpus concurrently: each view caches
// its own ranking, so this must not race (run under -race), and every view
// must make the choices the corpus itself would.
func TestSelectViewsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	global := NewCorpus()
	for i := 0; i < 60; i++ {
		global.Offer(Generate(rng, false), randomIntvls(rng), 1, -1)
	}
	views := make([]*Corpus, 4)
	for i := range views {
		views[i] = global.view()
	}
	want := make([]int, 200)
	ref := rand.New(rand.NewSource(9))
	for i := range want {
		_, want[i] = selectReference(global, ref, true)
	}
	var wg sync.WaitGroup
	for i, v := range views {
		wg.Add(1)
		go func(i int, v *Corpus) {
			defer wg.Done()
			r := rand.New(rand.NewSource(9))
			for k := range want {
				if _, target := v.Select(r, true); target != want[k] {
					t.Errorf("view %d call %d: target %d, want %d", i, k, target, want[k])
					return
				}
			}
		}(i, v)
	}
	wg.Wait()
}

// Select on a warm corpus that has not changed since the previous call
// allocates nothing: the ranking and each seed's point ids are cached.
func TestSelectSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewCorpus()
	for i := 0; i < 80; i++ {
		c.Offer(Generate(rng, false), randomIntvls(rng), 1, -1)
	}
	for i := 0; i < 200; i++ {
		c.Select(rng, true)
		c.Select(rng, false)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Select(rng, true)
		c.Select(rng, false)
	})
	if allocs != 0 {
		t.Errorf("steady-state Select allocates %.1f objects/run, want 0", allocs)
	}
}
