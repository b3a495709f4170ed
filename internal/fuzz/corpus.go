package fuzz

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"sonar/internal/monitor"
)

// Seed is a retained testcase with the feedback that earned its place.
type Seed struct {
	// TC is the retained testcase itself.
	TC *Testcase
	// Intvls is the per-point minimum distinct-request interval observed
	// when this seed executed.
	Intvls map[int]int64
	// Dir is the adaptive mutation direction: +1 grows the head chain,
	// -1 shrinks it (paper §6.2.1, interval-guided directed mutation).
	Dir int
	// Target is the contention point this seed was last mutated towards.
	Target int

	// text memoizes TC.Marshal(). A retained seed is immutable, yet
	// checkpoints and lease payloads encode it again and again; the once
	// keeps the lazy fill race-free for seeds shared across goroutines.
	textOnce sync.Once
	text     string
	// points memoizes the sorted keys of Intvls, which anyPoint indexes.
	pointsOnce sync.Once
	points     []int
}

// marshal returns the seed's testcase in Testcase.Marshal form, rendering
// it on first use only.
func (s *Seed) marshal() string {
	s.textOnce.Do(func() { s.text = s.TC.Marshal() })
	return s.text
}

// anyPoint picks a uniformly random point the seed observed, or -1 if it
// observed none. It indexes the sorted point ids rather than Go's randomized
// map order, so equal seeds give equal campaigns (the campaign engine's
// determinism contract).
func (s *Seed) anyPoint(rng *rand.Rand) int {
	s.pointsOnce.Do(func() {
		s.points = make([]int, 0, len(s.Intvls))
		for id := range s.Intvls { //sonar:nondeterministic-ok keys collected then sorted
			s.points = append(s.points, id)
		}
		sort.Ints(s.points)
	})
	if len(s.points) == 0 {
		return -1
	}
	return s.points[rng.Intn(len(s.points))]
}

// Corpus is the seed corpus with Sonar's retention and selection policies.
type Corpus struct {
	seeds []*Seed
	// best tracks the global minimum interval per contention point.
	best map[int]int64
	// version counts mutations (accepted offers). The parallel coordinator
	// compares versions across a merge round to decide whether workers need
	// fresh views of the merged corpus at all — unchanged rounds skip
	// distribution entirely.
	version uint64
	// frozen marks storage shared with copy-on-write views (see view): the
	// next mutation must thaw (privately copy) the seed list and best map
	// first. Behaviour is otherwise identical to an unfrozen corpus.
	frozen bool
	// sel caches what prioritized Select derives from seeds and best; nil
	// until the first Select after a change. It belongs to this Corpus
	// value alone: views and snapshots start without one, so workers never
	// share it.
	sel *selection
}

// selectRanks is how many of the lowest-interval points Select's rank
// draw can reach.
const selectRanks = 16

// rankedPoint is a target candidate: a point and its global best interval.
type rankedPoint struct {
	id int
	v  int64
}

// selection is the target ranking of one corpus state.
type selection struct {
	// ranked are the points with the smallest non-zero best intervals,
	// ascending by (interval, point id), at most selectRanks of them.
	ranked []rankedPoint
	// seeds[r] are the seeds achieving ranked[r]'s interval at its point,
	// in retention order, or every seed when none does. Nil until rank r
	// is first drawn: the geometric rank draw rarely goes past rank 3.
	seeds [selectRanks][]*Seed
}

// selector returns the corpus's target ranking, building it on first use.
func (c *Corpus) selector() *selection {
	if c.sel != nil {
		return c.sel
	}
	var all []rankedPoint
	for id, v := range c.best { //sonar:nondeterministic-ok candidates collected then sorted
		if v == 0 {
			continue // already triggered; approaching it halts (paper §6.1)
		}
		all = append(all, rankedPoint{id, v})
	}
	slices.SortFunc(all, func(a, b rankedPoint) int {
		if a.v != b.v {
			return cmp.Compare(a.v, b.v)
		}
		return cmp.Compare(a.id, b.id)
	})
	c.sel = &selection{ranked: all[:min(len(all), selectRanks)]}
	return c.sel
}

// candidates returns the seeds Select draws from when it targets rank r of
// sel, scanning the corpus on the rank's first draw only.
func (c *Corpus) candidates(sel *selection, r int) []*Seed {
	if sel.seeds[r] == nil {
		p := sel.ranked[r]
		var match []*Seed
		for _, s := range c.seeds {
			if v, ok := s.Intvls[p.id]; ok && v == p.v {
				match = append(match, s)
			}
		}
		if match == nil {
			match = c.seeds
		}
		sel.seeds[r] = match
	}
	return sel.seeds[r]
}

// NewCorpus creates an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{best: make(map[int]int64)}
}

// Len returns the number of retained seeds.
func (c *Corpus) Len() int { return len(c.seeds) }

// Snapshot returns an independent copy of the corpus. The copy shares the
// retained Seed values (immutable after creation) but owns its seed list
// and best-interval map, so parallel workers can extend private snapshots
// of a merged global corpus without synchronization.
func (c *Corpus) Snapshot() *Corpus {
	cp := &Corpus{
		seeds:   append([]*Seed(nil), c.seeds...),
		best:    make(map[int]int64, len(c.best)),
		version: c.version,
	}
	for id, v := range c.best { //sonar:nondeterministic-ok map-to-map copy is order-insensitive
		cp.best[id] = v
	}
	return cp
}

// view freezes the corpus and returns a shallow copy-on-write alias sharing
// its seed list and best-interval map. Views are how the parallel
// coordinator distributes a merged corpus: O(1) per worker per round instead
// of the old per-worker deep Snapshot, with the copy deferred to the first
// mutation (thaw) on whichever side mutates first. Frozen storage is only
// ever read, so lingering views — including those held by abandoned retry
// goroutines — stay safe without synchronization.
func (c *Corpus) view() *Corpus {
	c.frozen = true
	return &Corpus{seeds: c.seeds, best: c.best, version: c.version, frozen: true}
}

// thaw gives a frozen corpus private storage before its first mutation.
func (c *Corpus) thaw() {
	if !c.frozen {
		return
	}
	c.seeds = append([]*Seed(nil), c.seeds...)
	best := make(map[int]int64, len(c.best))
	for id, v := range c.best { //sonar:nondeterministic-ok map-to-map copy is order-insensitive
		best[id] = v
	}
	c.best = best
	c.frozen = false
}

// Best returns the global minimum interval recorded for a point, or
// monitor.NoInterval.
func (c *Corpus) Best(point int) int64 {
	if v, ok := c.best[point]; ok {
		return v
	}
	return monitor.NoInterval
}

// Offer applies the retention rule: the testcase joins the corpus if it
// reduced the minimum reqsIntvl at any contention point below the global
// best (paper §6.2.1 ①). It returns the created seed, or nil if not
// retained. The common rejecting path is read-only, so offering against a
// frozen view costs nothing; the first accepted offer thaws.
func (c *Corpus) Offer(tc *Testcase, intvls map[int]int64, dir int, target int) *Seed {
	improved := false
	for id, v := range intvls { //sonar:nondeterministic-ok read-only improvement probe; min-fold is order-insensitive
		if old, ok := c.best[id]; !ok || v < old {
			improved = true
			break
		}
	}
	if !improved {
		return nil
	}
	c.thaw()
	for id, v := range intvls { //sonar:nondeterministic-ok min-fold is order-insensitive
		if old, ok := c.best[id]; !ok || v < old {
			c.best[id] = v
		}
	}
	c.version++
	c.sel = nil
	s := &Seed{TC: tc, Intvls: intvls, Dir: dir, Target: target}
	c.seeds = append(c.seeds, s)
	return s
}

// Select picks a seed and a target contention point for the next mutation.
// With prioritize set, it targets the point with the smallest non-zero best
// interval — the point closest to (but not yet at) triggering — and picks
// uniformly among seeds achieving that best (§6.2.1 ②). Without it, the
// seed is uniform random and the target is any point the seed observed.
// On a corpus unchanged since the previous call it allocates nothing.
func (c *Corpus) Select(rng *rand.Rand, prioritize bool) (*Seed, int) {
	if len(c.seeds) == 0 {
		return nil, -1
	}
	if !prioritize {
		s := c.seeds[rng.Intn(len(c.seeds))]
		return s, s.anyPoint(rng)
	}
	// Rank points by interval; points with smaller non-zero best intervals
	// are "more likely to be selected as targets" (§6.2.1) — rank-weighted
	// sampling rather than a deterministic argmin, so the campaign does not
	// tunnel forever on a point whose interval cannot reach zero.
	sel := c.selector()
	if len(sel.ranked) == 0 {
		s := c.seeds[rng.Intn(len(c.seeds))]
		return s, s.anyPoint(rng)
	}
	// Geometric rank weighting: each rank is taken with probability 2/3,
	// so rank 0 is twice as likely as rank 1, capped at the first 16 ranks.
	r := 0
	for r < len(sel.ranked)-1 && rng.Intn(3) == 0 {
		r++
	}
	// Among seeds achieving the best interval at the target, pick randomly.
	candidates := c.candidates(sel, r)
	return candidates[rng.Intn(len(candidates))], sel.ranked[r].id
}
