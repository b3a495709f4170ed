package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"sonar/internal/detect"
)

// Checkpoint file format (docs/CAMPAIGNS.md has the operator-facing
// reference): a single header line
//
//	#sonar-checkpoint v1 crc32=xxxxxxxx
//
// followed by one JSON object (the Checkpoint struct). The CRC32 (IEEE) of
// the JSON payload is stored in the header, so truncated or bit-flipped
// checkpoints are rejected at load time, and the version gates format
// evolution. Files are written atomically: serialize to a temp file in the
// destination directory, fsync, then rename over the target — a crash
// mid-write leaves the previous checkpoint intact.
const (
	checkpointMagic   = "#sonar-checkpoint"
	checkpointVersion = 1
	// defaultCheckpointEvery is the iteration period between periodic
	// checkpoints when Options.CheckpointEvery is zero.
	defaultCheckpointEvery = 500
)

// Shape is the campaign-defining subset of Options — the fields that make
// two campaigns the same campaign. ResumeExec refuses a checkpoint whose shape
// differs from the offered Options; operational fields (checkpoint paths,
// timeouts, retry policy, Observer, FaultHook) are not part of the shape
// and may change across a pause/resume boundary.
type Shape struct {
	Iterations       int    `json:"iterations"`        // Options.Iterations
	Seed             int64  `json:"seed"`              // Options.Seed
	Retention        bool   `json:"retention"`         // Options.Retention
	Selection        bool   `json:"selection"`         // Options.Selection
	DirectedMutation bool   `json:"directed_mutation"` // Options.DirectedMutation
	DualCore         bool   `json:"dual_core"`         // Options.DualCore
	SecretA          uint64 `json:"secret_a"`          // Options.SecretA
	SecretB          uint64 `json:"secret_b"`          // Options.SecretB
	KeepFindings     int    `json:"keep_findings"`     // Options.KeepFindings
	RandomDirection  bool   `json:"random_direction"`  // Options.RandomDirection
	// Workers and BatchSize are the effective (post-clamp) values; the
	// parallel determinism contract is per (Seed, Workers, BatchSize).
	Workers   int `json:"workers"`
	BatchSize int `json:"batch_size"` // effective batch, like Workers
}

// shapeOf extracts a campaign's shape from its Options.
func shapeOf(opt Options) Shape {
	workers, batch := normalizeParallel(opt)
	return Shape{
		Iterations: opt.Iterations, Seed: opt.Seed,
		Retention: opt.Retention, Selection: opt.Selection,
		DirectedMutation: opt.DirectedMutation, DualCore: opt.DualCore,
		SecretA: opt.SecretA, SecretB: opt.SecretB,
		KeepFindings: opt.KeepFindings, RandomDirection: opt.RandomDirection,
		Workers: workers, BatchSize: batch,
	}
}

// Options returns the Options that re-create the shape's campaign. Callers
// layer their operational choices (Checkpoint path, Observer, timeouts,
// Lanes) on top; the returned Workers and BatchSize are the shape's
// effective values, which normalizeParallel maps to themselves.
func (s Shape) Options() Options {
	return Options{
		Iterations: s.Iterations, Seed: s.Seed,
		Retention: s.Retention, Selection: s.Selection,
		DirectedMutation: s.DirectedMutation, DualCore: s.DualCore,
		SecretA: s.SecretA, SecretB: s.SecretB,
		KeepFindings: s.KeepFindings, RandomDirection: s.RandomDirection,
		Workers: s.Workers, BatchSize: s.BatchSize,
	}
}

// PointIntvl is one per-point best-interval entry. Checkpoints and the
// campaign-service wire formats store interval maps as point-sorted slices
// so the serialized form is byte-deterministic (Go map iteration order is
// randomized).
type PointIntvl struct {
	// Point is the contention point ID.
	Point int `json:"point"`
	// Intvl is the best (minimum) distinct-request interval observed.
	Intvl int64 `json:"intvl"`
}

// sortIntvls converts an interval map to its canonical checkpoint form.
func sortIntvls(m map[int]int64) []PointIntvl {
	out := make([]PointIntvl, 0, len(m))
	for id, v := range m { //sonar:nondeterministic-ok keys collected then sorted
		out = append(out, PointIntvl{Point: id, Intvl: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// unsortIntvls rebuilds the interval map of a checkpointed slice.
func unsortIntvls(s []PointIntvl) map[int]int64 {
	m := make(map[int]int64, len(s))
	for _, pi := range s {
		m[pi.Point] = pi.Intvl
	}
	return m
}

// SeedWire is one retained corpus seed in serialized form: the testcase in
// its Marshal (annotated assembly) encoding plus the feedback that earned
// its place. Checkpoints and shard-lease payloads share this encoding.
type SeedWire struct {
	// TC is the testcase in Testcase.Marshal form.
	TC string `json:"tc"`
	// Intvls is the seed's per-point best-interval feedback, point-sorted.
	Intvls []PointIntvl `json:"intvls"`
	// Dir is the adaptive mutation direction (+1 grow, -1 shrink).
	Dir int `json:"dir"`
	// Target is the contention point the seed was last mutated towards.
	Target int `json:"target"`
}

// wireSeed converts a retained seed to its wire form.
func wireSeed(s *Seed) SeedWire {
	return SeedWire{TC: s.marshal(), Intvls: sortIntvls(s.Intvls), Dir: s.Dir, Target: s.Target}
}

// seed rebuilds the in-memory seed of a wire entry.
func (sw *SeedWire) seed() (*Seed, error) {
	tc, err := Unmarshal(sw.TC)
	if err != nil {
		return nil, err
	}
	return &Seed{TC: tc, Intvls: unsortIntvls(sw.Intvls), Dir: sw.Dir, Target: sw.Target}, nil
}

// CorpusWire is the global corpus in serialized form: the retained seeds in
// retention order and the per-point global best intervals. It appears in
// checkpoints (whole) and in shard-lease payloads, where Seeds may start
// past the prefix the worker already holds (Lease.Base).
type CorpusWire struct {
	// Seeds are the retained seeds in retention order.
	Seeds []SeedWire `json:"seeds"`
	// Best is the per-point global best interval, point-sorted.
	Best []PointIntvl `json:"best"`
}

// newCorpusWire converts a corpus to its wire form, leaving out the first
// from seeds.
func newCorpusWire(c *Corpus, from int) CorpusWire {
	cw := CorpusWire{Seeds: make([]SeedWire, len(c.seeds)-from), Best: sortIntvls(c.best)}
	for i, s := range c.seeds[from:] {
		cw.Seeds[i] = wireSeed(s)
	}
	return cw
}

// corpus rebuilds the in-memory corpus of a wire entry.
func (cw *CorpusWire) corpus() (*Corpus, error) {
	c := NewCorpus()
	c.seeds = make([]*Seed, len(cw.Seeds))
	for i := range cw.Seeds {
		s, err := cw.Seeds[i].seed()
		if err != nil {
			return nil, fmt.Errorf("fuzz: corpus seed %d: %w", i, err)
		}
		c.seeds[i] = s
	}
	c.best = unsortIntvls(cw.Best)
	return c, nil
}

// StatsWire is Stats in serialized form: map fields become sorted slices
// and finding seeds are stored in their Marshal encoding. Checkpoints embed
// it, and the campaign service serves it as a finished campaign's result.
type StatsWire struct {
	// PerIteration is the campaign's canonical per-iteration progress series.
	PerIteration []IterStats `json:"per_iteration"`
	// Findings are the retained dual-differential findings.
	Findings []*detect.Finding `json:"findings"`
	// FindingSeeds are the finding testcases in Testcase.Marshal form,
	// parallel to Findings.
	FindingSeeds []string `json:"finding_seeds"`
	// Triggered is the sorted set of triggered contention point IDs.
	Triggered []int `json:"triggered"`
	// SingleValidTriggered mirrors Stats.SingleValidTriggered.
	SingleValidTriggered int `json:"single_valid_triggered"`
	// EarlyTriggered mirrors Stats.EarlyTriggered.
	EarlyTriggered int `json:"early_triggered"`
	// EarlyBreakdown mirrors Stats.EarlyBreakdown.
	EarlyBreakdown [][2]int `json:"early_breakdown"`
	// CorpusSize is the merged corpus size at the capture point.
	CorpusSize int `json:"corpus_size"`
	// ExecutedCycles is the total simulated cycle count.
	ExecutedCycles int64 `json:"executed_cycles"`
	// Best is the accumulator's per-point best-interval view (the one
	// backing the best-interval gauges); tracked only when an Observer is
	// attached, and re-seeded on resume so gauge continuity survives the
	// restart.
	Best []PointIntvl `json:"best"`
}

// Wire returns the canonical serialized form of the statistics — the same
// encoding checkpoints embed, minus the observer-only Best view. Because
// every map is sorted and testcases use their Marshal encoding, equal
// campaigns produce byte-equal encodings; the campaign service's result
// endpoint relies on this to compare distributed and local runs.
func (st *Stats) Wire() StatsWire {
	s := StatsWire{
		PerIteration:         append([]IterStats(nil), st.PerIteration...),
		Findings:             append([]*detect.Finding(nil), st.Findings...),
		FindingSeeds:         make([]string, len(st.FindingSeeds)),
		SingleValidTriggered: st.SingleValidTriggered,
		EarlyTriggered:       st.EarlyTriggered,
		EarlyBreakdown:       append([][2]int(nil), st.EarlyBreakdown...),
		CorpusSize:           st.CorpusSize,
		ExecutedCycles:       st.ExecutedCycles,
	}
	for i, tc := range st.FindingSeeds {
		s.FindingSeeds[i] = tc.Marshal()
	}
	s.Triggered = make([]int, 0, len(st.TriggeredPoints))
	for id := range st.TriggeredPoints { //sonar:nondeterministic-ok keys collected then sorted
		s.Triggered = append(s.Triggered, id)
	}
	sort.Ints(s.Triggered)
	return s
}

// Checkpoint is a self-describing snapshot of a campaign at a merge
// barrier: everything ResumeExec needs to continue the campaign
// bit-identically — corpus, statistics, per-shard iteration budgets and RNG
// cursors, and the event-stream position. Produced by campaigns with
// Options.Checkpoint set, by LoadCheckpoint, and by the shard-lease
// coordinator's Snapshot (docs/SERVICE.md).
type Checkpoint struct {
	// Version is the checkpoint format version (checkpointVersion).
	Version int `json:"version"`
	// DUT is the netlist name of the device under test (informational; the
	// resuming process supplies its own DUT constructor).
	DUT string `json:"dut"`
	// Shape identifies the campaign; ResumeExec validates it.
	Shape Shape `json:"shape"`
	// Done is the campaign position in iterations: executed iterations
	// plus any dropped by abandoned shards. Done + sum(Rem) always equals
	// Shape.Iterations.
	Done int `json:"done"`
	// Round is the number of completed merge rounds.
	Round int `json:"round"`
	// Rem is the remaining iteration budget per shard (0 for drained or
	// abandoned shards).
	Rem []int `json:"rem"`
	// Cursors is the RNG draw count per shard; resume replays each shard's
	// generator to its cursor.
	Cursors []uint64 `json:"cursors"`
	// EventSeq is the sequence number of the last emitted event, so a
	// resumed campaign's event stream continues the original numbering.
	EventSeq int `json:"event_seq"`
	// Complete marks the final checkpoint of a finished campaign; resuming
	// a complete checkpoint returns its Stats without executing anything.
	Complete bool `json:"complete"`
	// Stats is the accumulated campaign statistics.
	Stats StatsWire `json:"stats"`
	// Corpus is the merged global corpus.
	Corpus CorpusWire `json:"corpus"`
}

// stats rebuilds the Stats (and the accumulator's best-interval view) of a
// checkpoint.
func (cp *Checkpoint) stats() (*Stats, []PointIntvl, error) {
	s := &cp.Stats
	st := &Stats{
		PerIteration:         append([]IterStats(nil), s.PerIteration...),
		Findings:             append([]*detect.Finding(nil), s.Findings...),
		TriggeredPoints:      make(map[int]bool, len(s.Triggered)),
		SingleValidTriggered: s.SingleValidTriggered,
		EarlyTriggered:       s.EarlyTriggered,
		EarlyBreakdown:       append([][2]int(nil), s.EarlyBreakdown...),
		CorpusSize:           s.CorpusSize,
		ExecutedCycles:       s.ExecutedCycles,
	}
	for _, id := range s.Triggered {
		st.TriggeredPoints[id] = true
	}
	st.FindingSeeds = make([]*Testcase, len(s.FindingSeeds))
	for i, src := range s.FindingSeeds {
		tc, err := Unmarshal(src)
		if err != nil {
			return nil, nil, fmt.Errorf("fuzz: checkpoint finding seed %d: %w", i, err)
		}
		st.FindingSeeds[i] = tc
	}
	return st, s.Best, nil
}

// corpus rebuilds the global corpus of a checkpoint.
func (cp *Checkpoint) corpus() (*Corpus, error) {
	c, err := cp.Corpus.corpus()
	if err != nil {
		return nil, fmt.Errorf("fuzz: checkpoint %w", err)
	}
	return c, nil
}

// CampaignOptions returns the Options that re-create the checkpointed
// campaign's shape. Callers layer their operational choices (Checkpoint
// path, Observer, timeouts) on top before passing the result to ResumeExec.
func (cp *Checkpoint) CampaignOptions() Options {
	return cp.Shape.Options()
}

// validate sanity-checks a checkpoint's structural invariants. Load-time
// corruption is caught by the header CRC; validate guards against
// semantically impossible payloads (hand-edited files, version skew).
func (cp *Checkpoint) validate() error {
	if cp == nil {
		return fmt.Errorf("fuzz: nil checkpoint")
	}
	if cp.Version != checkpointVersion {
		return fmt.Errorf("fuzz: unsupported checkpoint version %d (want %d)", cp.Version, checkpointVersion)
	}
	if len(cp.Rem) != cp.Shape.Workers || len(cp.Cursors) != cp.Shape.Workers {
		return fmt.Errorf("fuzz: checkpoint has %d shard budgets / %d cursors for %d workers",
			len(cp.Rem), len(cp.Cursors), cp.Shape.Workers)
	}
	rem := 0
	for i, r := range cp.Rem {
		if r < 0 {
			return fmt.Errorf("fuzz: checkpoint shard %d has negative budget %d", i, r)
		}
		rem += r
	}
	if cp.Done < 0 || cp.Done+rem != cp.Shape.Iterations {
		return fmt.Errorf("fuzz: checkpoint position %d+%d does not cover %d iterations",
			cp.Done, rem, cp.Shape.Iterations)
	}
	if len(cp.Stats.FindingSeeds) != len(cp.Stats.Findings) {
		return fmt.Errorf("fuzz: checkpoint has %d finding seeds for %d findings",
			len(cp.Stats.FindingSeeds), len(cp.Stats.Findings))
	}
	if cp.Complete && rem != 0 {
		return fmt.Errorf("fuzz: complete checkpoint with %d iterations remaining", rem)
	}
	return nil
}

// Encode returns the checkpoint's file encoding: the CRC-carrying header
// line followed by the JSON payload — exactly the bytes Save writes, so a
// stream served by the campaign service's checkpoint endpoint can be saved
// to a file and passed to LoadCheckpoint unchanged.
func (cp *Checkpoint) Encode() ([]byte, error) {
	// The header has a fixed width (the CRC is always 8 hex digits), so the
	// payload is encoded straight after a placeholder and the header filled
	// in once the CRC is known: one payload-sized buffer instead of a
	// marshalled payload plus a header-prefixed copy of it.
	header := func(sum uint32) string {
		return fmt.Sprintf("%s v%d crc32=%08x\n", checkpointMagic, cp.Version, sum)
	}
	var buf bytes.Buffer
	buf.WriteString(header(0))
	hlen := buf.Len()
	if err := json.NewEncoder(&buf).Encode(cp); err != nil {
		return nil, fmt.Errorf("fuzz: marshal checkpoint: %w", err)
	}
	b := buf.Bytes()
	b = b[:len(b)-1] // the encoder ends the value with a newline; the format does not
	copy(b, header(crc32.ChecksumIEEE(b[hlen:])))
	return b, nil
}

// Save writes the checkpoint atomically (temp file + fsync + rename) and
// returns the file size in bytes. The previous checkpoint at path survives
// any failure.
func (cp *Checkpoint) Save(path string) (int, error) {
	data, err := cp.Encode()
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".sonar-checkpoint-*")
	if err != nil {
		return 0, fmt.Errorf("fuzz: checkpoint temp file: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) (int, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(fmt.Errorf("fuzz: write checkpoint: %w", err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("fuzz: sync checkpoint: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("fuzz: close checkpoint: %w", err)
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("fuzz: chmod checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("fuzz: publish checkpoint: %w", err)
	}
	return len(data), nil
}

// LoadCheckpoint reads and verifies a checkpoint file: header magic and
// version, payload CRC32 (rejecting truncated or corrupted files), JSON
// decoding, and the structural invariants of validate.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fuzz: read checkpoint: %w", err)
	}
	nl := -1
	for i, b := range data {
		if b == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return nil, fmt.Errorf("fuzz: %s: not a checkpoint (missing header line)", path)
	}
	header, payload := string(data[:nl]), data[nl+1:]
	var version int
	var sum uint32
	if n, err := fmt.Sscanf(header, checkpointMagic+" v%d crc32=%08x", &version, &sum); err != nil || n != 2 {
		return nil, fmt.Errorf("fuzz: %s: not a checkpoint (bad header %q)", path, header)
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("fuzz: %s: unsupported checkpoint version %d (want %d)", path, version, checkpointVersion)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("fuzz: %s: checkpoint corrupt or truncated (crc32 %08x, header says %08x)", path, got, sum)
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(payload, cp); err != nil {
		return nil, fmt.Errorf("fuzz: %s: decode checkpoint: %w", path, err)
	}
	if err := cp.validate(); err != nil {
		return nil, fmt.Errorf("fuzz: %s: %w", path, err)
	}
	return cp, nil
}
