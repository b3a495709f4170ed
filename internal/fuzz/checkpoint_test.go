package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The counted RNG source must be a transparent wrapper: same draw sequence
// as the plain source it wraps (so attaching the counter never perturbs a
// campaign), and a fresh source fast-forwarded to a recorded cursor must
// continue the sequence exactly (the checkpoint/resume mechanism). This
// also pins the rand.Source64 assertion inside newCountedSource.
func TestCountedSourceMatchesPlainSource(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		plain := rand.New(rand.NewSource(seed))
		src := newCountedSource(seed, 0)
		counted := rand.New(src)
		for i := 0; i < 500; i++ {
			// Mix the draw kinds a campaign uses.
			switch i % 3 {
			case 0:
				if a, b := plain.Int63(), counted.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 %d vs %d", seed, i, a, b)
				}
			case 1:
				if a, b := plain.Float64(), counted.Float64(); a != b {
					t.Fatalf("seed %d draw %d: Float64 %v vs %v", seed, i, a, b)
				}
			default:
				if a, b := plain.Intn(97), counted.Intn(97); a != b {
					t.Fatalf("seed %d draw %d: Intn %d vs %d", seed, i, a, b)
				}
			}
		}
		replay := rand.New(newCountedSource(seed, src.cursor()))
		for i := 0; i < 200; i++ {
			if a, b := counted.Int63(), replay.Int63(); a != b {
				t.Fatalf("seed %d: replayed cursor diverged at draw %d: %d vs %d", seed, i, a, b)
			}
		}
	}
}

// pausedCampaign runs a parallel campaign that pauses after maxRounds merge
// rounds with a checkpoint at the returned path.
func pausedCampaign(t *testing.T, opt Options, maxRounds int) (string, *Checkpoint) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	opt.Checkpoint = path
	opt.MaxRounds = maxRounds
	RunParallel(liteFactory, opt)
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	return path, cp
}

// The round-trip property: a checkpoint serialized, reloaded, and resumed
// produces Stats identical to the uninterrupted campaign — including the
// exported finding seeds, which cross the checkpoint in Marshal form.
func TestCheckpointRoundTripMatchesUninterrupted(t *testing.T) {
	base := SonarOptions(40)
	base.Workers = 2
	base.BatchSize = 5
	full := RunParallel(liteFactory, base)

	_, cp := pausedCampaign(t, base, 2)
	if cp.Complete {
		t.Fatal("pause checkpoint marked complete")
	}
	if cp.Done == 0 || cp.Done >= base.Iterations {
		t.Fatalf("pause checkpoint at %d/%d iterations", cp.Done, base.Iterations)
	}
	resumed, err := ResumeExec(liteExec, cp.CampaignOptions(), cp)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	statsEqual(t, full, resumed)
	if len(full.FindingSeeds) != len(resumed.FindingSeeds) {
		t.Fatalf("finding seeds: %d vs %d", len(full.FindingSeeds), len(resumed.FindingSeeds))
	}
	for i := range full.FindingSeeds {
		if full.FindingSeeds[i].Marshal() != resumed.FindingSeeds[i].Marshal() {
			t.Errorf("finding seed %d differs after resume", i)
		}
	}
}

// Checkpoint files must be byte-deterministic: two identical paused
// campaigns write identical files (map-ordered state is serialized in
// sorted form).
func TestCheckpointBytesDeterministic(t *testing.T) {
	opt := SonarOptions(30)
	opt.Workers = 2
	opt.BatchSize = 4
	pathA, _ := pausedCampaign(t, opt, 2)
	pathB, _ := pausedCampaign(t, opt, 2)
	a, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Error("identical paused campaigns wrote different checkpoint files")
	}

	// The file is the header line over json.Marshal's payload bytes — the
	// format LoadCheckpoint and older readers check — however it is built.
	cp, err := LoadCheckpoint(pathA)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%s v%d crc32=%08x\n%s", checkpointMagic, cp.Version, crc32.ChecksumIEEE(payload), payload)
	if enc, err := cp.Encode(); err != nil || string(enc) != want || string(a) != want {
		t.Errorf("checkpoint bytes are not the header over json.Marshal's payload (encode err %v)", err)
	}
}

// The headline durability contract: a campaign killed mid-run (paused at a
// merge barrier) and resumed produces a final Stats and an event stream
// byte-identical to the uninterrupted run — the resumed stream continues
// the original sequence numbering and the concatenation of the two streams
// equals the uninterrupted stream.
func TestResumeEventStreamByteContinuity(t *testing.T) {
	base := SonarOptions(40)
	base.Workers = 2
	base.BatchSize = 5

	uopt, umem := observedOptions(base)
	full := RunParallel(liteFactory, uopt)

	popt, pmem := observedOptions(base)
	_, cp := pausedCampaign(t, popt, 2)

	ropt, rmem := observedOptions(cp.CampaignOptions())
	resumed, err := ResumeExec(liteExec, ropt, cp)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	statsEqual(t, full, resumed)

	concat := append(pmem.Bytes(), rmem.Bytes()...)
	if len(concat) == 0 {
		t.Fatal("no events emitted")
	}
	if !bytes.Equal(concat, umem.Bytes()) {
		t.Error("paused+resumed event stream differs from the uninterrupted stream")
	}
}

// Truncated, bit-flipped, or otherwise mangled checkpoint files must be
// rejected at load time, never half-restored.
func TestCheckpointCorruptionRejected(t *testing.T) {
	opt := SonarOptions(30)
	opt.Workers = 2
	opt.BatchSize = 4
	path, _ := pausedCampaign(t, opt, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"truncated":     data[:len(data)-9],
		"empty":         nil,
		"header only":   data[:bytes.IndexByte(data, '\n')+1],
		"not a header":  []byte("hello world\n{}"),
		"bad version":   bytes.Replace(data, []byte(checkpointMagic+" v1 "), []byte(checkpointMagic+" v9 "), 1),
		"flipped byte":  flipByte(data, len(data)-20),
		"flipped early": flipByte(data, bytes.IndexByte(data, '\n')+10),
	}
	dir := t.TempDir()
	for name, mangled := range cases {
		p := filepath.Join(dir, strings.ReplaceAll(name, " ", "-"))
		if err := os.WriteFile(p, mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(p); err == nil {
			t.Errorf("%s checkpoint loaded without error", name)
		}
	}
	// The untouched original must still load.
	if _, err := LoadCheckpoint(path); err != nil {
		t.Errorf("valid checkpoint rejected: %v", err)
	}
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x01
	return out
}

// Resume must refuse a checkpoint whose campaign shape differs from the
// offered Options: continuing under a different seed, strategy, or worker
// count would silently break the bit-identity contract.
func TestResumeShapeMismatchRejected(t *testing.T) {
	opt := SonarOptions(30)
	opt.Workers = 2
	opt.BatchSize = 4
	_, cp := pausedCampaign(t, opt, 1)

	mutations := map[string]func(*Options){
		"seed":       func(o *Options) { o.Seed++ },
		"workers":    func(o *Options) { o.Workers++ },
		"batch size": func(o *Options) { o.BatchSize++ },
		"iterations": func(o *Options) { o.Iterations++ },
		"strategy":   func(o *Options) { o.DirectedMutation = false },
		"secrets":    func(o *Options) { o.SecretB = 7 },
	}
	for name, mutate := range mutations {
		ropt := cp.CampaignOptions()
		mutate(&ropt)
		if _, err := ResumeExec(liteExec, ropt, cp); err == nil {
			t.Errorf("resume with mismatched %s succeeded", name)
		}
	}
	// Operational fields are not part of the shape.
	ropt := cp.CampaignOptions()
	ropt.CheckpointEvery = 7
	ropt.MaxRounds = 1
	if _, err := ResumeExec(liteExec, ropt, cp); err != nil {
		t.Errorf("resume with changed operational fields failed: %v", err)
	}
}

// A campaign run to completion leaves a Complete checkpoint; resuming it
// returns the final Stats without executing anything.
func TestResumeCompleteCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	opt := SonarOptions(30)
	opt.Workers = 2
	opt.BatchSize = 4
	opt.Checkpoint = path
	full := RunParallel(liteFactory, opt)

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Complete {
		t.Fatal("finished campaign's checkpoint not marked complete")
	}
	if cp.Done != opt.Iterations {
		t.Fatalf("complete checkpoint at %d/%d iterations", cp.Done, opt.Iterations)
	}
	st, err := ResumeExec(liteExec, cp.CampaignOptions(), cp)
	if err != nil {
		t.Fatalf("resume complete checkpoint: %v", err)
	}
	statsEqual(t, full, st)
}

// A checkpoint cut at a mid-pipeline round boundary — while the fold
// goroutine may still be draining the round just merged — must capture the
// exact barrier state: the coordinator drains the pipeline before
// snapshotting, so the resumed campaign's Stats and event stream
// byte-continue the uninterrupted run. Workers=8 with a tiny batch keeps
// the double-buffered pipeline primed at every periodic checkpoint.
func TestCheckpointMidPipelineRoundBoundary(t *testing.T) {
	base := SonarOptions(96)
	base.Workers = 8
	base.BatchSize = 3

	uopt, umem := observedOptions(base)
	full := RunParallel(liteFactory, uopt)

	popt, pmem := observedOptions(base)
	popt.CheckpointEvery = 24 // one checkpoint per round, right behind the fold
	_, cp := pausedCampaign(t, popt, 2)
	if cp.Complete {
		t.Fatal("pause checkpoint marked complete")
	}
	if cp.Done == 0 || cp.Done >= base.Iterations {
		t.Fatalf("pause checkpoint at %d/%d iterations", cp.Done, base.Iterations)
	}

	ropt, rmem := observedOptions(cp.CampaignOptions())
	resumed, err := ResumeExec(liteExec, ropt, cp)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	statsEqual(t, full, resumed)
	concat := append(pmem.Bytes(), rmem.Bytes()...)
	if !bytes.Equal(concat, umem.Bytes()) {
		t.Error("mid-pipeline paused+resumed stream differs from the uninterrupted stream")
	}
}

// Periodic checkpoints: with CheckpointEvery below the campaign length, a
// mid-run pause must find a checkpoint no older than one merge round, and
// resuming from the periodic (not forced) snapshot still reproduces the
// uninterrupted run.
func TestPeriodicCheckpointResumable(t *testing.T) {
	base := SonarOptions(40)
	base.Workers = 2
	base.BatchSize = 4
	full := RunParallel(liteFactory, base)

	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	opt := base
	opt.Checkpoint = path
	opt.CheckpointEvery = 8
	opt.MaxRounds = 3 // pause right after a periodic write (8 per round)
	RunParallel(liteFactory, opt)
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Done == 0 || cp.Done%8 != 0 {
		t.Fatalf("periodic checkpoint at %d iterations, want a multiple of 8", cp.Done)
	}
	resumed, err := ResumeExec(liteExec, cp.CampaignOptions(), cp)
	if err != nil {
		t.Fatal(err)
	}
	statsEqual(t, full, resumed)
}

// Per-shard RNG cursors live in the campaign barrier, not in live workers:
// a shard that drains before a pause has no worker after the resume, yet the
// resumed campaign's final checkpoint must still carry its cursor. The
// final checkpoint of a paused-and-resumed campaign is byte-equal to the
// uninterrupted run's, and to the lease coordinator's snapshot of the same
// campaign.
func TestResumedFinalCheckpointMatchesUninterrupted(t *testing.T) {
	base := SonarOptions(26)
	base.Workers = 3
	base.BatchSize = 4 // shard 2 (8 iterations) drains in the two rounds before the pause

	final := func(path string) []byte {
		t.Helper()
		cp, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if !cp.Complete {
			t.Fatalf("%s: final checkpoint not marked complete", path)
		}
		b, err := cp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	dir := t.TempDir()
	uopt := base
	uopt.Checkpoint = filepath.Join(dir, "uninterrupted.ckpt")
	RunParallel(liteFactory, uopt)
	want := final(uopt.Checkpoint)

	path, cp := pausedCampaign(t, base, 2)
	if cp.Rem[2] != 0 {
		t.Fatalf("shard 2 has %d iterations left at the pause, want a drained shard", cp.Rem[2])
	}
	ropt := cp.CampaignOptions()
	ropt.Checkpoint = path
	if _, err := ResumeExec(liteExec, ropt, cp); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := final(path); !bytes.Equal(got, want) {
		t.Error("resumed final checkpoint differs from the uninterrupted run's")
	}

	lc := NewLeaseCoordinator(liteFactory(), base)
	driveLeases(t, lc)
	got, err := lc.Snapshot(true).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("lease coordinator's final snapshot differs from the uninterrupted run's")
	}
}
