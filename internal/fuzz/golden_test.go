package fuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"sonar/internal/boom"
	"sonar/internal/nutshell"
	"sonar/internal/uarch"
)

// goldenStatsDigest runs a two-worker Sonar campaign and returns the SHA-256
// of its canonical Stats wire encoding.
func goldenStatsDigest(t *testing.T, newSoC func() *uarch.SoC, iters int, seed int64) string {
	t.Helper()
	f := SharedAnalysisFactory(newSoC)
	opt := SonarOptions(iters)
	opt.Seed = seed
	opt.Workers = 2
	opt.KeepFindings = 32
	b, err := json.Marshal(RunParallelExec(func() Executor { return f() }, opt).Wire())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenCampaignStats pins whole campaigns byte for byte: every cycle
// the core model spends, every pulse the monitor sees and every corpus
// selection feed into the Stats wire, so a behavioural drift anywhere in the
// hot loop changes these digests. They were recorded before the core model
// and corpus selection were optimised, and must never be re-recorded to
// make a speedup pass.
func TestGoldenCampaignStats(t *testing.T) {
	for _, tc := range []struct {
		name   string
		newSoC func() *uarch.SoC
		iters  int
		seed   int64
		want   string
	}{
		{"boom-lite/seed=1001", boom.NewLite, 4000, 1001, "5f8505f2f145659edc91f9007572bd4fb6ece37b000a78e4914667cba02629a6"},
		{"boom-lite/seed=1002", boom.NewLite, 4000, 1002, "c7a8aeb72744c46060c27aa800fbb21bca02e8fead230eb946d800ffb51c4640"},
		{"nutshell", nutshell.New, 300, 7, "cbe8435e2d3df05aabb3a387a7be158bb87bc29f892f420382fa100cb8ea1ef0"},
		{"boom", boom.New, 300, 7, "96917e3d5d5aec036006cd29714625ca4c44fa4b98e74f6ea0f9fe3fdd1b5581"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := goldenStatsDigest(t, tc.newSoC, tc.iters, tc.seed); got != tc.want {
				t.Errorf("Stats wire digest %s, want %s", got, tc.want)
			}
		})
	}
}
