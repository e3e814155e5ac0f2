package core

import (
	"testing"

	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/workload"
)

// The tests of Lemma 4's permutation checker, HashSumChecker: the hash
// sums of Fig. 5 and Section 7.2.

// TestPermCheckerAcceptsAllConfigs is the permutation counterpart of
// TestSumCheckerAcceptsAllConfigs: every Fig. 5 configuration accepts a
// correct permutation on every seed — however few hash bits it keeps.
func TestPermCheckerAcceptsAllConfigs(t *testing.T) {
	input := workload.UniformU64s(400, 1e8, 5)
	output := shuffled(input, 9)
	for _, cfg := range PermAccuracyConfigs() {
		for seed := range uint64(20) {
			if !NewHashSumChecker(cfg, seed).Check(input, output) {
				t.Errorf("config %s seed %d rejected a correct permutation", cfg.Name(), seed)
			}
		}
	}
}

func TestPermCheckerTruncatedFailureRate(t *testing.T) {
	// With LogH = 2, a manipulation escapes with probability about
	// 1/4. Check the empirical rate is in a sane band (this is the
	// Fig. 5 mechanism in miniature).
	cfg := HashSumConfig{Family: hashing.FamilyTab, LogH: 2, Iterations: 1}
	input := workload.UniformU64s(500, 1e8, 3)
	missed := 0
	const trials = 600
	for seed := range uint64(trials) {
		bad := data.CloneU64s(input)
		bad[int(seed)%len(bad)] = hashing.Mix64(seed) % 1e8
		if NewHashSumChecker(cfg, seed).Check(input, bad) {
			missed++
		}
	}
	rate := float64(missed) / trials
	if rate < 0.12 || rate > 0.40 {
		t.Fatalf("miss rate %.3f outside [0.12, 0.40] for delta=0.25", rate)
	}
}

func TestPermCheckerIterationsBoost(t *testing.T) {
	// LogH=1 with 8 iterations should miss far less often than with 1.
	cfgWeak := HashSumConfig{Family: hashing.FamilyTab, LogH: 1, Iterations: 1}
	cfgBoost := HashSumConfig{Family: hashing.FamilyTab, LogH: 1, Iterations: 8}
	input := workload.UniformU64s(300, 1e8, 4)
	missWeak, missBoost := 0, 0
	const trials = 300
	for seed := range uint64(trials) {
		bad := data.CloneU64s(input)
		bad[int(seed)%len(bad)]++
		if NewHashSumChecker(cfgWeak, seed).Check(input, bad) {
			missWeak++
		}
		if NewHashSumChecker(cfgBoost, seed).Check(input, bad) {
			missBoost++
		}
	}
	if missWeak < trials/4 {
		t.Fatalf("LogH=1 missed only %d of %d; expected about half", missWeak, trials)
	}
	if missBoost > trials/20 {
		t.Fatalf("8 iterations missed %d of %d; expected almost none", missBoost, trials)
	}
}

func TestHashSumConfigDeltaAndValidate(t *testing.T) {
	for _, tc := range []struct {
		cfg  HashSumConfig
		want float64
	}{
		{HashSumConfig{Family: hashing.FamilyTab, LogH: 4, Iterations: 2}, 0x1p-8},
		{HashSumConfig{Family: hashing.FamilyTab64, LogH: 64, Iterations: 1}, 0x1p-64}, // H = 2^64 does not fit a uint64
		{HashSumConfig{Family: hashing.FamilyTab, LogH: 32, Iterations: 2}, 0x1p-64},
		{HashSumConfig{Family: hashing.FamilyCRC, LogH: 4, Iterations: 3}, 0x1p-12},
	} {
		if err := tc.cfg.Validate(); err != nil {
			t.Errorf("%s ×%d: %v", tc.cfg.Name(), tc.cfg.Iterations, err)
		}
		if d := tc.cfg.Delta(); d != tc.want {
			t.Errorf("%s ×%d: Delta = %g, want %g", tc.cfg.Name(), tc.cfg.Iterations, d, tc.want)
		}
	}
	for i, cfg := range []HashSumConfig{
		{Family: hashing.FamilyTab, LogH: 0, Iterations: 1},
		{Family: hashing.FamilyTab, LogH: 33, Iterations: 1}, // Tab is 32-bit
		{Family: hashing.FamilyTab, LogH: 4, Iterations: 0},
		{LogH: 4, Iterations: 1}, // no family
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	if name := (HashSumConfig{Family: hashing.FamilyTab, LogH: 4, Iterations: 2}).Name(); name != "Tab 4" {
		t.Errorf("Name = %q", name)
	}
}

// hashSumOracle is the scalar loop the hash-sum kernel is held to: one
// Hash64 call per element and iteration, the low LogH bits of each
// added (or, with negate, subtracted) into sums in element order.
func hashSumOracle(c *HashSumChecker, sums, xs []uint64, negate bool) {
	for it, h := range c.hashers {
		var acc uint64
		for _, x := range xs {
			acc += h.Hash64(x) & c.mask()
		}
		if negate {
			acc = -acc
		}
		sums[it] += acc
	}
}

// FuzzPermAccumulate: bytes → a hash-sum checker (seed, 1–5 iterations,
// LogH 1–32, a family), a sign and a sequence of 0–3 000 keys; the
// kernel's sums must equal hashSumOracle's in all 64 bits, added into
// sums that already hold a value.
func FuzzPermAccumulate(f *testing.F) {
	f.Add(uint64(1), uint16(2000), byte(1), byte(31), byte(0))
	f.Add(uint64(0xdeadbeef), uint16(3000), byte(2), byte(3), byte(1))
	f.Add(uint64(7), uint16(257), byte(4), byte(0), byte(5))
	f.Add(uint64(42), uint16(0), byte(3), byte(15), byte(2))
	fams := []hashing.Family{hashing.FamilyTab, hashing.FamilyTab, hashing.FamilyCRC, hashing.FamilyTab64}
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, its, logH, mode byte) {
		cfg := HashSumConfig{Family: fams[int(mode>>1)%len(fams)], LogH: 1 + int(logH)%32, Iterations: 1 + int(its)%5}
		negate := mode&1 == 1
		xs := make([]uint64, int(n)%3001)
		s := seed
		for i := range xs {
			xs[i] = hashing.SplitMix64(&s)
			if i%3 == 0 {
				xs[i] &= 0xff // repeated small keys
			}
		}
		c := NewHashSumChecker(cfg, seed)
		got, want := make([]uint64, cfg.Iterations), make([]uint64, cfg.Iterations)
		for it := range got {
			got[it] = uint64(it) * 0x9e3779b97f4a7c15
			want[it] = got[it]
		}
		c.AccumulateInto(got, xs, negate)
		hashSumOracle(c, want, xs, negate)
		for it := range got {
			if got[it] != want[it] {
				t.Fatalf("%s ×%d n=%d negate=%v: iteration %d sums to %#x, the scalar oracle to %#x",
					cfg.Name(), cfg.Iterations, len(xs), negate, it, got[it], want[it])
			}
		}
	})
}
