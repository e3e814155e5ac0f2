package core

import (
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/workload"
)

func shardU64(xs []uint64, p, r int) []uint64 {
	s, e := data.SplitEven(len(xs), p, r)
	return xs[s:e]
}

var permCfg = PermConfig{Family: hashing.FamilyTab, LogH: 32, Iterations: 1}

// shuffled returns a deterministic permutation of xs.
func shuffled(xs []uint64, seed uint64) []uint64 {
	out := data.CloneU64s(xs)
	rng := hashing.NewMT19937_64(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := int(rng.Uint64n(uint64(i + 1)))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func TestPermCheckerAcceptsPermutation(t *testing.T) {
	input := workload.UniformU64s(4000, 1e8, 1)
	output := shuffled(input, 42)
	for _, p := range []int{1, 2, 4, 7} {
		for seed := uint64(0); seed < 5; seed++ {
			err := dist.RunConfig(dist.Config{}, p, seed, func(w *dist.Worker) error {
				ok, err := check(w, func(seed uint64) CheckState {
					return NewPermState("Permutation", permCfg, seed, [][]uint64{shardU64(input, p, w.Rank())}, shardU64(output, p, w.Rank()))
				})
				if err != nil {
					return err
				}
				if !ok {
					t.Errorf("p=%d seed=%d: permutation rejected", p, seed)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPermCheckerAcceptsAllConfigs is the permutation counterpart of
// TestSumCheckerAcceptsAllConfigs: every Fig. 5 configuration accepts a
// correct permutation, distributed — however few hash bits it keeps.
func TestPermCheckerAcceptsAllConfigs(t *testing.T) {
	input := workload.UniformU64s(400, 1e8, 5)
	output := shuffled(input, 9)
	for _, cfg := range PermAccuracyConfigs() {
		err := dist.RunConfig(dist.Config{}, 2, 11, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewPermState("Permutation", cfg, seed, [][]uint64{shardU64(input, 2, w.Rank())}, shardU64(output, 2, w.Rank()))
			})
			if err != nil {
				return err
			}
			if !ok {
				t.Errorf("config %s rejected a correct permutation", cfg.Name())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestPermCheckerAcceptsWithDuplicates(t *testing.T) {
	input := make([]uint64, 1000)
	for i := range input {
		input[i] = uint64(i % 10)
	}
	output := shuffled(input, 7)
	err := dist.RunConfig(dist.Config{}, 4, 3, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewPermState("Permutation", permCfg, seed, [][]uint64{shardU64(input, 4, w.Rank())}, shardU64(output, 4, w.Rank()))
		})
		if err != nil {
			return err
		}
		if !ok {
			t.Error("duplicate-heavy permutation rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPermCheckerDetectsChangedElement(t *testing.T) {
	input := workload.UniformU64s(2000, 1e8, 2)
	detected := 0
	const trials = 100
	for seed := uint64(0); seed < trials; seed++ {
		bad := shuffled(input, seed)
		bad[int(seed)%len(bad)] ^= 1 << (seed % 27)
		err := dist.RunConfig(dist.Config{}, 3, seed, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewPermState("Permutation", permCfg, seed, [][]uint64{shardU64(input, 3, w.Rank())}, shardU64(bad, 3, w.Rank()))
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 && !ok {
				detected++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if detected < trials-2 { // delta = 2^-32
		t.Fatalf("only %d of %d manipulations detected", detected, trials)
	}
}

func TestPermCheckerTruncatedFailureRate(t *testing.T) {
	// With LogH = 2, a manipulation escapes with probability about
	// 1/4. Check the empirical rate is in a sane band (this is the
	// Fig. 5 mechanism in miniature).
	cfg := PermConfig{Family: hashing.FamilyTab, LogH: 2, Iterations: 1}
	input := workload.UniformU64s(500, 1e8, 3)
	missed := 0
	const trials = 600
	for seed := uint64(0); seed < trials; seed++ {
		bad := data.CloneU64s(input)
		bad[int(seed)%len(bad)] = hashing.Mix64(seed) % 1e8
		err := dist.RunConfig(dist.Config{}, 2, seed, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewPermState("Permutation", cfg, seed, [][]uint64{shardU64(input, 2, w.Rank())}, shardU64(bad, 2, w.Rank()))
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 && ok {
				missed++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rate := float64(missed) / trials
	if rate < 0.12 || rate > 0.40 {
		t.Fatalf("miss rate %.3f outside [0.12, 0.40] for delta=0.25", rate)
	}
}

func TestPermCheckerIterationsBoost(t *testing.T) {
	// LogH=1 with 8 iterations should miss far less often than with 1.
	cfgWeak := PermConfig{Family: hashing.FamilyTab, LogH: 1, Iterations: 1}
	cfgBoost := PermConfig{Family: hashing.FamilyTab, LogH: 1, Iterations: 8}
	input := workload.UniformU64s(300, 1e8, 4)
	missWeak, missBoost := 0, 0
	const trials = 300
	for seed := uint64(0); seed < trials; seed++ {
		bad := data.CloneU64s(input)
		bad[int(seed)%len(bad)]++
		for _, mode := range []struct {
			cfg  PermConfig
			miss *int
		}{{cfgWeak, &missWeak}, {cfgBoost, &missBoost}} {
			mode := mode
			err := dist.RunConfig(dist.Config{}, 2, seed, func(w *dist.Worker) error {
				ok, err := check(w, func(seed uint64) CheckState {
					return NewPermState("Permutation", mode.cfg, seed, [][]uint64{shardU64(input, 2, w.Rank())}, shardU64(bad, 2, w.Rank()))
				})
				if err != nil {
					return err
				}
				if w.Rank() == 0 && ok {
					*mode.miss++
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if missWeak < trials/4 {
		t.Fatalf("LogH=1 missed only %d of %d; expected about half", missWeak, trials)
	}
	if missBoost > trials/20 {
		t.Fatalf("8 iterations missed %d of %d; expected almost none", missBoost, trials)
	}
}

func TestPermConfigDeltaAndValidate(t *testing.T) {
	for _, tc := range []struct {
		cfg  PermConfig
		want float64
	}{
		{PermConfig{Family: hashing.FamilyTab, LogH: 4, Iterations: 2}, 0x1p-8},
		{PermConfig{Family: hashing.FamilyTab64, LogH: 64, Iterations: 1}, 0x1p-64}, // H = 2^64 does not fit a uint64
		{PermConfig{Family: hashing.FamilyTab, LogH: 32, Iterations: 2}, 0x1p-64},
		{PermConfig{Family: hashing.FamilyCRC, LogH: 4, Iterations: 3}, 0x1p-12},
	} {
		if err := tc.cfg.Validate(); err != nil {
			t.Errorf("%s ×%d: %v", tc.cfg.Name(), tc.cfg.Iterations, err)
		}
		if d := tc.cfg.Delta(); d != tc.want {
			t.Errorf("%s ×%d: Delta = %g, want %g", tc.cfg.Name(), tc.cfg.Iterations, d, tc.want)
		}
	}
	cfg := PermConfig{Family: hashing.FamilyTab, LogH: 4, Iterations: 2}
	bad := []PermConfig{
		{Family: hashing.FamilyTab, LogH: 0, Iterations: 1},
		{Family: hashing.FamilyTab, LogH: 33, Iterations: 1}, // Tab is 32-bit
		{Family: hashing.FamilyTab, LogH: 4, Iterations: 0},
		{LogH: 4, Iterations: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	if cfg.Name() != "Tab 4" {
		t.Errorf("Name = %q", cfg.Name())
	}
}

func TestPolyPermChecker(t *testing.T) {
	input := workload.UniformU64s(1000, 1e8, 5)
	output := shuffled(input, 9)
	err := dist.RunConfig(dist.Config{}, 4, 1, func(w *dist.Worker) error {
		ok, err := CheckPermutationPoly(w, PolyPermConfig{Iterations: 2}, shardU64(input, 4, w.Rank()), shardU64(output, 4, w.Rank()))
		if err != nil {
			return err
		}
		if !ok {
			t.Error("poly checker rejected a permutation")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Detection.
	detected := 0
	for seed := uint64(0); seed < 40; seed++ {
		bad := shuffled(input, seed)
		bad[3] += 1
		err := dist.RunConfig(dist.Config{}, 2, seed, func(w *dist.Worker) error {
			ok, err := CheckPermutationPoly(w, PolyPermConfig{Iterations: 1}, shardU64(input, 2, w.Rank()), shardU64(bad, 2, w.Rank()))
			if err != nil {
				return err
			}
			if w.Rank() == 0 && !ok {
				detected++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if detected != 40 {
		t.Fatalf("poly checker detected %d of 40", detected)
	}
}

// TestPolyPermCheckerUniverseGuard: one PE holding an element outside
// the field's universe is an error on every PE.
func TestPolyPermCheckerUniverseGuard(t *testing.T) {
	err := dist.RunConfig(dist.Config{}, 3, 1, func(w *dist.Worker) error {
		xs := []uint64{uint64(w.Rank())}
		if w.Rank() == 1 {
			xs = []uint64{^uint64(0)}
		}
		_, err := CheckPermutationPoly(w, PolyPermConfig{Iterations: 1}, xs, xs)
		if err == nil {
			t.Errorf("rank %d: expected universe violation error", w.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPolyCheckersOneAllReduction pins what one Lemma 5 check costs in
// collective operations once the common seed is cached: a single
// all-reduction, the universe flag riding along as an AND word.
func TestPolyCheckersOneAllReduction(t *testing.T) {
	input := workload.UniformU64s(400, 1e8, 8)
	output := shuffled(input, 2)
	err := dist.RunConfig(dist.Config{}, 3, 1, func(w *dist.Worker) error {
		if _, err := w.CommonSeed(); err != nil {
			return err
		}
		in, out := shardU64(input, 3, w.Rank()), shardU64(output, 3, w.Rank())
		// Every PE runs the checks in the same order: a slice, not a map.
		for _, c := range []struct {
			name string
			run  func() (bool, error)
		}{
			{"Poly", func() (bool, error) { return CheckPermutationPoly(w, PolyPermConfig{Iterations: 2}, in, out) }},
			{"GF", func() (bool, error) { return CheckPermutationGF(w, 2, in, out) }},
		} {
			before := w.Coll.OpsStarted()
			ok, err := c.run()
			if err != nil {
				return err
			}
			if ops := w.Coll.OpsStarted() - before; ops != 2 || !ok {
				t.Errorf("%s rank %d: verdict %v after %d collective ops, want true after 2", c.name, w.Rank(), ok, ops)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGFPermChecker(t *testing.T) {
	// Full 64-bit universe is fine for the GF variant.
	input := []uint64{^uint64(0), 0, 1 << 63, 12345, ^uint64(0) - 7}
	output := shuffled(input, 3)
	err := dist.RunConfig(dist.Config{}, 3, 1, func(w *dist.Worker) error {
		ok, err := CheckPermutationGF(w, 2, shardU64(input, 3, w.Rank()), shardU64(output, 3, w.Rank()))
		if err != nil {
			return err
		}
		if !ok {
			t.Error("GF checker rejected a permutation")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	for seed := uint64(0); seed < 40; seed++ {
		bad := data.CloneU64s(input)
		bad[int(seed)%len(bad)] ^= 2
		err := dist.RunConfig(dist.Config{}, 2, seed, func(w *dist.Worker) error {
			ok, err := CheckPermutationGF(w, 1, shardU64(input, 2, w.Rank()), shardU64(bad, 2, w.Rank()))
			if err != nil {
				return err
			}
			if w.Rank() == 0 && !ok {
				detected++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if detected != 40 {
		t.Fatalf("GF checker detected %d of 40", detected)
	}
}

func TestUnionChecker(t *testing.T) {
	a := workload.UniformU64s(800, 1e8, 6)
	b := workload.UniformU64s(1200, 1e8, 7)
	out := shuffled(append(data.CloneU64s(a), b...), 11)
	err := dist.RunConfig(dist.Config{}, 4, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewPermState("Union", permCfg, seed, [][]uint64{shardU64(a, 4, w.Rank()), shardU64(b, 4, w.Rank())}, shardU64(out, 4, w.Rank()))
		})
		if err != nil {
			return err
		}
		if !ok {
			t.Error("correct union rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A union that loses one element must be caught.
	detected := 0
	for seed := uint64(0); seed < 50; seed++ {
		bad := shuffled(append(data.CloneU64s(a), b...), seed)[1:]
		err := dist.RunConfig(dist.Config{}, 2, seed, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewPermState("Union", permCfg, seed, [][]uint64{shardU64(a, 2, w.Rank()), shardU64(b, 2, w.Rank())}, shardU64(bad, 2, w.Rank()))
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 && !ok {
				detected++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if detected < 49 {
		t.Fatalf("lost element detected only %d of 50 times", detected)
	}
}

// TestRecycledTablesNeverLeak is TestCellScratchNeverLeaks for the hash
// tables a consumed builder hands back: whatever function they held —
// another seed's, another width's — the next checker built on them
// fingerprints exactly like one whose tables nobody else ever touched.
// Tab ×2 runs on a pair's tables, Tab ×3 on a pair's and a single
// function's, and the oracle builds each iteration's function alone.
func TestRecycledTablesNeverLeak(t *testing.T) {
	xs := workload.UniformU64s(3000, 1e9, 11)
	for _, cfg := range []PermConfig{
		{Family: hashing.FamilyTab, LogH: 32, Iterations: 2},
		{Family: hashing.FamilyTab, LogH: 32, Iterations: 3},
		{Family: hashing.FamilyTab64, LogH: 32, Iterations: 2},
	} {
		fam := cfg.Family
		want := func(seed uint64) []uint64 {
			// Never handed to a builder: its tables are never recycled.
			lambda := make([]uint64, cfg.Iterations)
			NewPermChecker(cfg, seed).AccumulateIntoScalar(lambda, xs, false)
			return lambda
		}
		wantA, wantB := want(0xa), want(0xb)
		// A sealed state keeps each sum's low LogH bits, the only ones a
		// verdict reads, packed one lane per iteration.
		width, mask := uint(cfg.LogH), uint64(1)<<cfg.LogH-1
		for round := 0; round < 4; round++ {
			// Consume several builders at once, so the pool holds more
			// tables than the next checker takes, all of them dirty
			// with seed 0xa's function.
			var held []*PermBuilder
			for i := 0; i < 3; i++ {
				b := NewPermBuilder("dirty", cfg, 0xa, Serial)
				b.AddInput(xs)
				held = append(held, b)
			}
			for i, b := range held {
				words := b.Seal().Words()
				for it := range cfg.Iterations {
					if v, w := lane(words, it, width), wantA[it]&mask; v != w {
						t.Fatalf("%s ×%d round %d: builder %d sealed to %#x in iteration %d, want %#x", fam.Name, cfg.Iterations, round, i, v, it, w)
					}
				}
			}
			b := NewPermBuilder("victim", cfg, 0xb, Serial)
			b.AddInput(xs)
			words := b.Seal().Words()
			for it := range cfg.Iterations {
				if v, w := lane(words, it, width), wantB[it]&mask; v != w {
					t.Fatalf("%s ×%d round %d: checker on recycled tables fingerprints to %#x in iteration %d, want %#x", fam.Name, cfg.Iterations, round, v, it, w)
				}
			}
		}
	}
}

// FuzzPermAccumulate: bytes → a checker (seed, 1–5 iterations, LogH
// 1–32, a family), a sign and a sequence of 0–3 000 keys; the kernel's
// sums must equal the per-iteration scalar oracle's in all 64 bits,
// added into sums that already hold a value. Tab takes the paired path
// (an odd count ends on a single function); the other families keep
// one function per iteration.
func FuzzPermAccumulate(f *testing.F) {
	f.Add(uint64(1), uint16(2000), byte(1), byte(31), byte(0))
	f.Add(uint64(0xdeadbeef), uint16(3000), byte(2), byte(3), byte(1))
	f.Add(uint64(7), uint16(257), byte(4), byte(0), byte(5))
	f.Add(uint64(42), uint16(0), byte(3), byte(15), byte(2))
	fams := []hashing.Family{hashing.FamilyTab, hashing.FamilyTab, hashing.FamilyCRC, hashing.FamilyTab64}
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, its, logH, mode byte) {
		cfg := PermConfig{Family: fams[int(mode>>1)%len(fams)], LogH: 1 + int(logH)%32, Iterations: 1 + int(its)%5}
		negate := mode&1 == 1
		xs := make([]uint64, int(n)%3001)
		s := seed
		for i := range xs {
			xs[i] = hashing.SplitMix64(&s)
			if i%3 == 0 {
				xs[i] &= 0xff // repeated small keys
			}
		}
		c := NewPermChecker(cfg, seed)
		got, want := make([]uint64, cfg.Iterations), make([]uint64, cfg.Iterations)
		for it := range got {
			got[it] = uint64(it) * 0x9e3779b97f4a7c15
			want[it] = got[it]
		}
		c.AccumulateInto(got, xs, negate)
		c.AccumulateIntoScalar(want, xs, negate)
		for it := range got {
			if got[it] != want[it] {
				t.Fatalf("%s ×%d n=%d negate=%v: iteration %d sums to %#x, the scalar oracle to %#x",
					cfg.Name(), cfg.Iterations, len(xs), negate, it, got[it], want[it])
			}
		}
	})
}

// TestPermCheckerEscapeRateWithinDelta is the permutation slice of
// ROADMAP's delta gate, owed because the generator under the Tab
// family's tables changed: at deliberately weak parameters, over seeded
// trials of every Table 6 manipulator, the observed escape rate must be
// statistically consistent with Delta — the exact binomial test of
// TestSumCheckerEscapeRateWithinDelta, at 0.1 %. Every trial also checks
// the one-sided contract: a shuffle of the input is accepted. Checkers
// are built and sealed through the builder, so all but the first run on
// recycled tables.
func TestPermCheckerEscapeRateWithinDelta(t *testing.T) {
	const (
		n        = 512
		universe = 1 << 20
		trials   = 200
	)
	cfgs := []PermConfig{
		{Family: hashing.FamilyTab, LogH: 4, Iterations: 1}, // 1/16
		{Family: hashing.FamilyTab, LogH: 8, Iterations: 1}, // 1/256
		{Family: hashing.FamilyTab, LogH: 4, Iterations: 2}, // 1/256
	}
	input := workload.UniformU64s(n, universe, 0xde17a)
	clean := shuffled(input, 0x5bff1e)
	bad := make([]uint64, n)
	accepts := func(cfg PermConfig, seed uint64, output []uint64) bool {
		st := NewPermState("gate", cfg, seed, [][]uint64{input}, output)
		return st.LocalOK() && st.Verdict(st.Words()) // p = 1: the combined vector is the local one
	}
	for _, cfg := range cfgs {
		delta := cfg.Delta()
		for mi, m := range manipulate.SeqManipulators() {
			escapes, ran := 0, 0
			for trial := 0; trial < trials; trial++ {
				seed := hashing.Mix64(uint64(trial)*0x9e3779b97f4a7c15 ^ uint64(mi)<<32 ^ 0xe5ca9e)
				copy(bad, input)
				if !m.Apply(bad, hashing.NewMT19937_64(seed), universe) || !manipulate.ChangesMultiset(input, bad) {
					continue
				}
				ran++
				if !accepts(cfg, seed, clean) {
					t.Fatalf("%s ×%d seed %#x: clean permutation rejected", cfg.Name(), cfg.Iterations, seed)
				}
				if accepts(cfg, seed, bad) {
					escapes++
				}
			}
			if ran < trials*9/10 {
				t.Fatalf("%s ×%d %s: only %d of %d trials injected a fault", cfg.Name(), cfg.Iterations, m.Name, ran, trials)
			}
			if pval := binomTailGE(ran, escapes, delta); pval < 0.001 {
				t.Errorf("%s ×%d %s: %d of %d faults escaped (%.3f), not consistent with delta %.4f (p = %.2g)",
					cfg.Name(), cfg.Iterations, m.Name, escapes, ran, float64(escapes)/float64(ran), delta, pval)
			}
		}
	}
}
