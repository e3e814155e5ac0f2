package core

import (
	"math"
	"testing"

	"repro/internal/hashing"
)

// This file holds the Section 4 search to the paper's Table 2 and to
// exhaustive searches: Optimize, MinVolume and ChooseSum.

// TestOptimizeReproducesTable2 checks every row of the paper's Table 2.
func TestOptimizeReproducesTable2(t *testing.T) {
	want := []struct {
		b       int
		delta   float64
		d       int
		m       int
		its     int
		achieve float64
	}{
		{1024, 1e-4, 37, 8, 3, 3.0e-5},
		{1024, 1e-6, 25, 7, 5, 2.5e-7},
		{1024, 1e-8, 18, 7, 7, 4.1e-9},
		{1024, 1e-10, 14, 6, 10, 2.5e-11},
		{1024, 1e-20, 6, 4, 32, 3.3e-21},
		{4096, 1e-6, 124, 10, 3, 7.4e-7},
		{4096, 1e-10, 68, 9, 6, 2.1e-11},
		{4096, 1e-20, 32, 8, 14, 4.4e-21},
		{16384, 1e-7, 420, 12, 3, 1.8e-8},
		{16384, 1e-10, 273, 11, 5, 1.2e-12},
		{16384, 1e-20, 148, 10, 10, 7.6e-22},
		{16384, 1e-30, 93, 10, 16, 1.3e-31},
		{65536, 1e-10, 1170, 13, 4, 9.1e-13},
		{65536, 1e-20, 630, 12, 8, 1.3e-22},
		{65536, 1e-30, 420, 12, 12, 1.1e-31},
		{65536, 1e-40, 321, 11, 17, 2.9e-42},
	}
	for _, w := range want {
		got, err := Optimize(w.b, w.delta)
		if err != nil {
			t.Fatalf("Optimize(%d, %g): %v", w.b, w.delta, err)
		}
		if got.Iterations != w.its {
			t.Errorf("b=%d delta=%g: its=%d, want %d", w.b, w.delta, got.Iterations, w.its)
			continue
		}
		if got.D != w.d || got.RHatLog != w.m {
			t.Errorf("b=%d delta=%g: (d=%d, m=%d), want (d=%d, m=%d)",
				w.b, w.delta, got.D, got.RHatLog, w.d, w.m)
		}
		// Achieved delta within half an order of magnitude of the
		// paper's rounded figure.
		if math.Abs(math.Log10(got.Achieved)-math.Log10(w.achieve)) > 0.35 {
			t.Errorf("b=%d delta=%g: achieved %.2g, want about %.2g",
				w.b, w.delta, got.Achieved, w.achieve)
		}
	}
}

func TestOptimumRespectsConstraints(t *testing.T) {
	for _, c := range Table2Cases() {
		o, err := Optimize(c.B, c.Delta)
		if err != nil {
			t.Fatal(err)
		}
		if o.SizeBits() > c.B {
			t.Errorf("b=%d delta=%g: result size %d exceeds b", c.B, c.Delta, o.SizeBits())
		}
		if o.Achieved > c.Delta {
			t.Errorf("b=%d delta=%g: achieved %g misses target", c.B, c.Delta, o.Achieved)
		}
	}
}

func TestOptimizeMinimality(t *testing.T) {
	// No configuration with fewer iterations may fit the budget: brute
	// force audit for one case.
	const b, delta = 1024, 1e-6
	o, err := Optimize(b, delta)
	if err != nil {
		t.Fatal(err)
	}
	for m := 1; m <= 40; m++ {
		for d := 2; d <= b/(m+1); d++ {
			its := iterationsFor(d, m, delta)
			if its == 0 || d*(m+1)*its > b {
				continue
			}
			if its < o.Iterations {
				t.Fatalf("found better config d=%d m=%d its=%d", d, m, its)
			}
		}
	}
}

func TestIterationsFor(t *testing.T) {
	// (1/2 + 1/2) = 1: impossible.
	if got := iterationsFor(2, 1, 0.5); got != 0 {
		t.Errorf("impossible config returned %d", got)
	}
	// Single iteration suffices when single <= delta.
	if got := iterationsFor(1024, 10, 0.01); got != 1 {
		t.Errorf("want 1 iteration, got %d", got)
	}
	// Boundary: achieved must actually be <= delta.
	for _, d := range []int{3, 7, 33} {
		for _, m := range []int{2, 5, 9} {
			its := iterationsFor(d, m, 1e-6)
			if its == 0 {
				continue
			}
			single := 1/math.Exp2(float64(m)) + 1/float64(d)
			if math.Pow(single, float64(its)) > 1e-6 {
				t.Errorf("d=%d m=%d its=%d misses delta", d, m, its)
			}
			if its > 1 && math.Pow(single, float64(its-1)) <= 1e-6 {
				t.Errorf("d=%d m=%d its=%d not minimal", d, m, its)
			}
		}
	}
}

func TestOptimizeErrors(t *testing.T) {
	if _, err := Optimize(4, 0.1); err == nil {
		t.Error("tiny b accepted")
	}
	if _, err := Optimize(1024, 0); err == nil {
		t.Error("delta 0 accepted")
	}
	if _, err := Optimize(1024, 1); err == nil {
		t.Error("delta 1 accepted")
	}
}

func TestMinVolume(t *testing.T) {
	// The paper's minimum-volume configuration: d=2, rhat=8, 8-bit
	// result, log_{1.6} iterations. For delta=1e-6 that is
	// ceil(ln 1e-6 / ln 0.625) = 30 iterations.
	o := MinVolume(1e-6)
	if o.D != 2 || o.RHatLog != 3 {
		t.Fatalf("unexpected config: %+v", o)
	}
	if o.Iterations != 30 {
		t.Errorf("iterations %d, want 30", o.Iterations)
	}
	if o.Achieved > 1e-6 {
		t.Errorf("achieved %g misses target", o.Achieved)
	}
	if o.D*(o.RHatLog+1) != 8 {
		t.Errorf("per-iteration size %d bits, want 8", o.D*(o.RHatLog+1))
	}
}

// TestMinVolumeUndercutsTable2: the closed-form minimiser is the least
// volume at which delta is reachable at all, so on every Table 2 case it
// needs no more bits than the optimum that minimises iterations within
// the message size — 160 to 1 568 bits against 960 to 65 520 — and it
// reaches the case's delta.
func TestMinVolumeUndercutsTable2(t *testing.T) {
	for _, c := range Table2Cases() {
		opt, err := Optimize(c.B, c.Delta)
		if err != nil {
			t.Fatal(err)
		}
		mv := MinVolume(c.Delta)
		if mv.SizeBits() > opt.SizeBits() {
			t.Errorf("b=%d delta=%g: MinVolume needs %d bits, Optimize %d", c.B, c.Delta, mv.SizeBits(), opt.SizeBits())
		}
		if mv.Achieved > c.Delta {
			t.Errorf("b=%d delta=%g: MinVolume achieves only %g", c.B, c.Delta, mv.Achieved)
		}
	}
}

// bruteChoice is one configuration of the brute-force search with the
// cost vector ChooseSum orders by.
type bruteChoice struct {
	its, d, m int
	cost      [4]int // updates, hashes, words, iterations per element
	delta     float64
}

// bruteSum enumerates every power-of-two d up to 2^10 (the accumulate
// kernel's L1 budget of 2^10 cells a group), every m up to 62 and every
// iteration count up to 256 that achieves delta with a hash family of
// hashBits bits, and returns the least by ChooseSum's order: cell
// updates per element at the bulk group size g = min(10/w, hashBits/w),
// hash evaluations per element, wire words, iterations; then the lower
// achieved delta and the fewer table bits.
func bruteSum(delta float64, hashBits int) bruteChoice {
	var best bruteChoice
	better := func(c bruteChoice) bool {
		if best.its == 0 {
			return true
		}
		if c.cost != best.cost {
			for i := range c.cost {
				if c.cost[i] != best.cost[i] {
					return c.cost[i] < best.cost[i]
				}
			}
		}
		if c.delta != best.delta {
			return c.delta < best.delta
		}
		return c.its*c.d*(c.m+1) < best.its*best.d*(best.m+1)
	}
	for w := 1; w <= 10; w++ {
		perHash := hashBits / w
		g := max(1, min(10/w, perHash))
		for m := 1; m <= 62; m++ {
			d := 1 << w
			single := 1/math.Exp2(float64(m)) + 1/float64(d)
			for its := 1; its <= 256; its++ {
				achieved := math.Pow(single, float64(its))
				if achieved > delta {
					continue
				}
				updates := 0
				for first := 0; first < its; first += perHash {
					updates += (min(perHash, its-first) + g - 1) / g
				}
				hashes := (its + perHash - 1) / perHash
				words := (its*d*(m+1) + 63) / 64
				if c := (bruteChoice{its, d, m, [4]int{updates, hashes, words, its}, achieved}); better(c) {
					best = c
				}
			}
		}
	}
	return best
}

// TestChooseSumIsBruteForceMinimum holds ChooseSum, the runtime's
// form of the Section 4 search, to an exhaustive search for
// every delta of Table 2 and 1e-9, the default's, with a 32-bit and a
// 64-bit hash family.
func TestChooseSumIsBruteForceMinimum(t *testing.T) {
	deltas := []float64{1e-9}
	for _, c := range Table2Cases() {
		deltas = append(deltas, c.Delta)
	}
	for _, fam := range []hashing.Family{hashing.FamilyCRC, hashing.FamilyTab64} {
		for _, delta := range deltas {
			got, err := ChooseSum(delta, fam)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteSum(delta, fam.Bits)
			if got.Iterations != want.its || got.Buckets != want.d || got.RHatLog != want.m {
				t.Errorf("ChooseSum(%g, %s) = %s, brute force finds %d×%d m%d at cost %v", delta, fam.Name, got.Name(), want.its, want.d, want.m, want.cost)
			}
			if got.AchievedDelta() > delta {
				t.Errorf("ChooseSum(%g, %s) = %s achieves %.3g", delta, fam.Name, got.Name(), got.AchievedDelta())
			}
		}
	}
	if got, _ := ChooseSum(1e-9, hashing.FamilyCRC); got.Name() != "15×4 CRC m10" {
		t.Errorf("ChooseSum(1e-9, CRC) = %s, want 15×4 CRC m10 (3 updates, 1 hash, 11 words)", got.Name())
	}
	for _, delta := range []float64{0, 1, -1, math.NaN()} {
		if _, err := ChooseSum(delta, hashing.FamilyCRC); err == nil {
			t.Errorf("ChooseSum(%g) returned no error", delta)
		}
	}
}
