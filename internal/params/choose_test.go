package params_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/params"
)

// bruteChoice is one configuration of the brute-force search with the
// cost vector core.ChooseSum orders by.
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

// TestChooseSumIsBruteForceMinimum holds core.ChooseSum, the runtime's
// form of this package's Section 4 search, to an exhaustive search for
// every delta of Table 2 and 1e-9, the default's, with a 32-bit and a
// 64-bit hash family.
func TestChooseSumIsBruteForceMinimum(t *testing.T) {
	deltas := []float64{1e-9}
	for _, c := range params.Table2Cases() {
		deltas = append(deltas, c.Delta)
	}
	for _, fam := range []hashing.Family{hashing.FamilyCRC, hashing.FamilyTab64} {
		for _, delta := range deltas {
			got, err := core.ChooseSum(delta, fam)
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
	if got, _ := core.ChooseSum(1e-9, hashing.FamilyCRC); got.Name() != "15×4 CRC m10" {
		t.Errorf("ChooseSum(1e-9, CRC) = %s, want 15×4 CRC m10 (3 updates, 1 hash, 11 words)", got.Name())
	}
	for _, delta := range []float64{0, 1, -1, math.NaN()} {
		if _, err := core.ChooseSum(delta, hashing.FamilyCRC); err == nil {
			t.Errorf("ChooseSum(%g) returned no error", delta)
		}
	}
}
