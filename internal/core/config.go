package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/hashing"
)

// SumConfig parameterises the sum aggregation checker of Section 4:
// Iterations independent instances, each mapping keys into Buckets
// buckets with values accumulated modulo a random r drawn from
// (2^RHatLog, 2^(RHatLog+1)]. The paper writes configurations as
// "#its×d Hashfn m<log2 rhat>", e.g. "5×16 CRC m5".
type SumConfig struct {
	// Iterations is the number of independent checker instances run in
	// parallel (#its).
	Iterations int
	// Buckets is the condensed key-space size d (2 <= d << k).
	Buckets int
	// RHatLog is log2 of the modulus parameter rhat; the modulus r is
	// drawn uniformly from rhat+1 .. 2*rhat.
	RHatLog int
	// Family is the hash family mapping keys to buckets.
	Family hashing.Family
}

// Name renders the paper's configuration syntax, e.g. "4×8 Tab m7".
func (c SumConfig) Name() string {
	return fmt.Sprintf("%d×%d %s m%d", c.Iterations, c.Buckets, c.Family.Name, c.RHatLog)
}

// TableBits is the size of the minireduction result in bits:
// #its * d * ceil(log2(2*rhat)), the "Table size" column of Table 3. A
// sealed sum state carries its table in exactly these bits, rounded up
// to a 64-bit word.
func (c SumConfig) TableBits() int {
	return c.Iterations * c.Buckets * (c.RHatLog + 1)
}

// AchievedDelta is the failure probability bound (1/rhat + 1/d)^#its of
// Lemma 2 boosted over the iterations, the "Failure rate" column of
// Table 3.
func (c SumConfig) AchievedDelta() float64 {
	single := 1/math.Exp2(float64(c.RHatLog)) + 1/float64(c.Buckets)
	return math.Pow(single, float64(c.Iterations))
}

// Validate reports configuration errors.
func (c SumConfig) Validate() error {
	if c.Iterations < 1 {
		return fmt.Errorf("core: config %s: iterations must be >= 1", c.Name())
	}
	if c.Buckets < 2 {
		return fmt.Errorf("core: config %s: buckets must be >= 2", c.Name())
	}
	if c.RHatLog < 1 || c.RHatLog > 62 {
		return fmt.Errorf("core: config %s: rhat log must be in [1, 62]", c.Name())
	}
	if c.Family.New == nil {
		return fmt.Errorf("core: config: missing hash family")
	}
	if need := bits.Len(uint(c.Buckets - 1)); need > c.Family.Bits {
		return fmt.Errorf("core: config %s: a bucket index needs %d bits, family %s hashes to %d",
			c.Name(), need, c.Family.Name, c.Family.Bits)
	}
	return nil
}

// ChooseSum returns the sum checker configuration with hash family fam
// that reaches failure probability delta at the least cost to the
// kernel and the wire — the Section 4 optimisation with this kernel's
// objectives in place of Table 2's fewest iterations (params.Optimize).
// Over power-of-two bucket counts d <= 2^maxGroupBits, every m, and the
// fewest iterations with AchievedDelta <= delta for each, it minimises,
// in this order:
//
//   - cell updates per element at the group size of a large state,
//     g = min(maxGroupBits/width, perHash) (groupSize without its
//     size limit),
//   - hash evaluations per element,
//   - wire words: TableBits rounded up to 64-bit words, and
//   - iterations, which the fold and the checker's set-up scale with;
//
// and it breaks what ties remain by the lower AchievedDelta and then
// the fewer TableBits. Buckets stop at 2^maxGroupBits because a wider
// row leaves the cell tables' L1 budget, where an update no longer
// costs what the order assumes. At delta = 1e-9 with CRC it returns
// 15×4 CRC m10: three updates and one hash an element, 11 words.
func ChooseSum(delta float64, fam hashing.Family) (SumConfig, error) {
	if !(delta > 0 && delta < 1) {
		return SumConfig{}, fmt.Errorf("core: ChooseSum: delta must be in (0, 1), got %g", delta)
	}
	var best SumConfig
	var bestCost [4]int
	for w := 1; w <= min(maxGroupBits, fam.Bits); w++ {
		for m := 1; m <= 62; m++ {
			cfg := SumConfig{Iterations: 1, Buckets: 1 << w, RHatLog: m, Family: fam}
			single := cfg.AchievedDelta()
			if single >= 1 {
				continue // d = 2 with r in {3, 4}: no iteration count helps
			}
			// One below the closed form, then up to the first count
			// that AchievedDelta itself accepts.
			cfg.Iterations = max(1, int(math.Log(delta)/math.Log(single))-1)
			for cfg.AchievedDelta() > delta {
				cfg.Iterations++
			}
			cost := cfg.bulkCost()
			if best.Iterations == 0 || cmp.Or(
				slices.Compare(cost[:], bestCost[:]),
				cmp.Compare(cfg.AchievedDelta(), best.AchievedDelta()),
				cmp.Compare(cfg.TableBits(), best.TableBits())) < 0 {
				best, bestCost = cfg, cost
			}
		}
	}
	return best, nil
}

// bulkCost is ChooseSum's cost vector of a power-of-two configuration:
// cell updates and hash evaluations per element at the group size of a
// large state, wire words and iterations. Its bucket bits lie in its
// hash values as SumChecker.init lays them (hashing.Splitter).
func (c SumConfig) bulkCost() [4]int {
	width := bits.Len(uint(c.Buckets - 1))
	perHash := hashing.NewSplitter(c.Buckets, c.Iterations, c.Family.Bits).PerHash()
	g := max(1, min(maxGroupBits/width, perHash))
	updates, hashes := 0, 0
	for first := 0; first < c.Iterations; first += perHash {
		k := min(perHash, c.Iterations-first)
		updates += (k + g - 1) / g
		hashes++
	}
	return [4]int{updates, hashes, (c.TableBits() + 63) / 64, c.Iterations}
}

// AccuracyConfigs is the first configuration set of Table 3, used for
// the paper's detection-accuracy experiments (Fig. 3). Each shape is
// instantiated with the listed hash families.
func AccuracyConfigs() []SumConfig {
	type shape struct {
		its, d, m int
		families  []hashing.Family
	}
	both := []hashing.Family{hashing.FamilyCRC, hashing.FamilyTab}
	shapes := []shape{
		{1, 2, 31, both},
		{1, 4, 31, both},
		{4, 2, 4, both},
		{4, 4, 3, both},
		{4, 4, 5, both},
		{4, 8, 3, both},
		{4, 8, 5, both},
		{4, 8, 7, both},
	}
	var out []SumConfig
	for _, s := range shapes {
		for _, f := range s.families {
			out = append(out, SumConfig{Iterations: s.its, Buckets: s.d, RHatLog: s.m, Family: f})
		}
	}
	return out
}

// ScalingConfigs is the second configuration set of Table 3, used for
// the weak-scaling experiment (Fig. 4) and the overhead measurements
// (Table 5).
func ScalingConfigs() []SumConfig {
	crc, tab64 := hashing.FamilyCRC, hashing.FamilyTab64
	return []SumConfig{
		{Iterations: 5, Buckets: 16, RHatLog: 5, Family: crc},
		{Iterations: 6, Buckets: 32, RHatLog: 9, Family: crc},
		{Iterations: 8, Buckets: 16, RHatLog: 15, Family: crc},
		{Iterations: 4, Buckets: 256, RHatLog: 15, Family: crc},
		{Iterations: 5, Buckets: 128, RHatLog: 11, Family: tab64},
		{Iterations: 8, Buckets: 256, RHatLog: 15, Family: tab64},
		{Iterations: 16, Buckets: 16, RHatLog: 15, Family: tab64},
	}
}

// PermAccuracyConfigs is the configuration set of the permutation
// checker's detection-accuracy experiment (Fig. 5, Appendix A): CRC-32C
// and tabulation hashing, one iteration, truncated to each hash width
// of the figure's x-axis.
func PermAccuracyConfigs() []PermConfig {
	var out []PermConfig
	for _, fam := range []hashing.Family{hashing.FamilyCRC, hashing.FamilyTab} {
		for _, logH := range []int{1, 2, 3, 4, 6, 8, 12} {
			out = append(out, PermConfig{Family: fam, LogH: logH, Iterations: 1})
		}
	}
	return out
}
