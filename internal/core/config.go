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
	return math.Pow(c.single(), float64(c.Iterations))
}

// single is the failure probability bound of one iteration, 1/rhat + 1/d.
func (c SumConfig) single() float64 {
	return 1/math.Exp2(float64(c.RHatLog)) + 1/float64(c.Buckets)
}

// Validate reports configuration errors. The bucket count must be a
// power of two: Section 7.1 cuts one wide hash value into log2 d-bit
// bucket indices (layout), so no other d has a layout.
func (c SumConfig) Validate() error {
	if c.Iterations < 1 {
		return fmt.Errorf("core: config %s: iterations must be >= 1", c.Name())
	}
	if c.Buckets < 2 || c.Buckets&(c.Buckets-1) != 0 {
		return fmt.Errorf("core: config %s: buckets must be a power of two >= 2", c.Name())
	}
	if c.RHatLog < 1 || c.RHatLog > 62 {
		return fmt.Errorf("core: config %s: rhat log must be in [1, 62]", c.Name())
	}
	if c.Family.New == nil {
		return fmt.Errorf("core: config: missing hash family")
	}
	if need := bits.TrailingZeros(uint(c.Buckets)); need > c.Family.Bits {
		return fmt.Errorf("core: config %s: a bucket index needs %d bits, family %s hashes to %d",
			c.Name(), need, c.Family.Name, c.Family.Bits)
	}
	return nil
}

// layout is how a valid configuration's bucket indices lie in its hash
// values (Section 7.1): an iteration's index is width = log2 d bits of
// a hash value, perHash = Family.Bits / width consecutive iterations
// take theirs from one value, low bits first, and hashes values cover
// all the iterations.
func (c SumConfig) layout() (width, perHash, hashes int) {
	width = bits.TrailingZeros(uint(c.Buckets))
	perHash = c.Family.Bits / width
	return width, perHash, (c.Iterations + perHash - 1) / perHash
}

// iterationsFor returns the fewest iterations at which d buckets and
// rhat = 2^m reach delta (AchievedDelta <= delta), or 0 if no count does
// (1/2^m + 1/d >= 1: d = 2 with r in {3, 4}). It starts one below the
// closed form and steps up to the first count that AchievedDelta itself
// accepts.
func iterationsFor(d, m int, delta float64) int {
	single := SumConfig{Buckets: d, RHatLog: m}.single()
	if single >= 1 {
		return 0
	}
	its := max(1, int(math.Log(delta)/math.Log(single))-1)
	for math.Pow(single, float64(its)) > delta { // AchievedDelta at its
		its++
	}
	return its
}

// search is the optimisation of Section 4, behind both Table 2
// (Optimize) and the runtime's default (ChooseSum): over every d in
// 2..maxD and m in 1..maxM with hash family fam, it takes the fewest
// iterations that reach delta (iterationsFor), keeps the configurations
// keep accepts and returns the least by order, or false if keep accepts
// none. keep must not accept at a larger m or at more iterations what
// it rejects at one iteration, so that the first m it rejects there
// ends the search of that d.
func search(delta float64, fam hashing.Family, maxD, maxM int, keep func(SumConfig) bool, order func(a, b SumConfig) int) (SumConfig, bool) {
	var best SumConfig
	for d := 2; d <= maxD; d++ {
		for m := 1; m <= maxM; m++ {
			cfg := SumConfig{Iterations: 1, Buckets: d, RHatLog: m, Family: fam}
			if !keep(cfg) {
				break
			}
			if cfg.Iterations = iterationsFor(d, m, delta); cfg.Iterations == 0 || !keep(cfg) {
				continue
			}
			if best.Iterations == 0 || order(cfg, best) < 0 {
				best = cfg
			}
		}
	}
	return best, best.Iterations != 0
}

// Optimum is one row of Table 2.
type Optimum struct {
	B          int     // message size in bits
	Delta      float64 // target failure probability
	D          int     // bucket count
	RHatLog    int     // log2 of the modulus parameter rhat
	Iterations int     // #its
	Achieved   float64 // achieved failure probability
}

// SizeBits is the minireduction result size d*(RHatLog+1)*its.
func (o Optimum) SizeBits() int { return o.D * (o.RHatLog + 1) * o.Iterations }

// Optimize regenerates one row of the paper's Table 2: the search over
// every d and m whose table fits in b bits, for the fewest iterations
// and then the lower achieved failure probability. Its d need not be a
// power of two, so a row may name a configuration this checker cannot
// run (Validate); ChooseSum searches the ones it can.
func Optimize(b int, delta float64) (Optimum, error) {
	if b < 8 {
		return Optimum{}, fmt.Errorf("core: message size %d too small", b)
	}
	if !(delta > 0 && delta < 1) {
		return Optimum{}, fmt.Errorf("core: delta must be in (0, 1), got %g", delta)
	}
	cfg, ok := search(delta, hashing.Family{}, b/2, 40,
		func(c SumConfig) bool { return c.TableBits() <= b },
		func(x, y SumConfig) int {
			if c := cmp.Compare(x.Iterations, y.Iterations); c != 0 {
				return c
			}
			return cmp.Compare(x.AchievedDelta(), y.AchievedDelta())
		})
	if !ok {
		return Optimum{}, fmt.Errorf("core: no configuration fits %d bits at delta %g", b, delta)
	}
	return Optimum{B: b, Delta: delta, D: cfg.Buckets, RHatLog: cfg.RHatLog, Iterations: cfg.Iterations, Achieved: cfg.AchievedDelta()}, nil
}

// Table2Cases lists the (b, delta) pairs of the paper's Table 2, in
// order.
func Table2Cases() []struct {
	B     int
	Delta float64
} {
	return []struct {
		B     int
		Delta float64
	}{
		{1024, 1e-4}, {1024, 1e-6}, {1024, 1e-8}, {1024, 1e-10}, {1024, 1e-20},
		{4096, 1e-6}, {4096, 1e-10}, {4096, 1e-20},
		{16384, 1e-7}, {16384, 1e-10}, {16384, 1e-20}, {16384, 1e-30},
		{65536, 1e-10}, {65536, 1e-20}, {65536, 1e-30}, {65536, 1e-40},
	}
}

// Table2 computes every row of Table 2.
func Table2() ([]Optimum, error) {
	cases := Table2Cases()
	out := make([]Optimum, 0, len(cases))
	for _, c := range cases {
		o, err := Optimize(c.B, c.Delta)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// MinVolume reports the communication-volume minimiser the paper
// derives analytically: d = 2 buckets, rhat = 8 (moduli in 9..16), an
// 8-bit minireduction result with log base 1/(1/8+1/2) = 1.6
// repetitions per factor of delta.
func MinVolume(delta float64) Optimum {
	cfg := SumConfig{Iterations: iterationsFor(2, 3, delta), Buckets: 2, RHatLog: 3}
	return Optimum{B: 8, Delta: delta, D: 2, RHatLog: 3, Iterations: cfg.Iterations, Achieved: cfg.AchievedDelta()}
}

// ChooseSum returns the sum checker configuration with hash family fam
// that reaches failure probability delta at the least cost to the
// kernel and the wire: search with this kernel's objectives in place of
// Table 2's fewest iterations (Optimize). Over power-of-two bucket
// counts d <= 2^maxGroupBits and every m, it minimises, in this order:
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
	best, _ := search(delta, fam, 1<<min(maxGroupBits, fam.Bits), 62,
		func(c SumConfig) bool { return c.Buckets&(c.Buckets-1) == 0 },
		func(x, y SumConfig) int {
			cx, cy := x.bulkCost(), y.bulkCost()
			return cmp.Or(
				slices.Compare(cx[:], cy[:]),
				cmp.Compare(x.AchievedDelta(), y.AchievedDelta()),
				cmp.Compare(x.TableBits(), y.TableBits()))
		})
	return best, nil
}

// bulkCost is ChooseSum's cost vector of a valid configuration: cell
// updates and hash evaluations per element at the group size of a
// large state, wire words and iterations.
func (c SumConfig) bulkCost() [4]int {
	width, perHash, hashes := c.layout()
	g := max(1, min(maxGroupBits/width, perHash))
	updates := 0
	for first := 0; first < c.Iterations; first += perHash {
		k := min(perHash, c.Iterations-first)
		updates += (k + g - 1) / g
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
