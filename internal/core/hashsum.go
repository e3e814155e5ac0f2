package core

import (
	"fmt"
	"math"

	"repro/internal/hashing"
)

// HashSumConfig parameterises Lemma 4's permutation checker: the sums
// of Iterations random functions from Family, each truncated to its
// low LogH bits, which a non-permutation escapes with probability about
// 2^-LogH an iteration. It is the checker of the paper's Fig. 5 and
// Section 7.2 experiments, and local only: no CheckState carries a hash
// sum (PermConfig's product is the distributed checker).
type HashSumConfig struct {
	// Family provides the random functions.
	Family hashing.Family
	// LogH is the number of hash output bits a sum keeps (the paper's
	// Fig. 5 sweeps this from 1 to 8).
	LogH int
	// Iterations boosts confidence: Delta is 2^-LogH to that power.
	Iterations int
}

// Name renders the Fig. 5 configuration syntax, e.g. "CRC 4".
func (c HashSumConfig) Name() string {
	return fmt.Sprintf("%s %d", c.Family.Name, c.LogH)
}

// Delta is the per-checker failure bound H^-Iterations, H = 2^LogH,
// computed as a power of two (H = 2^64 does not fit a uint64).
func (c HashSumConfig) Delta() float64 {
	return math.Ldexp(1, -c.LogH*c.Iterations)
}

// Validate reports configuration errors.
func (c HashSumConfig) Validate() error {
	switch {
	case c.Iterations < 1:
		return fmt.Errorf("core: hash sum config: iterations must be >= 1")
	case c.Family.New == nil:
		return fmt.Errorf("core: hash sum config: missing hash family")
	case c.LogH < 1 || c.LogH > 64:
		return fmt.Errorf("core: hash sum config: LogH must be in [1, 64]")
	case c.LogH > c.Family.Bits:
		return fmt.Errorf("core: hash sum config: LogH %d exceeds family output bits %d", c.LogH, c.Family.Bits)
	}
	return nil
}

// HashSumChecker computes Lemma 4's truncated hash sums, one per
// iteration. After construction an instance is read-only: concurrent
// calls on one instance are safe as long as they target disjoint sums.
type HashSumChecker struct {
	cfg     HashSumConfig
	hashers []hashing.Hasher
}

// NewHashSumChecker derives a checker instance from cfg and a seed. Its
// functions come from the sub-seed stream a PermChecker's points do.
func NewHashSumChecker(cfg HashSumConfig, seed uint64) *HashSumChecker {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &HashSumChecker{cfg: cfg, hashers: make([]hashing.Hasher, cfg.Iterations)}
	s := seed ^ permSeedDomain
	for i := range c.hashers {
		c.hashers[i] = cfg.Family.New(hashing.SplitMix64(&s))
	}
	return c
}

// AccumulateInto adds (or, with negate, subtracts) the truncated hash
// values of xs into sums, one slot per iteration. Sums are accumulated
// in 64-bit words; because H is a power of two, wraparound addition
// stays congruent modulo H. The sequence is hashed in blocks through
// each hasher's Hash64Batch and summed in independent lanes; wraparound
// addition mod 2^64 is commutative, so the sums are bit-identical to
// the scalar element-order loop. Each call takes its hash block from
// scratchPool and puts it back when it returns, so repeated small-chunk
// calls allocate nothing.
func (c *HashSumChecker) AccumulateInto(sums []uint64, xs []uint64, negate bool) {
	mask := c.mask()
	s := scratchPool.Get().(*accScratch)
	defer scratchPool.Put(s)
	for it, h := range c.hashers {
		var acc uint64
		for start := 0; start < len(xs); start += accBlock {
			end := min(start+accBlock, len(xs))
			hb := s.hs[:end-start]
			h.Hash64Batch(hb, xs[start:end])
			acc += sumMasked(hb, mask)
		}
		if negate {
			acc = -acc
		}
		sums[it] += acc
	}
}

// Check reports whether output passes as a permutation of input: in
// every iteration, the two sums agree in their low LogH bits.
func (c *HashSumChecker) Check(input, output []uint64) bool {
	sums := make([]uint64, c.cfg.Iterations)
	c.AccumulateInto(sums, input, false)
	c.AccumulateInto(sums, output, true)
	for _, v := range sums {
		if v&c.mask() != 0 {
			return false
		}
	}
	return true
}

// mask keeps a sum's low LogH bits.
func (c *HashSumChecker) mask() uint64 {
	return ^uint64(0) >> (64 - c.cfg.LogH)
}

// sumMasked returns the sum of hb's values under mask, in four
// independent lanes.
func sumMasked(hb []uint64, mask uint64) uint64 {
	var a0, a1, a2, a3 uint64
	for len(hb) >= 4 {
		a0 += hb[0] & mask
		a1 += hb[1] & mask
		a2 += hb[2] & mask
		a3 += hb[3] & mask
		hb = hb[4:]
	}
	for _, h := range hb {
		a0 += h & mask
	}
	return a0 + a1 + a2 + a3
}
