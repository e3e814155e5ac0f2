package core

import (
	"fmt"
	"math"

	"repro/internal/hashing"
)

// PermConfig parameterises the hash-sum permutation checker of Lemma 4:
// Iterations independent random hash functions from Family, each summed
// modulo H = 2^LogH. A single iteration misses a non-permutation with
// probability about 1/H; iterations multiply.
type PermConfig struct {
	// Family provides the random hash functions.
	Family hashing.Family
	// LogH is the number of hash output bits used (the paper's Fig. 5
	// sweeps this from 1 to 8).
	LogH int
	// Iterations boosts confidence: delta = 2^(-LogH*Iterations).
	Iterations int
}

// Name renders the Fig. 5 configuration syntax, e.g. "CRC 4".
func (c PermConfig) Name() string {
	return fmt.Sprintf("%s %d", c.Family.Name, c.LogH)
}

// Delta is the per-checker failure bound H^-Iterations =
// 2^-(LogH·Iterations), computed as a power of two: H = 2^64 does not
// fit a uint64.
func (c PermConfig) Delta() float64 {
	return math.Ldexp(1, -c.LogH*c.Iterations)
}

// Validate reports configuration errors.
func (c PermConfig) Validate() error {
	if c.LogH < 1 || c.LogH > 64 {
		return fmt.Errorf("core: perm config: LogH must be in [1, 64]")
	}
	if c.Iterations < 1 {
		return fmt.Errorf("core: perm config: iterations must be >= 1")
	}
	if c.Family.New == nil {
		return fmt.Errorf("core: perm config: missing hash family")
	}
	if c.LogH > c.Family.Bits {
		return fmt.Errorf("core: perm config: LogH %d exceeds family output bits %d", c.LogH, c.Family.Bits)
	}
	return nil
}

// PermChecker computes truncated hash-sum fingerprints. Like
// SumChecker, every PE builds an identical instance from the shared
// seed. After construction an instance is read-only: concurrent
// AccumulateInto calls on one instance are safe as long as they target
// disjoint sums vectors: each call hashes into its own block of
// scratchPool.
//
// The default configuration is one Tab64 function, all 64 bits summed:
// δ = 2^-64 at one lookup walk and one sum per element. A family with a
// Pair constructor (Tab) has its iterations evaluated two at a time:
// iterations 2k and 2k+1 share one table of 64-bit entries whose
// halves are their two functions, so a key's eight lookups serve both.
// With an odd count the last iteration keeps a function of its own.
// Either way iteration i is the function of the i-th sub-seed, so the
// sums do not depend on the pairing.
type PermChecker struct {
	cfg  PermConfig
	seed uint64 // rebuilds the per-iteration functions for AccumulateIntoScalar
	// hashers evaluates the iterations in order: the first pairs() of
	// them cover two iterations each (low half first), the rest one.
	hashers []hashing.Hasher
	mask    uint64
	hs      [inlineHashers]hashing.Hasher // the hashers, when they fit
}

// permSeedDomain keys the sub-seed stream of a permutation checker's
// iterations apart from the other checkers' streams.
const permSeedDomain = 0x9e37c0ffee37c0ff

// NewPermChecker derives a checker instance from cfg and a shared seed.
func NewPermChecker(cfg PermConfig, seed uint64) *PermChecker {
	c := new(PermChecker)
	c.init(cfg, seed)
	return c
}

// init builds the checker in place, its hashers in c.hs when they fit.
func (c *PermChecker) init(cfg PermConfig, seed uint64) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	*c = PermChecker{cfg: cfg, seed: seed, mask: ^uint64(0)}
	if cfg.LogH < 64 {
		c.mask = (uint64(1) << cfg.LogH) - 1
	}
	// hashing.SubSeeds' stream, drawn in place: the checker a job builds
	// per stage allocates no seed slice. A pair takes two consecutive
	// sub-seeds, the ones its two iterations would take alone.
	s := seed ^ permSeedDomain
	pairs := c.pairs()
	c.hashers = inlineOr(&c.hs, cfg.Iterations-pairs)
	for i := range c.hashers {
		s0 := hashing.SplitMix64(&s)
		if i < pairs {
			c.hashers[i] = cfg.Family.Pair(s0, hashing.SplitMix64(&s))
		} else {
			c.hashers[i] = cfg.Family.New(s0)
		}
	}
}

// pairs is how many of the checker's hashers are pairs: every two
// iterations make one, if the family can pair.
func (c *PermChecker) pairs() int {
	if c.cfg.Family.Pair == nil {
		return 0
	}
	return c.cfg.Iterations / 2
}

// AccumulateInto adds (or, with negate, subtracts) the truncated hash
// values of xs into sums, one slot per iteration. Sums are accumulated
// in 64-bit words; because H is a power of two, wraparound addition
// stays congruent modulo H. The sequence is hashed in blocks through
// each hasher's Hash64Batch — a pair's once for both its iterations —
// and summed in independent lanes; wraparound addition mod 2^64 is
// commutative, so the sums are bit-identical to the scalar
// element-order loop. Each call takes its hash block from scratchPool
// and puts it back when it returns, so concurrent calls on the same
// checker with disjoint sums are safe and repeated small-chunk calls
// allocate nothing.
func (c *PermChecker) AccumulateInto(sums []uint64, xs []uint64, negate bool) {
	mask := c.mask
	s := scratchPool.Get().(*accScratch)
	defer scratchPool.Put(s)
	hs := &s.hs
	it, pairs := 0, c.pairs()
	for k, h := range c.hashers {
		var lo, hi uint64
		for start := 0; start < len(xs); start += accBlock {
			end := min(start+accBlock, len(xs))
			hb := hs[:end-start]
			h.Hash64Batch(hb, xs[start:end])
			if k < pairs {
				l, h := sumHalves(hb, mask)
				lo, hi = lo+l, hi+h
			} else {
				lo += sumMasked(hb, mask)
			}
		}
		if negate {
			lo, hi = -lo, -hi
		}
		sums[it] += lo
		it++
		if k < pairs {
			sums[it] += hi
			it++
		}
	}
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

// sumHalves is sumMasked for a pair's values: the sums under mask of
// their low and of their high 32-bit halves (mask < 2^32).
func sumHalves(hb []uint64, mask uint64) (lo, hi uint64) {
	var a0, a1, b0, b1 uint64
	for len(hb) >= 2 {
		a0 += hb[0] & mask
		b0 += hb[0] >> 32 & mask
		a1 += hb[1] & mask
		b1 += hb[1] >> 32 & mask
		hb = hb[2:]
	}
	for _, h := range hb {
		a0 += h & mask
		b0 += h >> 32 & mask
	}
	return a0 + a1, b0 + b1
}

// AccumulateIntoScalar is the per-iteration scalar reference loop of
// AccumulateInto: each iteration's function built on its own from the
// same sub-seed, unpaired, and one interface call per element. Tests
// and benchmarks compare the kernel against it; the sums are
// bit-identical. Its tables go back to the hashing package when it
// returns.
func (c *PermChecker) AccumulateIntoScalar(sums []uint64, xs []uint64, negate bool) {
	s := c.seed ^ permSeedDomain
	for it := range c.cfg.Iterations {
		h := c.cfg.Family.New(hashing.SplitMix64(&s))
		var acc uint64
		for _, x := range xs {
			acc += h.Hash64(x) & c.mask
		}
		hashing.Recycle(h)
		if negate {
			sums[it] -= acc
		} else {
			sums[it] += acc
		}
	}
}
