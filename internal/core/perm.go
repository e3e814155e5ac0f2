package core

import (
	"fmt"

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

// Delta is the per-checker failure bound H^-Iterations.
func (c PermConfig) Delta() float64 {
	d := 1.0
	for i := 0; i < c.Iterations; i++ {
		d /= float64(uint64(1) << c.LogH)
	}
	return d
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
// disjoint sums vectors (the ParallelAccumulator contract).
type PermChecker struct {
	cfg     PermConfig
	hashers []hashing.Hasher
	mask    uint64
	hs      [inlineHashers]hashing.Hasher // the hashers, when they fit
}

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
	*c = PermChecker{cfg: cfg, mask: ^uint64(0)}
	if cfg.LogH < 64 {
		c.mask = (uint64(1) << cfg.LogH) - 1
	}
	// hashing.SubSeeds' stream, drawn in place: the checker a job builds
	// per stage allocates no seed slice.
	s := seed ^ 0x9e37c0ffee37c0ff
	c.hashers = inlineOr(&c.hs, cfg.Iterations)
	for i := range c.hashers {
		c.hashers[i] = cfg.Family.New(hashing.SplitMix64(&s))
	}
}

// Config returns the checker's configuration.
func (c *PermChecker) Config() PermConfig { return c.cfg }

// AccumulateInto adds (or, with negate, subtracts) the truncated hash
// values of xs into sums, one slot per iteration. Sums are accumulated
// in 64-bit words; because H is a power of two, wraparound addition
// stays congruent modulo H. The sequence is hashed in blocks through the family's Hash64Batch and summed in four
// independent lanes; wraparound addition mod 2^64 is commutative, so
// the sums are bit-identical to the scalar element-order loop. Scratch
// comes from a shared pool, one block per accumulating goroutine —
// concurrent calls on the same checker with disjoint sums are safe
// (the ParallelAccumulator contract) and repeated small-chunk calls
// allocate nothing.
func (c *PermChecker) AccumulateInto(sums []uint64, xs []uint64, negate bool) {
	mask := c.mask
	s := scratchPool.Get().(*accScratch)
	defer scratchPool.Put(s)
	hs := &s.hs
	for it, h := range c.hashers {
		var acc uint64
		for start := 0; start < len(xs); start += accBlock {
			n := len(xs) - start
			if n > accBlock {
				n = accBlock
			}
			hb := hs[:n]
			h.Hash64Batch(hb, xs[start:start+n])
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
			acc += a0 + a1 + a2 + a3
		}
		if negate {
			sums[it] -= acc
		} else {
			sums[it] += acc
		}
	}
}

// AccumulateIntoScalar is the scalar reference loop of AccumulateInto
// (one interface call per element), kept so benchmarks and property
// tests can compare the batched path against it; the sums are
// bit-identical.
func (c *PermChecker) AccumulateIntoScalar(sums []uint64, xs []uint64, negate bool) {
	for it, h := range c.hashers {
		var acc uint64
		for _, x := range xs {
			acc += h.Hash64(x) & c.mask
		}
		if negate {
			sums[it] -= acc
		} else {
			sums[it] += acc
		}
	}
}
