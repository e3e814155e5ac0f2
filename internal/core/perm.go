package core

import (
	"fmt"

	"repro/internal/hashing"
)

// PermConfig parameterises the permutation checker: Iterations
// independent points of Lemma 5's product, which needs no hash function
// (PermChecker.init). Lemma 4's hash sums, the paper's other
// fingerprint, are the local HashSumChecker.
type PermConfig struct {
	// Iterations boosts confidence: the failure bound is one
	// iteration's, 3n/r (package documentation), to that power.
	Iterations int
}

// maxProductIterations is as many iterations as a scratch's hash block
// holds offsets for.
const maxProductIterations = accBlock / 16

// Validate reports configuration errors.
func (c PermConfig) Validate() error {
	if c.Iterations < 1 {
		return fmt.Errorf("core: perm config: iterations must be >= 1")
	}
	if c.Iterations > maxProductIterations {
		return fmt.Errorf("core: perm config: a product takes at most %d iterations", maxProductIterations)
	}
	return nil
}

// PermChecker computes Lemma 5's permutation fingerprints. Like
// SumChecker, every PE builds an identical instance from the shared
// seed. After construction an instance is read-only: concurrent
// AccumulateInto calls on one instance are safe as long as they target
// disjoint sums vectors.
type PermChecker struct {
	cfg  PermConfig
	offs *accScratch // the offsets, in its hash block
}

// permSeedDomain keys the sub-seed stream of a permutation checker's
// iterations apart from the other checkers' streams.
const permSeedDomain = 0x9e37c0ffee37c0ff

// init builds the checker in place.
//
// An iteration draws z, then y, uniformly from F_r, r = 2^61 - 1, and
// maps element e to the factor z - a - y·q of its limbs (a, q). The map
// is injective into F_r × [0, 16), so different multisets have
// different products as polynomials in (z, y). The iteration keeps the
// offsets t[q] = z - y·q + r, 16 words of a scratch from scratchPool
// that release hands back: a factor is t[q] - a, never negative.
func (c *PermChecker) init(cfg PermConfig, seed uint64) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	*c = PermChecker{cfg: cfg, offs: scratchPool.Get().(*accScratch)}
	// hashing.SubSeeds' stream, drawn in place: the checker a job builds
	// per stage allocates no seed slice.
	s := seed ^ permSeedDomain
	for it := range cfg.Iterations {
		z := drawField(&s)
		y := drawField(&s)
		t := c.offsets(it)
		for q := range t {
			t[q] = z + hashing.Mersenne61
			z = hashing.SubMod61(z, y)
		}
	}
}

// drawField draws uniformly from F_(2^61-1) by rejection: the top 61
// bits of the next SplitMix64 output, unless they are 2^61 - 1.
func drawField(s *uint64) uint64 {
	for {
		if v := hashing.SplitMix64(s) >> 3; v < hashing.Mersenne61 {
			return v
		}
	}
}

// offsets returns product iteration it's 16 offsets.
func (c *PermChecker) offsets(it int) *[16]uint64 {
	return (*[16]uint64)(c.offs.hs[16*it:])
}

// release hands the offsets back, once nothing reads them any more.
func (c *PermChecker) release() {
	scratchPool.Put(c.offs)
	c.offs = nil
}

// AccumulateInto multiplies xs into sums: an input chunk, or with out
// an output chunk. The sums are two slots an iteration, the input's and
// the output's, each starting at productSlot.
func (c *PermChecker) AccumulateInto(sums []uint64, xs []uint64, out bool) {
	c.multiplyInto(sums, xs, out, false)
}

// multiplyInto is AccumulateInto: per iteration, the chunk's product in
// four lanes, and only if that is 0 — some factor is, with probability
// at most len(xs)/r — or the caller asks for the scalar loop, element
// by element with the zero factors skipped and counted.
func (c *PermChecker) multiplyInto(sums []uint64, xs []uint64, out, scalar bool) {
	for it := range c.cfg.Iterations {
		t, p, zeros := c.offsets(it), uint64(0), uint64(0)
		if !scalar {
			p = productLanes(t, xs)
		}
		if p == 0 {
			p, zeros = productSkipZeros(t, xs)
		}
		i := 2 * it
		if out {
			i++
		}
		sums[i] = mulSlot(sums[i], p, zeros)
	}
}

// productSlot is the empty product: 1, no zero factors. A slot holds a
// running product, never 0, in its low 61 bits and a count of zero
// factors mod 8 in its top 3; a sealed word, the input's product over
// the output's and the input's count minus the output's.
const productSlot = 1

// mulSlot multiplies slot by p, a nonzero canonical residue, and adds
// zeros to its count. It is also how two sealed words combine.
func mulSlot(slot, p, zeros uint64) uint64 {
	return hashing.MulMod61(slot&hashing.Mersenne61, p) | (slot>>61+zeros)<<61
}

// ratioSlot seals an iteration's input and output slots into one
// word: the ratio of their products, with one Fermat inverse, and the
// difference of their counts. It is productSlot iff the two agree.
func ratioSlot(in, out uint64) uint64 {
	return mulSlot(in, hashing.InvMod61(out&hashing.Mersenne61), -(out >> 61))
}

// limbs maps element e injectively into F_r × [0, 16), r = 2^61 - 1:
// a = e & r and q = e >> 61, except that a = r, which is 0 in the
// field, goes to (0, q + 8). That a is returned as r itself, not 0:
// both users, the product's factor and the zip checker's term, take it
// into lazily reduced arithmetic, where r ≡ 0. The remap's branch is
// almost never taken, and cheaper than computing the index without one.
func limbs(e uint64) (a, q uint64) {
	a, q = e&hashing.Mersenne61, e>>61
	if a == hashing.Mersenne61 {
		q += 8
	}
	return a, q
}

// factor is element e's factor off the offsets t, in [0, 2r): t[q] - a.
func factor(t *[16]uint64, e uint64) uint64 {
	a, q := limbs(e)
	return t[q&15] - a
}

// productLanes returns the product of xs's factors mod r, canonical,
// in four independent lanes so that consecutive multiplies overlap.
// The field is commutative, so any grouping gives the same residue.
func productLanes(t *[16]uint64, xs []uint64) uint64 {
	p0, p1, p2, p3 := uint64(1), uint64(1), uint64(1), uint64(1)
	for ; len(xs) >= 4; xs = xs[4:] {
		p0 = hashing.MulLazy61(p0, factor(t, xs[0]))
		p1 = hashing.MulLazy61(p1, factor(t, xs[1]))
		p2 = hashing.MulLazy61(p2, factor(t, xs[2]))
		p3 = hashing.MulLazy61(p3, factor(t, xs[3]))
	}
	for _, e := range xs {
		p0 = hashing.MulLazy61(p0, factor(t, e))
	}
	return hashing.MulMod61(
		hashing.MulMod61(hashing.Mod61(p0), hashing.Mod61(p1)),
		hashing.MulMod61(hashing.Mod61(p2), hashing.Mod61(p3)))
}

// productSkipZeros is productLanes one element at a time, with the
// factors that are 0 left out of the product and counted.
func productSkipZeros(t *[16]uint64, xs []uint64) (p, zeros uint64) {
	p = 1
	for _, e := range xs {
		if f := hashing.Mod61(factor(t, e)); f != 0 {
			p = hashing.MulMod61(p, f)
		} else {
			zeros++
		}
	}
	return p, zeros
}

// AccumulateIntoScalar is the scalar reference loop of AccumulateInto,
// the one-lane canonical fold. Tests and benchmarks compare the kernel
// against it; the slots are bit-identical.
func (c *PermChecker) AccumulateIntoScalar(sums []uint64, xs []uint64, out bool) {
	c.multiplyInto(sums, xs, out, true)
}
