package core

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
)

// ZipConfig parameterises the zip checker of Theorem 11: Iterations
// independent points of a polynomial identity in F_(2^61-1), which
// needs no hash function (NewZipState).
type ZipConfig struct {
	// Iterations boosts confidence: the failure bound is one
	// iteration's, (n+1)/r (package documentation), to that power.
	Iterations int
}

// Validate reports configuration errors. A zero-iteration checker
// seals no word and would accept anything.
func (c ZipConfig) Validate() error {
	if c.Iterations < 1 {
		return fmt.Errorf("core: zip config: iterations must be >= 1")
	}
	return nil
}

// zipSeedDomain keys the sub-seed stream of a zip checker's iterations
// apart from the other checkers' streams.
const zipSeedDomain = 0x21b021b021b021b0

// zipPoint is one iteration's random point (z, y, w) of F_r, r = 2^61 -
// 1, with z^4 and the offsets yq[q] = y·q, all canonical. NewZipState
// keeps it on its stack.
type zipPoint struct {
	z, z4, w uint64
	yq       [16]uint64
}

// draw draws z, y and w from the stream s, as the checker's iterations
// do one after another.
func (pt *zipPoint) draw(s *uint64) {
	pt.z = drawField(s)
	y := drawField(s)
	pt.w = drawField(s)
	pt.z4 = hashing.MulMod61(pt.z, pt.z)
	pt.z4 = hashing.MulMod61(pt.z4, pt.z4)
	for q := range pt.yq[1:] {
		pt.yq[q+1] = hashing.AddMod61(pt.yq[q], y)
	}
}

// term is element e's term a + y·q of its limbs, in [0, 2r).
func (pt *zipPoint) term(e uint64) uint64 {
	a, q := limbs(e)
	return a + pt.yq[q&15]
}

// poly returns the fingerprint of xs at global position start: the sum
// over i of term(xs[i])·z^(start+i), canonical. It runs Horner's rule
// in four lanes of z^4, read from the end: lane j holds the positions
// i ≡ j mod 4 and takes one multiply an element, and the lanes join as
// l0 + z·l1 + z^2·l2 + z^3·l3. One power z^start moves the sum to
// start, so shares fingerprinted on different PEs add up to the whole
// sequence's.
func (pt *zipPoint) poly(xs []uint64, start uint64) uint64 {
	n := len(xs) &^ 3
	var tail [4]uint64
	for i, e := range xs[n:] {
		tail[i] = pt.term(e)
	}
	l0, l1, l2, l3, z4 := tail[0], tail[1], tail[2], tail[3], pt.z4
	for ; n > 0; n -= 4 {
		g := (*[4]uint64)(xs[n-4 : n])
		l0 = hashing.MulLazy61(l0, z4) + pt.term(g[0])
		l1 = hashing.MulLazy61(l1, z4) + pt.term(g[1])
		l2 = hashing.MulLazy61(l2, z4) + pt.term(g[2])
		l3 = hashing.MulLazy61(l3, z4) + pt.term(g[3])
	}
	return pt.join(l0, l1, l2, l3, hashing.PowMod61(pt.z, start))
}

// pairPoly is poly of the pairs' keys and of their values at once, read
// in place, in four lanes each.
func (pt *zipPoint) pairPoly(ps []data.Pair, start uint64) (keys, vals uint64) {
	n := len(ps) &^ 3
	var tk, tv [4]uint64
	for i, pr := range ps[n:] {
		tk[i], tv[i] = pt.term(pr.Key), pt.term(pr.Value)
	}
	k0, k1, k2, k3, z4 := tk[0], tk[1], tk[2], tk[3], pt.z4
	v0, v1, v2, v3 := tv[0], tv[1], tv[2], tv[3]
	for ; n > 0; n -= 4 {
		g := (*[4]data.Pair)(ps[n-4 : n])
		k0 = hashing.MulLazy61(k0, z4) + pt.term(g[0].Key)
		v0 = hashing.MulLazy61(v0, z4) + pt.term(g[0].Value)
		k1 = hashing.MulLazy61(k1, z4) + pt.term(g[1].Key)
		v1 = hashing.MulLazy61(v1, z4) + pt.term(g[1].Value)
		k2 = hashing.MulLazy61(k2, z4) + pt.term(g[2].Key)
		v2 = hashing.MulLazy61(v2, z4) + pt.term(g[2].Value)
		k3 = hashing.MulLazy61(k3, z4) + pt.term(g[3].Key)
		v3 = hashing.MulLazy61(v3, z4) + pt.term(g[3].Value)
	}
	zs := hashing.PowMod61(pt.z, start)
	return pt.join(k0, k1, k2, k3, zs), pt.join(v0, v1, v2, v3, zs)
}

// join is (l0 + z·l1 + z^2·l2 + z^3·l3)·zs, canonical, for any lanes
// and zs = z^start, canonical.
func (pt *zipPoint) join(l0, l1, l2, l3, zs uint64) uint64 {
	z := pt.z
	acc := hashing.MulMod61(hashing.Mod61(l3), z)
	acc = hashing.MulMod61(hashing.AddMod61(acc, hashing.Mod61(l2)), z)
	acc = hashing.MulMod61(hashing.AddMod61(acc, hashing.Mod61(l1)), z)
	return hashing.MulMod61(hashing.AddMod61(acc, hashing.Mod61(l0)), zs)
}

// NewZipState accumulates the zip checker's local phase (Theorem 11):
// the first components of out must equal s1 in order, the second
// components s2 in order, even though the three sequences may be
// distributed differently. start1, start2, startO are the global start
// indices of this PE's shares and lengthsOK asserts the three global
// lengths agree — both established alongside the offsets
// (ExclusiveCounts). No communication.
//
// Theorem 11 fingerprints a sequence as its inner product with random
// position weights h'(i); here the weights are the powers z^i. An
// iteration draws a point (z, y, w) of F_r, r = 2^61 - 1, maps element
// e to a + y·q by the product's injective limbs (limbs), and seals one
// word: (F(s1) - F(out keys)) + w·(F(s2) - F(out values)), F(x) the sum
// over positions i of (a_i + y·q_i)·z^i. A correct result seals 0 on
// the sum over PEs. For every wrong output of the right length, fixed
// before the seed is drawn, that sum is a nonzero polynomial of total
// degree at most n+1 in (z, y, w), zero at the random point with
// probability at most (n+1)/r (Schwartz–Zippel).
// Time O(n/p · its) at one multiply per element and component, plus
// beta·its + alpha·log p.
func NewZipState(stage string, cfg ZipConfig, seed uint64, s1, s2 []uint64, out []data.Pair, start1, start2, startO uint64, lengthsOK bool) CheckState {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	words := make([]uint64, cfg.Iterations)
	s := seed ^ zipSeedDomain
	for it := range words {
		var pt zipPoint
		pt.draw(&s)
		keys, vals := pt.pairPoly(out, startO)
		words[it] = hashing.AddMod61(
			hashing.SubMod61(pt.poly(s1, start1), keys),
			hashing.MulMod61(pt.w, hashing.SubMod61(pt.poly(s2, start2), vals)))
	}
	return newState(stage, words, lengthsOK, nil, wordSeg(segField, len(words)))
}

// ExclusiveCounts returns, for each local share size in ns, this PE's
// global start offset and the global total — one vectorized exclusive
// scan, a single sweep up and down the collective tree that yields both,
// regardless of how many sizes are asked for. Operations use it to learn
// the global indexing their checkers' position-dependent fingerprints
// need.
func ExclusiveCounts(w *dist.Worker, ns ...int) (starts, totals []uint64, err error) {
	vec := make([]uint64, len(ns))
	for i, n := range ns {
		vec[i] = uint64(n)
	}
	return w.Coll.ExclusiveScan(vec, collective.OpSum, make([]uint64, len(ns)))
}
