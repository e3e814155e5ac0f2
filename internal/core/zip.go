package core

import (
	"repro/internal/collective"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
)

// ZipConfig parameterises the Zip checker of Theorem 11.
type ZipConfig struct {
	// Iterations boosts the per-iteration failure bound 1/H.
	Iterations int
}

// zipFingerprint computes the position-weighted fingerprint of a local
// slice for one iteration's seed s: sum over i of r_{start+i} * fold(x_i)
// in the field F_(2^61-1), where r_j = h'(j) is a pseudo-random weight
// derived from the global index — "the inner product of the input and a
// sequence of n random values r_i = h'(i)", computable on the fly and
// without communication (Section 6.4).
func zipFingerprint(xs []uint64, start, s uint64) uint64 {
	const r = hashing.Mersenne61
	var acc uint64
	for i, x := range xs {
		weight := hashing.Mix64(s^(start+uint64(i))) % r
		acc = hashing.AddMod61(acc, hashing.MulMod61(weight, hashing.Mix64(x^s)%r))
	}
	return acc
}

// zipPairFingerprint is zipFingerprint of the pairs' first and of their
// second components at once, read in place: both sequences share the
// global positions, so each position's weight is computed once.
func zipPairFingerprint(ps []data.Pair, start, s uint64) (first, second uint64) {
	const r = hashing.Mersenne61
	for i, pr := range ps {
		weight := hashing.Mix64(s^(start+uint64(i))) % r
		first = hashing.AddMod61(first, hashing.MulMod61(weight, hashing.Mix64(pr.Key^s)%r))
		second = hashing.AddMod61(second, hashing.MulMod61(weight, hashing.Mix64(pr.Value^s)%r))
	}
	return first, second
}

// NewZipState accumulates the zip checker's local phase (Theorem 11):
// the first components of out must equal s1 in order, the second
// components s2 in order, even though the three sequences may be
// distributed differently. Each sequence is fingerprinted with
// position-dependent weights keyed by the global element index; the
// state is one field segment of the differences, both components per
// iteration. start1, start2, startO are the global start indices of
// this PE's shares and lengthsOK asserts the three global lengths agree
// — both established alongside the offsets (ExclusiveCounts). No
// communication. Failure probability about (1/2^61)^Iterations per
// component; time O(n/p * its + beta*its + alpha*log p).
func NewZipState(stage string, cfg ZipConfig, seed uint64, s1, s2 []uint64, out []data.Pair, start1, start2, startO uint64, lengthsOK bool) CheckState {
	lambda := make([]uint64, 2*cfg.Iterations)
	// hashing.SubSeeds' stream, drawn in place.
	ss := seed ^ 0x21b021b021b021b0
	for it := 0; it < cfg.Iterations; it++ {
		s := hashing.SplitMix64(&ss)
		o1, o2 := zipPairFingerprint(out, startO, s)
		lambda[2*it] = hashing.SubMod61(zipFingerprint(s1, start1, s), o1)
		lambda[2*it+1] = hashing.SubMod61(zipFingerprint(s2, start2, s), o2)
	}
	return newState(stage, lambda, lengthsOK, nil, wordSeg(segField, len(lambda)))
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
