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

// zipFingerprint computes per-iteration position-weighted fingerprints
// of a local slice: sum over i of r_{start+i} * fold(x_i) in the field
// F_(2^61-1), where r_j = h'(j) is a pseudo-random weight derived from
// the global index — "the inner product of the input and a sequence of
// n random values r_i = h'(i)", computable on the fly and without
// communication (Section 6.4).
func zipFingerprint(xs []uint64, start uint64, seeds []uint64) []uint64 {
	const r = hashing.Mersenne61
	out := make([]uint64, len(seeds))
	for it, s := range seeds {
		var acc uint64
		for i, x := range xs {
			weight := hashing.Mix64(s ^ (start + uint64(i)))
			acc = hashing.AddMod61(acc, hashing.MulMod61(weight%r, hashing.Mix64(x^s)%r))
		}
		out[it] = acc
	}
	return out
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
	seeds := hashing.SubSeeds(seed^0x21b021b021b021b0, cfg.Iterations)
	outFirst := make([]uint64, len(out))
	outSecond := make([]uint64, len(out))
	for i, pr := range out {
		outFirst[i] = pr.Key
		outSecond[i] = pr.Value
	}
	f1 := zipFingerprint(s1, start1, seeds)
	f2 := zipFingerprint(s2, start2, seeds)
	fo1 := zipFingerprint(outFirst, startO, seeds)
	fo2 := zipFingerprint(outSecond, startO, seeds)
	lambda := make([]uint64, 2*cfg.Iterations)
	for it := 0; it < cfg.Iterations; it++ {
		lambda[2*it] = hashing.SubMod61(f1[it], fo1[it])
		lambda[2*it+1] = hashing.SubMod61(f2[it], fo2[it])
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
