package core

import (
	"fmt"

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

// CheckZip checks Zip(s1, s2) = out (Theorem 11): the first components
// of out must equal s1 in order, the second components s2 in order,
// even though the three sequences may be distributed differently.
// Each sequence is fingerprinted with position-dependent weights keyed
// by the global element index (obtained from one vectorized prefix sum
// over the three local sizes); matching fingerprints accept. Failure
// probability about (1/2^61)^Iterations per component. Time
// O(n/p * its + beta*its + alpha*log p).
func CheckZip(w *dist.Worker, cfg ZipConfig, s1, s2 []uint64, out []data.Pair) (bool, error) {
	if cfg.Iterations < 1 {
		return false, fmt.Errorf("core: zip checker: iterations must be >= 1")
	}
	seed, err := w.CommonSeed()
	if err != nil {
		return false, err
	}
	starts, totals, err := ExclusiveCounts(w, len(s1), len(s2), len(out))
	if err != nil {
		return false, err
	}
	lengthsOK := totals[0] == totals[1] && totals[1] == totals[2]
	st := NewZipState("Zip", cfg, seed, s1, s2, out, starts[0], starts[1], starts[2], lengthsOK)
	return resolveOne(w, st)
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
