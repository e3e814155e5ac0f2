package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/hashing"
)

// Polynomial permutation checkers (Lemma 5): q(z) = prod(z - e_i) -
// prod(z - o_i) mod r for a prime r and random evaluation points z.
// Unlike the hash-sum checker, this needs no trusted hash function —
// only a source of random evaluation points.

// PolyPermConfig parameterises the prime-field polynomial checker.
type PolyPermConfig struct {
	// Iterations is the number of independent evaluation points; the
	// failure bound n/r multiplies per iteration.
	Iterations int
}

// CheckPermutationPoly checks the permutation property over the prime
// field F_r with r = 2^61 - 1 (a Mersenne prime, for fast reduction),
// the local polynomial products sharded across par's goroutines —
// partial products merge by field multiplication, so the verdict is
// identical for every worker count. Elements must lie in 0..r-1 —
// Lemma 5 requires the prime to exceed the universe so that distinct
// elements stay distinct modulo r; an element outside it on any PE is
// an error on every PE. The failure bound is (n/r)^Iterations for n
// total elements. One all-reduction: the products of every iteration
// plus the universe flag as an AND word, which is identical on every PE
// once reduced, so each PE reads the verdict off it.
func CheckPermutationPoly(w *dist.Worker, cfg PolyPermConfig, par ParallelAccumulator, input, output []uint64) (bool, error) {
	if cfg.Iterations < 1 {
		return false, fmt.Errorf("core: poly perm checker: iterations must be >= 1")
	}
	const r = hashing.Mersenne61
	seed, err := w.CommonSeed()
	if err != nil {
		return false, err
	}
	valid := uint64(1)
	for _, xs := range [][]uint64{input, output} {
		for _, x := range xs {
			if x >= r {
				valid = 0
			}
		}
	}
	// A PE outside the universe contributes the field's 1s: it must
	// still join the reduction, or the others would deadlock in it.
	n := 2 * cfg.Iterations
	prods := make([]uint64, n+1)
	for i := range prods {
		prods[i] = 1
	}
	prods[n] = valid
	rng := hashing.NewMT19937_64(hashing.Mix64(seed ^ 0x9071e57a9071e57a))
	for it := 0; it < cfg.Iterations && valid == 1; it++ {
		z := rng.Uint64n(r)
		prods[2*it] = par.PolyProd61(z, input)
		prods[2*it+1] = par.PolyProd61(z, output)
	}
	red, err := w.Coll.AllReduce(prods, func(dst, src []uint64) {
		for i := 0; i < n; i++ {
			dst[i] = hashing.MulMod61(dst[i], src[i])
		}
		dst[n] &= src[n]
	})
	if err != nil {
		return false, err
	}
	if red[n] == 0 {
		return false, fmt.Errorf("core: poly perm checker: elements outside universe 0..2^61-2 (Lemma 5 requires the prime to exceed the universe)")
	}
	return pairsEqual(red[:n]), nil
}

// pairsEqual reports whether every (input, output) product pair of the
// reduced vector agrees.
func pairsEqual(prods []uint64) bool {
	for i := 0; i < len(prods); i += 2 {
		if prods[i] != prods[i+1] {
			return false
		}
	}
	return true
}

// PolyProd61 evaluates prod over xs of (z - x) in F_(2^61-1); all
// inputs must be canonical residues (< 2^61-1). The serial
// multiply-accumulate chain is split into four independent partial
// products so consecutive MulMod61 latencies overlap; the field is
// commutative and MulMod61 returns canonical residues, so any
// association yields the same bits as the scalar left-fold.
func PolyProd61(z uint64, xs []uint64) uint64 {
	p0, p1, p2, p3 := uint64(1), uint64(1), uint64(1), uint64(1)
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		p0 = hashing.MulMod61(p0, hashing.SubMod61(z, xs[i]))
		p1 = hashing.MulMod61(p1, hashing.SubMod61(z, xs[i+1]))
		p2 = hashing.MulMod61(p2, hashing.SubMod61(z, xs[i+2]))
		p3 = hashing.MulMod61(p3, hashing.SubMod61(z, xs[i+3]))
	}
	for ; i < len(xs); i++ {
		p0 = hashing.MulMod61(p0, hashing.SubMod61(z, xs[i]))
	}
	return hashing.MulMod61(hashing.MulMod61(p0, p1), hashing.MulMod61(p2, p3))
}

// PolyProdGF evaluates prod over xs of (z xor x) in GF(2^64) with the
// same four-lane unrolling as PolyProd61; carry-less multiplication is
// exact and commutative, so the result matches the scalar left-fold.
func PolyProdGF(z uint64, xs []uint64) uint64 {
	p0, p1, p2, p3 := uint64(1), uint64(1), uint64(1), uint64(1)
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		p0 = hashing.GF64Mul(p0, z^xs[i])
		p1 = hashing.GF64Mul(p1, z^xs[i+1])
		p2 = hashing.GF64Mul(p2, z^xs[i+2])
		p3 = hashing.GF64Mul(p3, z^xs[i+3])
	}
	for ; i < len(xs); i++ {
		p0 = hashing.GF64Mul(p0, z^xs[i])
	}
	return hashing.GF64Mul(hashing.GF64Mul(p0, p1), hashing.GF64Mul(p2, p3))
}

// CheckPermutationGF checks the permutation property in GF(2^64) with
// carry-less multiplication (the Section 5 optimisation referencing
// Galois-field SIMD arithmetic): q(z) = prod(z xor e_i) over the full
// 64-bit universe, no universe restriction, the local products sharded
// across par's goroutines; see CheckPermutationPoly. Failure bound
// about (n/2^64)^Iterations. One all-reduction.
func CheckPermutationGF(w *dist.Worker, iterations int, par ParallelAccumulator, input, output []uint64) (bool, error) {
	if iterations < 1 {
		return false, fmt.Errorf("core: GF perm checker: iterations must be >= 1")
	}
	seed, err := w.CommonSeed()
	if err != nil {
		return false, err
	}
	rng := hashing.NewMT19937_64(hashing.Mix64(seed ^ 0x6f2a6f2a6f2a6f2a))
	prods := make([]uint64, 2*iterations)
	for it := 0; it < iterations; it++ {
		z := rng.Uint64()
		prods[2*it] = par.PolyProdGF(z, input)
		prods[2*it+1] = par.PolyProdGF(z, output)
	}
	red, err := w.Coll.AllReduce(prods, func(dst, src []uint64) {
		for i := range dst {
			dst[i] = hashing.GF64Mul(dst[i], src[i])
		}
	})
	if err != nil {
		return false, err
	}
	return pairsEqual(red), nil
}
