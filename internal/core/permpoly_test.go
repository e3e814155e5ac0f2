package core

import (
	"testing"

	"repro/internal/hashing"
	"repro/internal/workload"
)

// TestPolyProdMatchesSerial: the unrolled polynomial products must
// match the plain serial left-fold bit for bit in both fields.
func TestPolyProdMatchesSerial(t *testing.T) {
	xs := workload.UniformU64s(24576, 1e15, 17)
	for i := range xs {
		xs[i] %= hashing.Mersenne61
	}
	z61 := hashing.Mix64(123) % hashing.Mersenne61
	ref61 := uint64(1)
	for _, e := range xs {
		ref61 = hashing.MulMod61(ref61, hashing.SubMod61(z61, e))
	}
	if got := PolyProd61(z61, xs); got != ref61 {
		t.Fatalf("PolyProd61: got %#x want %#x", got, ref61)
	}
	zGF := hashing.Mix64(456)
	refGF := uint64(1)
	for _, e := range xs {
		refGF = hashing.GF64Mul(refGF, zGF^e)
	}
	if got := PolyProdGF(zGF, xs); got != refGF {
		t.Fatalf("PolyProdGF: got %#x want %#x", got, refGF)
	}
	// Odd tail lengths exercise the unroll remainder.
	for _, n := range []int{0, 1, 2, 3, 5, 7} {
		ref := uint64(1)
		for _, e := range xs[:n] {
			ref = hashing.MulMod61(ref, hashing.SubMod61(z61, e))
		}
		if got := PolyProd61(z61, xs[:n]); got != ref {
			t.Fatalf("PolyProd61 n=%d: got %#x want %#x", n, got, ref)
		}
	}
}
