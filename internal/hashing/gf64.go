package hashing

import "math/bits"

// GF(2^64) arithmetic for the carry-less variant of the polynomial
// permutation checker (Section 5: "one could also consider using
// carry-less multiplication in a Galois Field GF(2^l) with an irreducible
// polynomial"). We use the field GF(2)[x] / (x^64 + x^4 + x^3 + x + 1);
// the reduction polynomial's low terms are 0x1B.

// gf64Poly holds the low 64 bits of the irreducible reduction polynomial
// x^64 + x^4 + x^3 + x + 1.
const gf64Poly uint64 = 0x1B

// ClMul64 returns the 128-bit carry-less (polynomial over GF(2))
// product of a and b as (hi, lo). It is the software equivalent of the
// PCLMULQDQ instruction the paper alludes to via reference [24].
func ClMul64(a, b uint64) (hi, lo uint64) {
	// Process b in 4-bit nibbles against a precomputed table of the 16
	// multiples of a. The multiples of a occupy at most 67 bits, kept as
	// (hi3 bits, lo 64 bits) pairs.
	var tlo, thi [16]uint64
	for i := 1; i < 16; i++ {
		// t[i] = t[i>>1] << 1 (+ a if low bit set), all carry-less.
		shLo := tlo[i>>1] << 1
		shHi := thi[i>>1]<<1 | tlo[i>>1]>>63
		if i&1 != 0 {
			shLo ^= a
		}
		tlo[i], thi[i] = shLo, shHi
	}
	for shift := 0; shift < 64; shift += 4 {
		nib := (b >> shift) & 0xF
		if nib == 0 {
			continue
		}
		lo ^= tlo[nib] << shift
		if shift > 0 {
			hi ^= tlo[nib] >> (64 - shift)
		}
		hi ^= thi[nib] << shift
	}
	return hi, lo
}

// GF64Mul multiplies a and b in GF(2^64), reducing the 128-bit
// carry-less product modulo x^64 + x^4 + x^3 + x + 1.
func GF64Mul(a, b uint64) uint64 {
	hi, lo := ClMul64(a, b)
	// Reduce: each high bit x^(64+i) folds to x^i * (x^4+x^3+x+1).
	// Two folding rounds suffice because gf64Poly has degree 4: the first
	// fold leaves at most 4 bits above position 63.
	h2, l2 := ClMul64(hi, gf64Poly)
	lo ^= l2
	_, l3 := ClMul64(h2, gf64Poly)
	return lo ^ l3
}

// Mersenne61 is the prime 2^61 - 1 used for fast modular arithmetic in
// the polynomial permutation checker.
const Mersenne61 uint64 = (1 << 61) - 1

// Mod61 reduces x modulo 2^61-1. x may be any uint64.
func Mod61(x uint64) uint64 {
	x = (x & Mersenne61) + (x >> 61)
	if x >= Mersenne61 {
		x -= Mersenne61
	}
	return x
}

// MulMod61 returns a*b mod 2^61-1 for a, b < 2^61 using a 128-bit
// intermediate product and Mersenne folding.
func MulMod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo = hi*8*2^61 + lo; fold 2^61 == 1 (mod p).
	folded := (lo & Mersenne61) + (lo>>61 | hi<<3)
	return Mod61(folded)
}

// AddMod61 returns a+b mod 2^61-1 for a, b < 2^61-1.
func AddMod61(a, b uint64) uint64 {
	s := a + b
	if s >= Mersenne61 {
		s -= Mersenne61
	}
	return s
}

// SubMod61 returns a-b mod 2^61-1 for a, b < 2^61-1.
func SubMod61(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + Mersenne61 - b
}
