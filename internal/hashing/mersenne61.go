package hashing

import "math/bits"

// Mersenne61 is the prime 2^61 - 1 of the permutation checker's
// product (Lemma 5) and the zip checker's fingerprints: reducing modulo
// it is a shift and an add.
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

// MulLazy61 returns a value below 2^62 congruent to a·b mod 2^61-1,
// for a and b below 2^62, or a below 2^63 and b canonical — a·b below
// 2^124 either way: the product folded twice at 2^61 ≡ 1 and never
// reduced to canonical, so a chain of multiplies carries it into the
// next one and reduces once, at its end (Mod61).
func MulLazy61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	x := lo&Mersenne61 + (hi<<3 | lo>>61) // < 2^61 + 2^63
	return x&Mersenne61 + x>>61
}

// PowMod61 returns a^e mod 2^61-1, canonical, for a below 2^62: one
// square-and-multiply pass over e on lazily folded multiplies and one
// reduction at the end.
func PowMod61(a, e uint64) uint64 {
	p := uint64(1)
	for ; e != 0; e >>= 1 {
		if e&1 != 0 {
			p = MulLazy61(p, a)
		}
		a = MulLazy61(a, a)
	}
	return Mod61(p)
}

// InvMod61 returns a^-1 mod 2^61-1 for 0 < a < 2^61-1: a^(r-2) by
// Fermat's little theorem.
func InvMod61(a uint64) uint64 { return PowMod61(a, Mersenne61-2) }
