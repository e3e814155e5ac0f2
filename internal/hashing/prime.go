package hashing

import "math/bits"

// Primality for Lemma 5: the polynomial permutation checker needs a
// prime r > max(n/δ, U-1). We test 64-bit candidates with a
// deterministic Miller-Rabin using a base set proven exhaustive below
// 2^64. (The checker in core/permpoly.go fixes r = 2^61-1, so nothing
// searches for a prime today.)

// mulMod returns a*b mod m without overflow for any a, b, m < 2^64.
func mulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

// powMod returns a^e mod m.
func powMod(a, e, m uint64) uint64 {
	if m == 1 {
		return 0
	}
	result := uint64(1)
	a %= m
	for e > 0 {
		if e&1 != 0 {
			result = mulMod(result, a, m)
		}
		a = mulMod(a, a, m)
		e >>= 1
	}
	return result
}

// millerRabinBases is sufficient for all n < 2^64 (Sinclair's verified
// base set plus small primes for clarity).
var millerRabinBases = []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// IsPrime reports whether n is prime, deterministically for n < 2^64.
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	// Write n-1 = d * 2^s with d odd.
	d := n - 1
	s := bits.TrailingZeros64(d)
	d >>= uint(s)
	for _, a := range millerRabinBases {
		x := powMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for r := 1; r < s; r++ {
			x = mulMod(x, x, n)
			if x == n-1 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}
