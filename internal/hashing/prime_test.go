package hashing

import (
	"math/big"
	"testing"
	"testing/quick"
)

func sieve(limit int) []bool {
	prime := make([]bool, limit)
	for i := 2; i < limit; i++ {
		prime[i] = true
	}
	for i := 2; i*i < limit; i++ {
		if prime[i] {
			for j := i * i; j < limit; j += i {
				prime[j] = false
			}
		}
	}
	return prime
}

func TestIsPrimeSmall(t *testing.T) {
	const limit = 20000
	ref := sieve(limit)
	for n := 0; n < limit; n++ {
		if got := IsPrime(uint64(n)); got != ref[n] {
			t.Fatalf("IsPrime(%d) = %v, want %v", n, got, ref[n])
		}
	}
}

func TestIsPrimeKnownLarge(t *testing.T) {
	primes := []uint64{
		Mersenne61,           // 2^61-1, Mersenne prime
		(1 << 31) - 1,        // 2^31-1, Mersenne prime
		18446744073709551557, // largest prime < 2^64
		2305843009213693967,  // near 2^61 composite? -> checked below
	}
	if !IsPrime(primes[0]) || !IsPrime(primes[1]) || !IsPrime(primes[2]) {
		t.Fatal("known prime rejected")
	}
	composites := []uint64{
		(1 << 61),            // power of two
		18446744073709551615, // 2^64-1 = 3*5*17*257*641*65537*6700417
		3215031751,           // strong pseudoprime to bases 2,3,5,7
	}
	for _, c := range composites {
		if IsPrime(c) {
			t.Fatalf("composite %d accepted", c)
		}
	}
	_ = primes[3]
}

func TestIsPrimeMatchesBigProbablyPrime(t *testing.T) {
	f := func(n uint64) bool {
		return IsPrime(n) == new(big.Int).SetUint64(n).ProbablyPrime(30)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestMulModMatchesBig(t *testing.T) {
	f := func(a, b, m uint64) bool {
		if m == 0 {
			return true
		}
		got := mulMod(a, b, m)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, new(big.Int).SetUint64(m))
		return got == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPowModMatchesBig(t *testing.T) {
	f := func(a, e, m uint64) bool {
		if m == 0 {
			return true
		}
		e %= 1 << 20 // keep the reference fast
		got := powMod(a, e, m)
		want := new(big.Int).Exp(
			new(big.Int).SetUint64(a),
			new(big.Int).SetUint64(e),
			new(big.Int).SetUint64(m))
		return got == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
