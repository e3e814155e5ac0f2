package hashing

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestMod61(t *testing.T) {
	cases := map[uint64]uint64{
		0:              0,
		1:              1,
		Mersenne61:     0,
		Mersenne61 + 1: 1,
		2 * Mersenne61: 0,
		^uint64(0):     Mod61(^uint64(0)),
	}
	for in, want := range cases {
		big := new(big.Int).SetUint64(in)
		ref := big.Mod(big, bigM61()).Uint64()
		if Mod61(in) != ref {
			t.Errorf("Mod61(%d) = %d, want %d", in, Mod61(in), ref)
		}
		_ = want
	}
}

func bigM61() *big.Int { return new(big.Int).SetUint64(Mersenne61) }

func TestMulMod61MatchesBig(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= Mersenne61
		b %= Mersenne61
		got := MulMod61(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, bigM61())
		return got == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestMulLazy61 checks the lazy multiply's contract on inputs up to
// its bounds — a and b below 2^62, or a below 2^63 and b canonical: a
// result below 2^62, congruent to the product.
func TestMulLazy61(t *testing.T) {
	holds := func(a, b uint64) bool {
		got := MulLazy61(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, bigM61())
		return got < 1<<62 && Mod61(got) == want.Uint64()
	}
	for _, shape := range []func(a, b uint64) bool{
		func(a, b uint64) bool { return holds(a>>2, b>>2) },
		func(a, b uint64) bool { return holds(a>>1, b%Mersenne61) },
	} {
		if err := quick.Check(shape, &quick.Config{MaxCount: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	if !holds(1<<62-1, 1<<62-1) || !holds(1<<63-1, Mersenne61-1) {
		t.Fatal("MulLazy61 fails at its bounds")
	}
}

// TestPowMod61MatchesBig checks the power against math/big's on
// sampled bases and exponents, and on the exponents 0, 1, r-1 and
// 2^64-1.
func TestPowMod61MatchesBig(t *testing.T) {
	f := func(a, e uint64) bool {
		want := new(big.Int).Exp(new(big.Int).SetUint64(a), new(big.Int).SetUint64(e), bigM61())
		return PowMod61(a, e) == want.Uint64()
	}
	if err := quick.Check(func(a, e uint64) bool { return f(a>>2, e) }, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	for _, a := range []uint64{0, 1, 2, Mersenne61 - 1, Mersenne61, 1<<62 - 1} {
		for _, e := range []uint64{0, 1, Mersenne61 - 1, ^uint64(0)} {
			if !f(a, e) {
				t.Errorf("PowMod61(%#x, %#x) = %#x", a, e, PowMod61(a, e))
			}
		}
	}
}

func TestAddSubMod61(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= Mersenne61
		b %= Mersenne61
		s := AddMod61(a, b)
		if SubMod61(s, b) != a {
			return false
		}
		return s < Mersenne61
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInvMod61 checks the Fermat inverse against math/big's on sampled
// residues and on the ends of the field.
func TestInvMod61(t *testing.T) {
	rng := NewMT19937_64(61)
	as := []uint64{1, 2, Mersenne61 - 1, Mersenne61 - 2}
	for range 200 {
		as = append(as, 1+rng.Uint64n(Mersenne61-1))
	}
	for _, a := range as {
		want := new(big.Int).ModInverse(new(big.Int).SetUint64(a), bigM61()).Uint64()
		if got := InvMod61(a); got != want || MulMod61(a, got) != 1 {
			t.Fatalf("InvMod61(%#x) = %#x, want %#x", a, got, want)
		}
	}
}
