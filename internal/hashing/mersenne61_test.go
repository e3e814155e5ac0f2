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

// TestMulLazy61 checks the lazy multiply's contract on inputs up to its
// bound, 2^62 - 1: a result below 2^62, congruent to the product.
func TestMulLazy61(t *testing.T) {
	f := func(a, b uint64) bool {
		a, b = a>>2, b>>2
		got := MulLazy61(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, bigM61())
		return got < 1<<62 && Mod61(got) == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	if !f(^uint64(0), ^uint64(0)) {
		t.Fatal("MulLazy61 fails at its bound")
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
