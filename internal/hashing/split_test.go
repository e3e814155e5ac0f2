package hashing_test

import (
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hashing"
)

// Section 7.1 cuts one wide hash value into log2 d-bit groups, one per
// iteration, so that one evaluation serves several iterations. The sum
// checker's configuration lays the cut out (core's SumConfig.layout);
// the tests here check it from the hash side, through the checker's
// public API only: with w = log2 d and k = Family.Bits / w, iteration i
// puts a key in the bucket given by bits [w*(i%k), w*(i%k+1)) of hash
// value i/k, low bits first, and hash value j is the family member
// keyed by the j-th of the checker's hash sub-seeds.

// hashSeedDomain is the domain of the sum checker's hash sub-seeds: its
// hashers are keyed by hashing.SubSeeds(seed ^ hashSeedDomain, ·).
const hashSeedDomain = 0x5eed5eed5eed5eed

// bucketsOf returns the bucket every iteration of cfg's checker with
// seed puts key in, read off the table that one count of key fills in
// the checker's scalar reference loop, whose tables the kernel's equal.
func bucketsOf(t *testing.T, cfg core.SumConfig, seed, key uint64) []int {
	t.Helper()
	c := core.NewSumChecker(cfg, seed)
	table := c.NewTable()
	c.AccumulateScalar(table, []data.Pair{{Key: key}}, true)
	c.Normalize(table)
	d := cfg.Buckets
	out := make([]int, cfg.Iterations)
	for it := range out {
		out[it] = -1
		for b, v := range table[it*d : (it+1)*d] {
			switch {
			case v == 0:
			case v == 1 && out[it] < 0:
				out[it] = b
			default:
				t.Fatalf("%s: iteration %d counted key %d as %v", cfg.Name(), it, key, table[it*d:(it+1)*d])
			}
		}
		if out[it] < 0 {
			t.Fatalf("%s: iteration %d did not count key %d", cfg.Name(), it, key)
		}
	}
	return out
}

// hashValues returns the first n hash values the checker with seed
// draws for key from family fam.
func hashValues(fam hashing.Family, seed, key uint64, n int) []uint64 {
	out := hashing.SubSeeds(seed^hashSeedDomain, n)
	for j, s := range out {
		out[j] = fam.New(s).Hash64(key)
	}
	return out
}

// reassemble puts the w-bit buckets back together, low bits first.
func reassemble(buckets []int, w int) uint64 {
	var h uint64
	for i, b := range buckets {
		h |= uint64(b) << (w * i)
	}
	return h
}

func TestSplitterCoversAllBits(t *testing.T) {
	// 16 iterations of 4 buckets are 16 groups of 2 bits: together they
	// are the whole of one 32-bit CRC value, bit for bit.
	cfg := core.SumConfig{Iterations: 16, Buckets: 4, RHatLog: 10, Family: hashing.FamilyCRC}
	for key := uint64(0); key < 64; key++ {
		seed := 1 + key*0x9e3779b97f4a7c15
		want := hashValues(cfg.Family, seed, key, 1)[0]
		if got := reassemble(bucketsOf(t, cfg, seed, key), 2); got != want {
			t.Fatalf("key %d: buckets reassemble to %#x, want the hash value %#x", key, got, want)
		}
	}
}

func TestSplitterMultipleHashes(t *testing.T) {
	// 16 iterations of 16 buckets are 16 groups of 4 bits; a 32-bit CRC
	// value holds 8 of them, so iterations 0..7 cut the first hash value
	// and 8..15 the second.
	cfg := core.SumConfig{Iterations: 16, Buckets: 16, RHatLog: 15, Family: hashing.FamilyCRC}
	for key := uint64(0); key < 64; key++ {
		seed := 1 + key*0x9e3779b97f4a7c15
		want := hashValues(cfg.Family, seed, key, 2)
		b := bucketsOf(t, cfg, seed, key)
		if lo, hi := reassemble(b[:8], 4), reassemble(b[8:], 4); lo != want[0] || hi != want[1] {
			t.Fatalf("key %d: buckets reassemble to %#x and %#x, want the hash values %#x and %#x",
				key, lo, hi, want[0], want[1])
		}
	}
}

func TestSplitterRejectsNonPow2(t *testing.T) {
	// 37 buckets are no whole number of bits: the checker refuses them.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non power-of-two d")
		}
	}()
	core.NewSumChecker(core.SumConfig{Iterations: 4, Buckets: 37, RHatLog: 7, Family: hashing.FamilyCRC}, 1)
}

func TestIsPow2(t *testing.T) {
	// Exactly the powers of two >= 2 are bucket counts the cut serves.
	for d, want := range map[int]bool{1: false, 2: true, 3: false, 4: true, 37: false, 256: true, 0: false, -4: false} {
		cfg := core.SumConfig{Iterations: 4, Buckets: d, RHatLog: 7, Family: hashing.FamilyCRC}
		if err := cfg.Validate(); (err == nil) != want {
			t.Errorf("Validate(%s) = %v, want a valid bucket count: %v", cfg.Name(), err, want)
		}
	}
}

func TestSplitterGroupsIndependentQuick(t *testing.T) {
	// Property: for any power-of-two d, iteration count, family width,
	// seed and key, iteration i's bucket is group i%k of hash value i/k,
	// where a hash value holds k = Family.Bits / log2 d whole groups.
	f := func(logD, its uint8, wide bool, seed, key uint64) bool {
		cfg := core.SumConfig{Iterations: 1 + int(its%64), Buckets: 2 << (logD % 10), RHatLog: 7, Family: hashing.FamilyCRC}
		if wide {
			cfg.Family = hashing.FamilyTab64
		}
		w := bits.TrailingZeros(uint(cfg.Buckets))
		k := cfg.Family.Bits / w
		h := hashValues(cfg.Family, seed, key, (cfg.Iterations+k-1)/k)
		for i, b := range bucketsOf(t, cfg, seed, key) {
			if uint64(b) != h[i/k]>>(w*(i%k))&uint64(cfg.Buckets-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
