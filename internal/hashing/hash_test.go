package hashing

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"testing"
)

func TestFamiliesDeterministic(t *testing.T) {
	for _, fam := range []Family{FamilyCRC, FamilyTab, FamilyTab64, FamilyMix} {
		h1 := fam.New(42)
		h2 := fam.New(42)
		for x := uint64(0); x < 1000; x++ {
			if h1.Hash64(x) != h2.Hash64(x) {
				t.Fatalf("%s: same seed produced different hashes for %d", fam.Name, x)
			}
		}
	}
}

func TestFamiliesSeedSensitivity(t *testing.T) {
	for _, fam := range []Family{FamilyCRC, FamilyTab, FamilyTab64, FamilyMix} {
		h1 := fam.New(1)
		h2 := fam.New(2)
		same := 0
		for x := uint64(0); x < 1000; x++ {
			if h1.Hash64(x) == h2.Hash64(x) {
				same++
			}
		}
		if same > 10 {
			t.Errorf("%s: seeds 1 and 2 agree on %d of 1000 inputs", fam.Name, same)
		}
	}
}

func TestFamilyBitsConsistent(t *testing.T) {
	for _, fam := range []Family{FamilyCRC, FamilyTab, FamilyTab64, FamilyMix} {
		// A family's Bits is what its members' outputs fill: a 32-bit
		// family never sets a high bit, and a 64-bit one does.
		h := fam.New(7)
		var or uint64
		for x := uint64(0); x < 1000; x++ {
			or |= h.Hash64(x)
		}
		if got := 64 - bits.LeadingZeros64(or); got != fam.Bits {
			t.Errorf("%s: outputs fill %d bits, family Bits %d", fam.Name, got, fam.Bits)
		}
	}
}

func TestFamilyByName(t *testing.T) {
	for _, name := range []string{"CRC", "Tab", "Tab64", "Mix"} {
		fam, err := FamilyByName(name)
		if err != nil {
			t.Fatalf("FamilyByName(%q): %v", name, err)
		}
		if fam.Name != name {
			t.Fatalf("FamilyByName(%q) returned %q", name, fam.Name)
		}
	}
	if _, err := FamilyByName("nope"); err == nil {
		t.Fatal("expected error for unknown family")
	}
}

func TestHashUniformityCoarse(t *testing.T) {
	// Bucket 32k sequential keys into 16 buckets; every family should be
	// near-uniform (sequential inputs are the adversarial case for weak
	// mixers).
	for _, fam := range []Family{FamilyCRC, FamilyTab, FamilyTab64, FamilyMix} {
		h := fam.New(123)
		const buckets, n = 16, 32768
		var counts [buckets]int
		for x := uint64(0); x < n; x++ {
			counts[h.Hash64(x)&(buckets-1)]++
		}
		want := n / buckets
		for b, c := range counts {
			if c < want*8/10 || c > want*12/10 {
				t.Errorf("%s: bucket %d has %d keys, want about %d", fam.Name, b, c, want)
			}
		}
	}
}

func TestSubSeedsDistinct(t *testing.T) {
	seeds := SubSeeds(99, 64)
	seen := make(map[uint64]bool, len(seeds))
	for _, s := range seeds {
		if seen[s] {
			t.Fatal("SubSeeds produced a duplicate")
		}
		seen[s] = true
	}
	again := SubSeeds(99, 64)
	for i := range seeds {
		if seeds[i] != again[i] {
			t.Fatal("SubSeeds is not deterministic")
		}
	}
}

func TestMix64Bijective(t *testing.T) {
	// Mix64 is a bijection; sampled collision-freedom is a cheap check.
	seen := make(map[uint64]uint64)
	for x := uint64(0); x < 200000; x += 7 {
		h := Mix64(x)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: %d and %d", prev, x)
		}
		seen[h] = x
	}
}

func TestCRC32CMatchesStdlib(t *testing.T) {
	// The hand-rolled byte-at-a-time update must be bit-identical to
	// crc32.Update over the Castagnoli table for both message widths.
	c := NewCRC32C(12345)
	rng := NewMT19937_64(1)
	for i := 0; i < 5000; i++ {
		x := rng.Uint64()
		if i%2 == 0 {
			x &= 0xFFFFFFFF // force the 4-byte path
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], x)
		n := 4
		if x > 0xFFFFFFFF {
			n = 8
		}
		want := uint64(crc32.Update(c.init, castagnoli, buf[:n]))
		if got := c.Hash64(x); got != want {
			t.Fatalf("Hash64(%#x) = %#x, want %#x", x, got, want)
		}
	}
}

func TestCRC32CAllocationFree(t *testing.T) {
	c := NewCRC32C(7)
	allocs := testing.AllocsPerRun(1000, func() {
		sinkHash += c.Hash64(0xdeadbeefcafe)
		sinkHash += c.Hash64(0x1234)
	})
	if allocs != 0 {
		t.Fatalf("Hash64 allocates %.1f times per run", allocs)
	}
}

var sinkHash uint64
