package hashing

import "testing"

// TestTabulationUsesWholeSeed: two seeds that agree on the 32 bits of
// Mix64(seed) the tables were once keyed with — found by birthday
// search, about 2^16 evaluations — must still give different functions.
// With 32-bit keying they gave the same one, and a 2×Tab permutation
// checker whose two sub-seeds collided there had the delta of one
// iteration.
func TestTabulationUsesWholeSeed(t *testing.T) {
	seen := make(map[uint32]uint64)
	var s1, s2 uint64
	for s := uint64(1); ; s++ {
		k := uint32(Mix64(s))
		if prev, ok := seen[k]; ok {
			s1, s2 = prev, s
			break
		}
		seen[k] = s
	}
	a, b := NewTabulation32(s1), NewTabulation32(s2)
	if a.tables == b.tables {
		t.Fatalf("seeds %#x and %#x, equal in the low 32 bits of Mix64, give identical tables", s1, s2)
	}
	same := 0
	for x := uint64(0); x < 1000; x++ {
		if a.Hash64(x) == b.Hash64(x) {
			same++
		}
	}
	if same > 10 {
		t.Errorf("seeds %#x and %#x agree on %d of 1000 inputs", s1, s2, same)
	}
}

// TestTabulationRecycledTablesRefilled: a hasher built on recycled
// tables is the function of its own seed, whatever the tables held.
func TestTabulationRecycledTablesRefilled(t *testing.T) {
	for _, fam := range []Family{FamilyTab, FamilyTab64} {
		digest := func(h Hasher) (d uint64) {
			for x := uint64(0); x < 4096; x++ {
				d = Mix64(d ^ h.Hash64(x*0x0101010101010101))
			}
			return d
		}
		first := fam.New(1)
		want1 := digest(first)
		want2 := digest(fam.New(2)) // never recycled
		if want1 == want2 {
			t.Fatalf("%s: seeds 1 and 2 give the same function", fam.Name)
		}
		Recycle(first)
		for round := 0; round < 4; round++ {
			// Hold several at once so the pool hands out every table it
			// has on this P, the recycled one among them.
			var held []Hasher
			for i := 0; i < 3; i++ {
				h := fam.New(2)
				if got := digest(h); got != want2 {
					t.Fatalf("%s round %d: seed 2 on pooled tables hashes to %#x, want %#x", fam.Name, round, got, want2)
				}
				held = append(held, h)
			}
			for _, h := range held {
				Recycle(h)
			}
			h := fam.New(1)
			if got := digest(h); got != want1 {
				t.Fatalf("%s round %d: seed 1 on pooled tables hashes to %#x, want %#x", fam.Name, round, got, want1)
			}
			Recycle(h)
		}
	}
}
