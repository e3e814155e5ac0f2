package manipulate

import (
	"testing"

	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/workload"
)

func TestPairManipulatorsAreEffective(t *testing.T) {
	// Every application must change the aggregation result.
	base := workload.ZipfPairs(2000, 1000, 1<<32, 1)
	for _, m := range PairManipulators() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			rng := hashing.NewMT19937_64(7)
			for trial := 0; trial < 200; trial++ {
				ps := data.ClonePairs(base)
				if !m.Apply(ps, rng, 1000) {
					t.Fatalf("trial %d: manipulator reported failure", trial)
				}
				if !ChangesAggregation(base, ps) {
					t.Fatalf("trial %d: aggregation unchanged", trial)
				}
			}
		})
	}
}

func TestSeqManipulatorsAreEffective(t *testing.T) {
	base := workload.UniformU64s(2000, 1e8, 2)
	for _, m := range SeqManipulators() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			rng := hashing.NewMT19937_64(9)
			for trial := 0; trial < 200; trial++ {
				xs := data.CloneU64s(base)
				if !m.Apply(xs, rng, 1e8) {
					t.Fatalf("trial %d: manipulator reported failure", trial)
				}
				if !ChangesMultiset(base, xs) {
					t.Fatalf("trial %d: multiset unchanged", trial)
				}
			}
		})
	}
}

func TestManipulatorsChangeExactlyLittle(t *testing.T) {
	// Subtlety check: Bitflip/IncKey/Increment touch exactly one
	// element; IncDec1 exactly two; IncDec2 exactly four.
	base := workload.ZipfPairs(1000, 500, 1<<20, 3)
	countDiffs := func(a, b []data.Pair) int {
		n := 0
		for i := range a {
			if a[i] != b[i] {
				n++
			}
		}
		return n
	}
	rng := hashing.NewMT19937_64(11)
	for trial := 0; trial < 50; trial++ {
		for _, tc := range []struct {
			name string
			want int
		}{{"Bitflip", 1}, {"IncKey", 1}, {"IncDec1", 2}, {"IncDec2", 4}, {"SwitchValues", 2}} {
			var m PairManipulator
			for _, cand := range PairManipulators() {
				if cand.Name == tc.name {
					m = cand
				}
			}
			ps := data.ClonePairs(base)
			if !m.Apply(ps, rng, 500) {
				t.Fatalf("%s failed to apply", tc.name)
			}
			if got := countDiffs(base, ps); got != tc.want {
				t.Fatalf("%s changed %d elements, want %d", tc.name, got, tc.want)
			}
		}
	}
}

func TestIncDecPreservesTotalCount(t *testing.T) {
	// IncDec moves counts between keys but never changes the total —
	// the subtle class of faults it exists to model.
	base := workload.ZipfPairs(1000, 200, 0, 4) // count workload: all values 1
	rng := hashing.NewMT19937_64(13)
	var m PairManipulator
	for _, cand := range PairManipulators() {
		if cand.Name == "IncDec1" {
			m = cand
		}
	}
	for trial := 0; trial < 100; trial++ {
		ps := data.ClonePairs(base)
		if !m.Apply(ps, rng, 200) {
			t.Fatal("apply failed")
		}
		var before, after uint64
		for i := range base {
			before += base[i].Value
			after += ps[i].Value
		}
		if before != after {
			t.Fatal("IncDec changed the total count")
		}
	}
}

func TestManipulatorsHandleDegenerateInputs(t *testing.T) {
	rng := hashing.NewMT19937_64(5)
	for _, m := range PairManipulators() {
		if m.Apply(nil, rng, 100) {
			t.Errorf("%s claims success on empty input", m.Name)
		}
	}
	for _, m := range SeqManipulators() {
		if m.Apply(nil, rng, 100) {
			t.Errorf("%s claims success on empty input", m.Name)
		}
	}
	// Single-element cases where a pairing is impossible.
	one := []uint64{5}
	for _, m := range SeqManipulators() {
		if m.Name == "SetEqual" && m.Apply(one, rng, 100) {
			t.Error("SetEqual claims success with one element")
		}
	}
	onePair := []data.Pair{{Key: 1, Value: 1}}
	for _, m := range PairManipulators() {
		switch m.Name {
		case "SwitchValues", "IncDec1", "IncDec2":
			if m.Apply(onePair, rng, 100) {
				t.Errorf("%s claims success with one element", m.Name)
			}
		}
	}
}

func TestSeqResetProducesZero(t *testing.T) {
	rng := hashing.NewMT19937_64(17)
	xs := []uint64{5, 6, 7}
	var m SeqManipulator
	for _, cand := range SeqManipulators() {
		if cand.Name == "Reset" {
			m = cand
		}
	}
	if !m.Apply(xs, rng, 100) {
		t.Fatal("reset failed")
	}
	zeros := 0
	for _, x := range xs {
		if x == 0 {
			zeros++
		}
	}
	if zeros != 1 {
		t.Fatalf("expected exactly one zero, got %d", zeros)
	}
}

func TestChangeDetectors(t *testing.T) {
	a := []data.Pair{{Key: 1, Value: 2}, {Key: 3, Value: 4}}
	if ChangesAggregation(a, data.ClonePairs(a)) {
		t.Error("identical pairs flagged as changed")
	}
	b := data.ClonePairs(a)
	b[0].Value++
	if !ChangesAggregation(a, b) {
		t.Error("changed pairs not flagged")
	}
	xs := []uint64{1, 2, 3}
	if ChangesMultiset(xs, []uint64{3, 2, 1}) {
		t.Error("permutation flagged as multiset change")
	}
	if !ChangesMultiset(xs, []uint64{1, 2, 4}) {
		t.Error("multiset change not flagged")
	}
}

// TestRectangleSwapsOneBytePosition: Rectangle changes the multiset
// through exactly two elements, and the pair it writes is the pair it
// read with one byte position exchanged — the four values XOR to zero.
func TestRectangleSwapsOneBytePosition(t *testing.T) {
	base := workload.UniformU64s(2000, 1e8, 2)
	rng := hashing.NewMT19937_64(21)
	for trial := 0; trial < 200; trial++ {
		xs := data.CloneU64s(base)
		if !Rectangle.Apply(xs, rng, 1e8) {
			t.Fatalf("trial %d: manipulator reported failure", trial)
		}
		if !ChangesMultiset(base, xs) {
			t.Fatalf("trial %d: multiset unchanged", trial)
		}
		var changed []int
		for i := range xs {
			if xs[i] != base[i] {
				changed = append(changed, i)
			}
		}
		if len(changed) != 2 {
			t.Fatalf("trial %d: %d elements changed, want 2", trial, len(changed))
		}
		i, j := changed[0], changed[1]
		if base[i]^base[j]^xs[i]^xs[j] != 0 {
			t.Fatalf("trial %d: %#x, %#x became %#x, %#x: not a rectangle", trial, base[i], base[j], xs[i], xs[j])
		}
		if moved := base[i] ^ xs[i]; !oneByte(moved) {
			t.Fatalf("trial %d: %#x -> %#x moves bits %#x, not one byte position", trial, base[i], xs[i], moved)
		}
	}
	if Rectangle.Apply([]uint64{1}, rng, 2) || Rectangle.Apply([]uint64{7, 7}, rng, 8) {
		t.Error("Rectangle reported a fault it cannot inject")
	}
}

// oneByte reports whether x is nonzero only within one aligned byte.
func oneByte(x uint64) bool {
	for k := 0; k < 64; k += 8 {
		if x&^(0xff<<k) == 0 {
			return x != 0
		}
	}
	return false
}
