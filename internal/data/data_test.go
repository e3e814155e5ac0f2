package data

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSplitEvenCoversAll(t *testing.T) {
	f := func(n, p uint8) bool {
		np, pp := int(n), int(p%64)+1
		prevEnd := 0
		for i := 0; i < pp; i++ {
			s, e := SplitEven(np, pp, i)
			if s != prevEnd || e < s {
				return false
			}
			prevEnd = e
		}
		return prevEnd == np
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitEvenBalanced(t *testing.T) {
	const n, p = 1000, 7
	for i := 0; i < p; i++ {
		s, e := SplitEven(n, p, i)
		if sz := e - s; sz != n/p && sz != n/p+1 {
			t.Fatalf("part %d has size %d, want %d or %d", i, sz, n/p, n/p+1)
		}
	}
}

func TestPairsToMapSum(t *testing.T) {
	ps := []Pair{{1, 10}, {2, 5}, {1, 7}, {3, 0}}
	m := PairsToMapSum(ps)
	if m[1] != 17 || m[2] != 5 || m[3] != 0 || len(m) != 3 {
		t.Fatalf("unexpected map: %v", m)
	}
}

func TestMapToPairsRoundTrip(t *testing.T) {
	m := map[uint64]uint64{5: 50, 1: 10, 9: 90}
	ps := MapToPairs(m)
	if len(ps) != 3 || ps[0].Key != 1 || ps[1].Key != 5 || ps[2].Key != 9 {
		t.Fatalf("MapToPairs not sorted: %v", ps)
	}
	back := PairsToMapSum(ps)
	for k, v := range m {
		if back[k] != v {
			t.Fatalf("round trip lost %d -> %d", k, v)
		}
	}
}

func TestIsSortedU64(t *testing.T) {
	if !IsSortedU64(nil) || !IsSortedU64([]uint64{1}) || !IsSortedU64([]uint64{1, 1, 2}) {
		t.Fatal("sorted slices misclassified")
	}
	if IsSortedU64([]uint64{2, 1}) {
		t.Fatal("unsorted slice classified as sorted")
	}
}

func TestClonesAreIndependent(t *testing.T) {
	xs := []uint64{1, 2, 3}
	ys := CloneU64s(xs)
	ys[0] = 99
	if xs[0] != 1 {
		t.Fatal("CloneU64s aliases input")
	}
	ps := []Pair{{1, 2}}
	qs := ClonePairs(ps)
	qs[0].Key = 9
	if ps[0].Key != 1 {
		t.Fatal("ClonePairs aliases input")
	}
}

// TestSortsMatchSortSlice holds the slices-based sorts to the order of
// the reflection-based sort.Slice calls they replaced, ties included.
func TestSortsMatchSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 13, 1000} {
		xs := make([]uint64, n)
		ps := make([]Pair, n)
		for i := range xs {
			xs[i] = uint64(rng.Intn(50))
			ps[i] = Pair{Key: uint64(rng.Intn(20)), Value: uint64(rng.Intn(5))}
		}
		wantX, wantP := slices.Clone(xs), slices.Clone(ps)
		sort.Slice(wantX, func(i, j int) bool { return wantX[i] < wantX[j] })
		sort.Slice(wantP, func(i, j int) bool {
			if wantP[i].Key != wantP[j].Key {
				return wantP[i].Key < wantP[j].Key
			}
			return wantP[i].Value < wantP[j].Value
		})
		SortU64(xs)
		SortPairsByKey(ps)
		if !slices.Equal(xs, wantX) || !IsSortedU64(xs) {
			t.Fatalf("n=%d: SortU64 = %v, want %v", n, xs, wantX)
		}
		if !slices.Equal(ps, wantP) {
			t.Fatalf("n=%d: SortPairsByKey = %v, want %v", n, ps, wantP)
		}
	}
}

// TestRadixSortPairsByKey checks the radix sort against a stable
// comparison sort by key on inputs that exercise every pass count:
// keys that differ in no byte, one byte, an even and an odd number of
// bytes, the extreme keys, and duplicates (stability).
func TestRadixSortPairsByKey(t *testing.T) {
	const maxU64 = ^uint64(0)
	rng := rand.New(rand.NewSource(2))
	gens := map[string]func(i int) uint64{
		"constant":    func(int) uint64 { return 0xabcdef0123456789 },
		"one-byte":    func(int) uint64 { return 0x1100 | uint64(rng.Intn(256)) },
		"two-bytes":   func(int) uint64 { return uint64(rng.Intn(1 << 16)) },
		"three-bytes": func(int) uint64 { return uint64(rng.Intn(1 << 24)) },
		"high-byte":   func(int) uint64 { return uint64(rng.Intn(256)) << 56 },
		"split-bytes": func(int) uint64 { return uint64(rng.Intn(256))<<40 | uint64(rng.Intn(256))<<8 },
		"full":        func(int) uint64 { return rng.Uint64() },
		"extremes":    func(i int) uint64 { return []uint64{0, maxU64, 1, maxU64 - 1}[i%4] },
		"duplicates":  func(int) uint64 { return uint64(rng.Intn(7)) },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 3, 257, 5000} {
			src := make([]Pair, n)
			for i := range src {
				src[i] = Pair{Key: gen(i), Value: uint64(i)}
			}
			want := slices.Clone(src)
			slices.SortStableFunc(want, func(a, b Pair) int { return cmp.Compare(a.Key, b.Key) })
			orig := slices.Clone(src)
			dst, tmp := make([]Pair, n), make([]Pair, n)
			RadixSortPairsByKey(dst, src, tmp)
			if !slices.Equal(dst, want) {
				t.Fatalf("%s n=%d: radix order differs from the stable sort by key", name, n)
			}
			if !slices.Equal(src, orig) {
				t.Fatalf("%s n=%d: src was modified", name, n)
			}
		}
	}
}

// TestRadixSortU64 checks the word radix sort against slices.Sort on
// inputs that exercise every pass count and both parities of it — no
// byte varies, only the low or only the top byte, 0 and MaxUint64
// together — on ordered and reversed input, and on random lengths.
func TestRadixSortU64(t *testing.T) {
	const maxU64 = ^uint64(0)
	rng := rand.New(rand.NewSource(3))
	check := func(name string, src []uint64) {
		t.Helper()
		want := slices.Clone(src)
		slices.Sort(want)
		orig := slices.Clone(src)
		dst, tmp := make([]uint64, len(src)), make([]uint64, len(src))
		RadixSortU64(dst, src, tmp)
		if !slices.Equal(dst, want) {
			t.Fatalf("%s n=%d: radix order differs from slices.Sort", name, len(src))
		}
		if !slices.Equal(src, orig) {
			t.Fatalf("%s n=%d: src was modified", name, len(src))
		}
	}
	gens := map[string]func(i int) uint64{
		"constant":  func(int) uint64 { return 0xabcdef0123456789 },
		"low-byte":  func(int) uint64 { return 0xabcdef0123456700 | uint64(rng.Intn(256)) },
		"top-byte":  func(int) uint64 { return uint64(rng.Intn(256))<<56 | 0x123456 },
		"two-bytes": func(int) uint64 { return uint64(rng.Intn(256))<<40 | uint64(rng.Intn(256))<<8 },
		"full":      func(int) uint64 { return rng.Uint64() },
		"extremes":  func(i int) uint64 { return []uint64{maxU64, 0, maxU64 - 1, 1}[i%4] },
		"sorted":    func(i int) uint64 { return uint64(i) * 0x0101010101 },
		"reversed":  func(i int) uint64 { return maxU64 - uint64(i)*0x0101010101 },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 3, 257, 5000} {
			src := make([]uint64, n)
			for i := range src {
				src[i] = gen(i)
			}
			check(name, src)
		}
	}
	for i := 0; i < 200; i++ {
		src := make([]uint64, 1+rng.Intn(1000))
		for j := range src {
			src[j] = rng.Uint64() >> uint(rng.Intn(64))
		}
		check("random", src)
	}
}
