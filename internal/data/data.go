// Package data defines the element types shared by the distributed
// operations and the checkers: fixed-size machine-word elements (uint64)
// and (key, value) pairs, matching the paper's model of n fixed-size
// elements (Section 2).
package data

import (
	"cmp"
	"slices"
)

// Pair is a (key, value) record, the unit of all aggregation operations.
type Pair struct {
	Key   uint64
	Value uint64
}

// Triple is a (key, value, count) record used by average aggregation
// (Section 6.1): averages are computed as a sum lane plus a count lane.
type Triple struct {
	Key   uint64
	Value uint64
	Count uint64
}

// ClonePairs returns a deep copy of ps.
func ClonePairs(ps []Pair) []Pair {
	out := make([]Pair, len(ps))
	copy(out, ps)
	return out
}

// CloneU64s returns a deep copy of xs.
func CloneU64s(xs []uint64) []uint64 {
	out := make([]uint64, len(xs))
	copy(out, xs)
	return out
}

// IsSortedU64 reports whether xs is non-decreasing.
func IsSortedU64(xs []uint64) bool { return slices.IsSorted(xs) }

// SortU64 sorts xs in place in non-decreasing order.
func SortU64(xs []uint64) { slices.Sort(xs) }

// SortPairsByKey sorts ps in place by key (ties by value, for
// determinism).
func SortPairsByKey(ps []Pair) {
	slices.SortFunc(ps, func(a, b Pair) int {
		if c := cmp.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return cmp.Compare(a.Value, b.Value)
	})
}

// RadixSortPairsByKey writes the pairs of src to dst in non-decreasing
// key order with a least-significant-byte-first radix sort: one pass
// over src histograms all eight key bytes, and only the bytes that
// differ between keys cost a scatter pass. The sort is stable — pairs
// with equal keys keep their order in src — so on distinct keys it
// agrees with SortPairsByKey. dst and tmp must have the length of src
// and none of the three may overlap; src is only read, tmp is scratch.
func RadixSortPairsByKey(dst, src, tmp []Pair) {
	if len(src) == 0 {
		return
	}
	var hist [8][256]int
	for _, p := range src {
		for b := range hist {
			hist[b][byte(p.Key>>(8*b))]++
		}
	}
	var varying [8]int
	passes := varying[:0]
	for b := range hist {
		if hist[b][byte(src[0].Key>>(8*b))] != len(src) {
			passes = append(passes, b)
		}
	}
	if len(passes) == 0 {
		copy(dst, src)
		return
	}
	// The passes alternate between dst and tmp so that the last lands
	// in dst.
	from, to, other := src, dst, tmp
	if len(passes)%2 == 0 {
		to, other = tmp, dst
	}
	for _, b := range passes {
		offs := &hist[b]
		sum := 0
		for i, n := range offs {
			offs[i] = sum
			sum += n
		}
		for _, p := range from {
			c := byte(p.Key >> (8 * b))
			to[offs[c]] = p
			offs[c]++
		}
		from, to, other = to, other, to
	}
}

// RadixSortU64 writes the values of src to dst in non-decreasing order,
// the word twin of RadixSortPairsByKey: one pass over src histograms
// all eight bytes, and only the bytes that differ between values cost a
// scatter pass. dst and tmp must have the length of src and none of the
// three may overlap; src is only read, tmp is scratch.
func RadixSortU64(dst, src, tmp []uint64) {
	if len(src) == 0 {
		return
	}
	var hist [8][256]int
	// Written out byte by byte: with constant shifts and rows the pass
	// costs a third of the loop over b.
	for _, x := range src {
		hist[0][byte(x)]++
		hist[1][byte(x>>8)]++
		hist[2][byte(x>>16)]++
		hist[3][byte(x>>24)]++
		hist[4][byte(x>>32)]++
		hist[5][byte(x>>40)]++
		hist[6][byte(x>>48)]++
		hist[7][byte(x>>56)]++
	}
	var varying [8]int
	passes := varying[:0]
	for b := range hist {
		if hist[b][byte(src[0]>>(8*b))] != len(src) {
			passes = append(passes, b)
		}
	}
	if len(passes) == 0 {
		copy(dst, src)
		return
	}
	// The passes alternate between dst and tmp so that the last lands
	// in dst.
	from, to, other := src, dst, tmp
	if len(passes)%2 == 0 {
		to, other = tmp, dst
	}
	for _, b := range passes {
		offs := &hist[b]
		sum := 0
		for i, n := range offs {
			offs[i] = sum
			sum += n
		}
		for _, x := range from {
			c := byte(x >> (8 * b))
			to[offs[c]] = x
			offs[c]++
		}
		from, to, other = to, other, to
	}
}

// PairsToMapSum folds ps into a key -> sum-of-values map using wrapping
// uint64 addition. It is the sequential reference for sum aggregation.
func PairsToMapSum(ps []Pair) map[uint64]uint64 {
	m := make(map[uint64]uint64)
	for _, p := range ps {
		m[p.Key] += p.Value
	}
	return m
}

// MapToPairs converts m into pairs sorted by key.
func MapToPairs(m map[uint64]uint64) []Pair {
	out := make([]Pair, 0, len(m))
	for k, v := range m {
		out = append(out, Pair{Key: k, Value: v})
	}
	SortPairsByKey(out)
	return out
}

// SplitEven partitions n items over p parts as evenly as possible and
// returns the [start, end) range of part i. The first n%p parts receive
// one extra item, matching the O(n/p) balanced distribution the paper
// assumes.
func SplitEven(n, p, i int) (start, end int) {
	base := n / p
	rem := n % p
	start = i*base + min(i, rem)
	end = start + base
	if i < rem {
		end++
	}
	return start, end
}
