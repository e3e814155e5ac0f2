package ops

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
)

// oversample is the number of splitter candidates each PE contributes.
const oversample = 16

// Sort globally sorts a distributed sequence with sample sort: splitter
// selection from an all-gathered sample of the unsorted shares, range
// partition all-to-all, one local radix sort of what arrives. On
// return, each PE's share is sorted and all of PE i's elements precede
// PE i+1's. Where the boundaries between PEs fall depends on the sample
// and is not part of the contract.
func Sort(w *dist.Worker, local []uint64) ([]uint64, error) {
	return sampleSort(w, local, nil)
}

// Merge combines two distributed sequences into one globally sorted
// sequence holding every element of both (Section 6.5.2). It is Sort
// over the two inputs — one splitter set, one exchange, one radix sort
// — so it does not need the shares to arrive sorted.
func Merge(w *dist.Worker, a, b []uint64) ([]uint64, error) {
	return sampleSort(w, a, b)
}

// sampleSort sorts the sequence whose local share is a followed by b.
// Every element is classified against the splitters once, written onto
// the wire once, and sorted once, at the PE that keeps it; the result
// is the only allocation of a warmed call.
func sampleSort(w *dist.Worker, a, b []uint64) ([]uint64, error) {
	splitters, err := pickSplitters(w, a, b)
	if err != nil {
		return nil, err
	}
	k := getKernel()
	defer k.release()
	k.stage(w.Size())
	k.dest = grow(k.dest, len(a)+len(b))
	inputs := [2][]uint64{a, b}
	dest := k.dest
	for _, xs := range inputs {
		for i, x := range xs {
			d := classify(splitters, x)
			dest[i] = int32(d)
			k.offs[d]++
		}
		dest = dest[len(xs):]
	}
	k.open(wordBytes)
	dest = k.dest
	for _, xs := range inputs {
		for i, x := range xs {
			d := dest[i]
			binary.LittleEndian.PutUint64(k.parts[d][k.offs[d]:], x)
			k.offs[d] += wordBytes
		}
		dest = dest[len(xs):]
	}
	got, n, err := k.swap(w, nil, wordBytes, ErrBadSeqPayload)
	if err != nil {
		return nil, err
	}
	k.words = grow(k.words, n)[:0]
	for _, payload := range got {
		k.words = appendWords(k.words, payload)
	}
	putPayloads(got)
	out := make([]uint64, n)
	k.wtmp = grow(k.wtmp, n)
	data.RadixSortU64(out, k.words, k.wtmp)
	return out, nil
}

// classify returns the part of x: the number of splitters s with
// x >= s, found by binary search, so that part j holds the elements
// with splitters[j-1] <= x < splitters[j].
func classify(splitters []uint64, x uint64) int {
	lo, n := 0, len(splitters)
	for n > 0 {
		half := (n + 1) / 2
		// less is 1 when x < the probed splitter, and the step is taken
		// when it is 0; a borrow, not a branch the data would make
		// unpredictable.
		_, less := bits.Sub64(x, splitters[lo+half-1], 0)
		lo += half & (int(less) - 1)
		n -= half
	}
	return lo
}

// pickSplitters all-gathers a sample of each PE's share — a followed by
// b, in whatever order it is in — and returns the p-1 global quantile
// splitters. The sample is stratified: one position from each of
// oversample equal stretches of the share, offset inside its stretch by
// a hash of (length, rank, stretch). It is a pure function of the call,
// consumes no worker randomness, and its positions have no common
// period for periodic input to fall in step with.
func pickSplitters(w *dist.Worker, a, b []uint64) ([]uint64, error) {
	p, n := w.Size(), len(a)+len(b)
	if p == 1 {
		return nil, nil
	}
	sample := make([]uint64, 0, oversample)
	seed := hashing.Mix64(hashing.Mix64(uint64(n)) + uint64(w.Rank()))
	for i := 0; i < oversample && n > 0; i++ {
		lo, hi := i*n/oversample, (i+1)*n/oversample
		if hi > lo {
			lo += int(hashing.Mix64(seed+uint64(i)) % uint64(hi-lo))
		}
		if lo < len(a) {
			sample = append(sample, a[lo])
		} else {
			sample = append(sample, b[lo-len(a)])
		}
	}
	parts, err := w.Coll.AllGather(sample)
	if err != nil {
		return nil, err
	}
	all := make([]uint64, 0, oversample*p)
	for _, ws := range parts {
		all = append(all, ws...)
	}
	data.SortU64(all)
	splitters := make([]uint64, p-1)
	for i := range splitters {
		if len(all) > 0 {
			splitters[i] = all[(i+1)*len(all)/p]
		}
	}
	return splitters, nil
}
