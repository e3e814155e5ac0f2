package ops

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/data"
	"repro/internal/dist"
)

// globalOffsets returns, for two sequences of which this PE holds na
// and nb elements, the starting global index of every PE's share of
// each; aStarts[p] and bStarts[p] are the global totals. One all-gather
// of two words per PE serves both sequences.
func globalOffsets(w *dist.Worker, na, nb int) (aStarts, bStarts []uint64, err error) {
	parts, err := w.Coll.AllGather([]uint64{uint64(na), uint64(nb)})
	if err != nil {
		return nil, nil, err
	}
	p := w.Size()
	starts := make([]uint64, 2*(p+1))
	aStarts, bStarts = starts[:p+1], starts[p+1:]
	for r, part := range parts {
		if len(part) != 2 {
			return nil, nil, fmt.Errorf("ops: PE %d sent %d sequence lengths, want 2", r, len(part))
		}
		aStarts[r+1] = aStarts[r] + part[0]
		bStarts[r+1] = bStarts[r] + part[1]
	}
	return aStarts, bStarts, nil
}

// overlap returns the local index range [i, j) of the elements of a
// share holding the global indices [start, start+n) that fall inside
// the global range [lo, hi).
func overlap(start uint64, n int, lo, hi uint64) (i, j int) {
	end := start + uint64(n)
	return int(min(max(lo, start), end) - start), int(min(max(hi, start), end) - start)
}

// Zip pairs two distributed sequences index-wise (Section 6.4). The
// sequences may be distributed differently; the second is redistributed
// to match the first. PE i returns pairs for its share of the first
// sequence, in order.
func Zip(w *dist.Worker, a, b []uint64) ([]data.Pair, error) {
	p, rank := w.Size(), w.Rank()
	aStarts, bStarts, err := globalOffsets(w, len(a), len(b))
	if err != nil {
		return nil, err
	}
	if aStarts[p] != bStarts[p] {
		return nil, fmt.Errorf("ops: Zip length mismatch: %d vs %d", aStarts[p], bStarts[p])
	}
	// PE d owns the global indices of its share of a, so it is sent
	// the stretch of the local b that overlaps them, if any. Every PE
	// derives the same pattern, so a PE expects a part only from the
	// PEs whose share of b overlaps its share of a.
	k := getKernel()
	defer k.release()
	k.stage(p)
	k.from = grow(k.from, p)
	for d := 0; d < p; d++ {
		i, j := overlap(bStarts[rank], len(b), aStarts[d], aStarts[d+1])
		putWords(k.part(d, (j-i)*wordBytes), b[i:j])
		k.from[d] = max(bStarts[d], aStarts[rank]) < min(bStarts[d+1], aStarts[rank+1])
	}
	got, n, err := k.swap(w, k.from, wordBytes, ErrBadSeqPayload)
	if err != nil {
		return nil, err
	}
	if n != len(a) {
		return nil, fmt.Errorf("ops: Zip redistribution produced %d elements for %d slots", n, len(a))
	}
	// Sources arrive in rank order, which for contiguous b shares is
	// also global-index order.
	out := make([]data.Pair, 0, len(a))
	for _, payload := range got {
		for ; len(payload) >= wordBytes; payload = payload[wordBytes:] {
			out = append(out, data.Pair{Key: a[len(out)], Value: binary.LittleEndian.Uint64(payload)})
		}
	}
	putPayloads(got)
	return out, nil
}

// Union combines two distributed sequences into one holding every
// element of both (a multiset union). Like Thrill's Union it is local:
// PE i returns its share of a followed by its share of b, and nothing
// is sent. Rebalancing is a separate operation (Thrill's Concat). The
// checker (Corollary 12) verifies a permutation of the concatenation
// wherever the elements sit.
func Union(_ *dist.Worker, a, b []uint64) ([]uint64, error) {
	return slices.Concat(a, b), nil
}
