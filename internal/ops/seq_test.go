package ops

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/workload"
)

// The sequence data plane the kernel replaced, kept as the oracle:
// sort locally, pick splitters from the sorted share, cut it into
// ranges, exchange word slices, merge the runs received; Zip with
// append-grown parts over a dense all-to-all; Union as the local
// concatenation that is its contract.

func oracleSort(w *dist.Worker, local []uint64) ([]uint64, error) {
	mine := data.CloneU64s(local)
	data.SortU64(mine)
	p := w.Size()
	if p == 1 {
		return mine, nil
	}
	splitters, err := oraclePickSplitters(w, mine)
	if err != nil {
		return nil, err
	}
	got, err := w.Coll.AllToAll(partitionByRange(mine, splitters, p))
	if err != nil {
		return nil, err
	}
	return mergeRuns(got), nil
}

func oraclePickSplitters(w *dist.Worker, sorted []uint64) ([]uint64, error) {
	p := w.Size()
	sample := make([]uint64, 0, oversample)
	for i := 0; i < oversample && len(sorted) > 0; i++ {
		sample = append(sample, sorted[i*len(sorted)/oversample])
	}
	parts, err := w.Coll.AllGather(sample)
	if err != nil {
		return nil, err
	}
	var all []uint64
	for _, ws := range parts {
		all = append(all, ws...)
	}
	data.SortU64(all)
	splitters := make([]uint64, 0, p-1)
	for i := 1; i < p; i++ {
		if len(all) == 0 {
			splitters = append(splitters, 0)
			continue
		}
		splitters = append(splitters, all[i*len(all)/p])
	}
	return splitters, nil
}

// partitionByRange splits a sorted slice into p contiguous ranges
// bounded by the splitters: part j holds elements x with
// splitters[j-1] <= x < splitters[j].
func partitionByRange(sorted []uint64, splitters []uint64, p int) [][]uint64 {
	parts := make([][]uint64, p)
	start := 0
	for j := 0; j < p-1; j++ {
		end := start + sort.Search(len(sorted)-start, func(i int) bool {
			return sorted[start+i] >= splitters[j]
		})
		parts[j] = sorted[start:end]
		start = end
	}
	parts[p-1] = sorted[start:]
	return parts
}

func mergeRuns(runs [][]uint64) []uint64 {
	var out []uint64
	for _, r := range runs {
		out = mergeTwo(out, r)
	}
	return out
}

func mergeTwo(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func oracleMerge(w *dist.Worker, a, b []uint64) ([]uint64, error) {
	p := w.Size()
	a, b = data.CloneU64s(a), data.CloneU64s(b)
	data.SortU64(a)
	data.SortU64(b)
	if p == 1 {
		return mergeTwo(a, b), nil
	}
	both := append(data.CloneU64s(a), b...)
	data.SortU64(both)
	splitters, err := oraclePickSplitters(w, both)
	if err != nil {
		return nil, err
	}
	gotA, err := w.Coll.AllToAll(partitionByRange(a, splitters, p))
	if err != nil {
		return nil, err
	}
	gotB, err := w.Coll.AllToAll(partitionByRange(b, splitters, p))
	if err != nil {
		return nil, err
	}
	return mergeTwo(mergeRuns(gotA), mergeRuns(gotB)), nil
}

func oracleOffsets(w *dist.Worker, n int) (start, total uint64, starts []uint64, err error) {
	parts, err := w.Coll.AllGather([]uint64{uint64(n)})
	if err != nil {
		return 0, 0, nil, err
	}
	starts = make([]uint64, w.Size())
	var acc uint64
	for r := 0; r < w.Size(); r++ {
		starts[r] = acc
		acc += parts[r][0]
	}
	return starts[w.Rank()], acc, starts, nil
}

func oracleZip(w *dist.Worker, a, b []uint64) ([]data.Pair, error) {
	_, aTotal, aStarts, err := oracleOffsets(w, len(a))
	if err != nil {
		return nil, err
	}
	bStart, bTotal, _, err := oracleOffsets(w, len(b))
	if err != nil {
		return nil, err
	}
	if aTotal != bTotal {
		return nil, fmt.Errorf("ops: Zip length mismatch: %d vs %d", aTotal, bTotal)
	}
	p := w.Size()
	aEnd := func(r int) uint64 {
		if r+1 < p {
			return aStarts[r+1]
		}
		return aTotal
	}
	parts := make([][]uint64, p)
	dst := 0
	for i, x := range b {
		g := bStart + uint64(i)
		for dst < p-1 && g >= aEnd(dst) {
			dst++
		}
		parts[dst] = append(parts[dst], x)
	}
	got, err := w.Coll.AllToAll(parts)
	if err != nil {
		return nil, err
	}
	matched := make([]uint64, 0, len(a))
	for _, ws := range got {
		matched = append(matched, ws...)
	}
	if len(matched) != len(a) {
		return nil, fmt.Errorf("ops: Zip redistribution produced %d elements for %d slots", len(matched), len(a))
	}
	out := make([]data.Pair, len(a))
	for i := range a {
		out[i] = data.Pair{Key: a[i], Value: matched[i]}
	}
	return out, nil
}

// oracleUnion is Thrill's local Union: PE i holds a_i followed by b_i.
func oracleUnion(_ *dist.Worker, a, b []uint64) ([]uint64, error) {
	return append(append([]uint64(nil), a...), b...), nil
}

// TestSeqPlaneMatchesOracle holds the sequence operations to the
// implementation they replaced over the edge shapes, PE counts and
// transports. Sort and Merge choose their splitters from a different
// sample, so their shares are compared as one globally sorted
// sequence, with the boundaries between PEs in order; Union and Zip
// are compared share by share. The second input of the binary
// operations is the same shape shifted by one PE: equal in total,
// distributed differently.
func TestSeqPlaneMatchesOracle(t *testing.T) {
	type seqOp func(w *dist.Worker, a, b []uint64) ([]uint64, error)
	seqOps := []struct {
		name       string
		op, oracle seqOp
		// sorts is set for the operations whose shares are one sorted
		// sequence, cut wherever the splitters fell.
		sorts bool
	}{
		{"Sort", func(w *dist.Worker, a, _ []uint64) ([]uint64, error) { return Sort(w, a) },
			func(w *dist.Worker, a, _ []uint64) ([]uint64, error) { return oracleSort(w, a) }, true},
		{"Merge", Merge, oracleMerge, true},
		{"Union", Union, oracleUnion, false},
	}
	balanced := []string{"uniform", "presorted", "periodic"}
	for _, transport := range []dist.Transport{dist.TransportMem, dist.TransportTCP} {
		for _, p := range []int{1, 2, 3, 5, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", transport, p), func(t *testing.T) {
				shapes := workload.EdgeSeqShares(p, uint64(300+p))
				// Outputs indexed [op][shape][rank]; each rank writes its own column.
				newOutputs := func() [][][][]uint64 {
					o := make([][][][]uint64, len(seqOps))
					for i := range o {
						o[i] = make([][][]uint64, len(shapes))
						for s := range o[i] {
							o[i][s] = make([][]uint64, p)
						}
					}
					return o
				}
				got, want := newOutputs(), newOutputs()
				err := dist.RunConfig(dist.Config{Transport: transport}, p, 5, func(w *dist.Worker) error {
					r := w.Rank()
					for s, shape := range shapes {
						a, b := shape.Shares[r], shape.Shares[(r+1)%p]
						beforeA, beforeB := slices.Clone(a), slices.Clone(b)
						for i, c := range seqOps {
							var err error
							if got[i][s][r], err = c.op(w, a, b); err != nil {
								return fmt.Errorf("%s: %s: %w", shape.Name, c.name, err)
							}
							if want[i][s][r], err = c.oracle(w, a, b); err != nil {
								return fmt.Errorf("%s: oracle %s: %w", shape.Name, c.name, err)
							}
						}
						zipped, err := Zip(w, a, b)
						if err != nil {
							return fmt.Errorf("%s: Zip: %w", shape.Name, err)
						}
						wantZipped, err := oracleZip(w, a, b)
						if err != nil {
							return fmt.Errorf("%s: oracle Zip: %w", shape.Name, err)
						}
						if !slices.Equal(zipped, wantZipped) {
							t.Errorf("%s: Zip on PE %d = %v, want %v", shape.Name, r, zipped, wantZipped)
						}
						if !slices.Equal(a, beforeA) || !slices.Equal(b, beforeB) {
							t.Errorf("%s: PE %d's input was modified", shape.Name, r)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, c := range seqOps {
					for s, shape := range shapes {
						got, want := got[i][s], want[i][s]
						if !c.sorts {
							for r := range got {
								if !slices.Equal(got[r], want[r]) {
									t.Errorf("%s: %s on PE %d = %v, want %v", shape.Name, c.name, r, got[r], want[r])
								}
							}
							continue
						}
						all := slices.Concat(got...)
						if wantAll := slices.Concat(want...); !slices.Equal(all, wantAll) {
							t.Errorf("%s: %s shares concatenate to %v, want %v", shape.Name, c.name, all, wantAll)
						}
						last := uint64(0)
						for r, share := range got {
							if !slices.IsSorted(share) || (len(share) > 0 && share[0] < last) {
								t.Errorf("%s: %s share of PE %d is not sorted after PE %d's", shape.Name, c.name, r, r-1)
							}
							if len(share) > 0 {
								last = share[len(share)-1]
							}
							if slices.Contains(balanced, shape.Name) && len(share) > 3*len(all)/p {
								t.Errorf("%s: %s gave PE %d %d of %d elements, more than 3n/p", shape.Name, c.name, r, len(share), len(all))
							}
						}
					}
				}
			})
		}
	}
}

// TestClassifyCountsSplittersAtOrBelow pins the range rule: an element
// goes to the part numbered by how many splitters are <= it, also when
// splitters repeat.
func TestClassifyCountsSplittersAtOrBelow(t *testing.T) {
	const maxU64 = ^uint64(0)
	for _, splitters := range [][]uint64{nil, {5}, {0}, {maxU64}, {3, 3}, {0, 0, 7}, {1, 4, 4, 4, 9, maxU64}, {2, 4, 6, 8, 10, 12, 14}} {
		for _, x := range []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14, 15, maxU64 - 1, maxU64} {
			want := 0
			for _, s := range splitters {
				if x >= s {
					want++
				}
			}
			if got := classify(splitters, x); got != want {
				t.Errorf("classify(%v, %d) = %d, want %d", splitters, x, got, want)
			}
		}
	}
}

// TestBadSeqPayloadIsRejected sends a PE a payload that is not whole
// words: each sequence operation that receives must fail with
// ErrBadSeqPayload naming the source, not truncate. Union receives
// nothing, so it has no row.
func TestBadSeqPayloadIsRejected(t *testing.T) {
	local := []uint64{1, 2, 3}
	seqOps := []struct {
		name string
		// gathered is what the peer contributes to each all-gather the
		// operation starts before its all-to-all, so that it keeps step:
		// Zip gathers both sequence lengths at once.
		gathered [][]uint64
		// from is the peer's receive pattern in the all-to-all: nil for
		// the dense exchange, none for Zip's sparse one.
		from []bool
		run  func(w *dist.Worker) error
	}{
		{"Sort", [][]uint64{{3}}, nil, func(w *dist.Worker) error { _, err := Sort(w, local); return err }},
		{"Merge", [][]uint64{{3}}, nil, func(w *dist.Worker) error { _, err := Merge(w, local, local); return err }},
		// PE 0 holds a = [0, 3) and b = [0, 1) of the global indices, the
		// peer a = [3, 4) and b = [1, 4): PE 0 expects the peer's stretch
		// [1, 3) of b and sends it nothing.
		{"Zip", [][]uint64{{1, 3}}, []bool{false, false}, func(w *dist.Worker) error { _, err := Zip(w, local, local[:1]); return err }},
	}
	for _, op := range seqOps {
		var got error
		err := dist.RunConfig(dist.Config{}, 2, 3, func(w *dist.Worker) error {
			if w.Rank() == 0 {
				got = op.run(w)
				return nil
			}
			for _, words := range op.gathered {
				if _, err := w.Coll.AllGather(words); err != nil {
					return err
				}
			}
			_, err := w.Coll.AllToAllBytes([][]byte{make([]byte, 3*wordBytes+5), nil}, op.from)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(got, ErrBadSeqPayload) || !strings.Contains(got.Error(), "PE 1") {
			t.Errorf("%s on a 29-byte payload from PE 1 returned %v, want ErrBadSeqPayload naming PE 1", op.name, got)
		}
	}
}

// FuzzSeqPayload feeds the receive path bytes a peer controls: a
// payload is rejected with ErrBadSeqPayload or decodes to words that
// the send path encodes back to the same bytes and that Sort returns
// in order; it never panics.
func FuzzSeqPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, wordBytes))
	f.Add(bytes.Repeat([]byte{0xff}, 2*wordBytes))
	f.Add(make([]byte, wordBytes+4))
	f.Add([]byte{1, 2, 3})
	w := soloWorker(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		err := checkPayload(0, b, wordBytes, ErrBadSeqPayload)
		if len(b)%wordBytes != 0 {
			if !errors.Is(err, ErrBadSeqPayload) {
				t.Fatalf("%d bytes: got %v, want ErrBadSeqPayload", len(b), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%d bytes of whole words rejected: %v", len(b), err)
		}
		xs := appendWords(nil, b)
		back := make([]byte, len(b))
		putWords(back, xs)
		if !bytes.Equal(back, b) {
			t.Fatalf("round trip changed the payload: %x -> %x", b, back)
		}
		sorted, err := Sort(w, xs)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(xs)
		slices.Sort(want)
		if !slices.Equal(sorted, want) {
			t.Fatalf("Sort of %v = %v, want %v", xs, sorted, want)
		}
	})
}
