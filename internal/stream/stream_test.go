package stream

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/workload"
)

// locator pins keys to PEs for redistribution tests.
type locator struct{ p int }

func (l locator) PE(key uint64) int { return int(hashing.Mix64(key) % uint64(l.p)) }

// chunksOf cuts xs into chunks of the given size (ragged last chunk
// whenever size does not divide the length).
func chunksOf[T any](xs []T, size int) [][]T {
	var out [][]T
	for len(xs) > 0 {
		n := size
		if n > len(xs) {
			n = len(xs)
		}
		out = append(out, xs[:n])
		xs = xs[n:]
	}
	return out
}

func sameWords(t *testing.T, label string, got, want core.CheckState) {
	t.Helper()
	gw, ww := got.Words(), want.Words()
	if len(gw) != len(ww) {
		t.Fatalf("%s: words length %d != %d", label, len(gw), len(ww))
	}
	for i := range gw {
		if gw[i] != ww[i] {
			t.Fatalf("%s: words[%d] = %#x, one-shot %#x", label, i, gw[i], ww[i])
		}
	}
	if got.LocalOK() != want.LocalOK() {
		t.Fatalf("%s: localOK %v != one-shot %v", label, got.LocalOK(), want.LocalOK())
	}
}

// TestChunkedSumBitIdentical sweeps checker hash families, bucket
// counts, sizes and ragged chunkings, asserting the chunked
// accumulate+merge residues are bit-identical to the one-shot state.
func TestChunkedSumBitIdentical(t *testing.T) {
	families := []hashing.Family{hashing.FamilyCRC, hashing.FamilyTab, hashing.FamilyMix}
	buckets := []int{16, 4}
	sizes := []int{1, 5, 4096, 9973} // pow2 boundary and non-pow2 with ragged tails
	chunks := []int{1, 37, 1000, 4096}
	for _, fam := range families {
		for _, d := range buckets {
			cfg := core.SumConfig{Iterations: 4, Buckets: d, RHatLog: 7, Family: fam}
			for _, n := range sizes {
				// Large values exercise the deferred-overflow folds that
				// chunked merging must keep congruent.
				input := workload.UniformPairs(n, 1<<62, ^uint64(0), 0xabc^uint64(n))
				output := workload.UniformPairs(n/2+1, 1<<62, ^uint64(0), 0xdef^uint64(n))
				for _, count := range []bool{false, true} {
					b := core.NewSumAggBuilder("s", cfg, 42, core.Serial, count)
					b.AddInput(input)
					b.AddOutput(output)
					oneShot := b.Seal()
					for _, chunk := range chunks {
						acc := NewSumAccumulator("s", cfg, 42, core.Serial, count)
						for _, c := range chunksOf(input, chunk) {
							acc.AddInputChunk(c)
						}
						for _, c := range chunksOf(output, chunk) {
							acc.AddOutputChunk(c)
						}
						label := cfg.Name() + " " + fam.Name
						sameWords(t, label, acc.Seal(), oneShot)
					}
				}
			}
		}
	}
}

// TestChunkedSortBitIdentical asserts the chunked sort partial —
// fingerprint plus boundary summary — matches the one-shot state for
// ragged chunkings, on both sorted and unsorted asserted outputs.
func TestChunkedSortBitIdentical(t *testing.T) {
	cfg := core.PermConfig{Iterations: 2}
	for _, n := range []int{0, 1, 513, 4096, 9973} {
		input := workload.UniformU64s(n, 1e9, uint64(n)+3)
		output := data.CloneU64s(input)
		data.SortU64(output)
		corrupt := data.CloneU64s(output)
		if n > 2 {
			corrupt[n/2], corrupt[n/2+1] = corrupt[n/2+1], corrupt[n/2] // local disorder
		}
		for _, out := range [][]uint64{output, corrupt} {
			oneShot := core.NewSortedState("s", cfg, 7, [][]uint64{input}, out)
			for _, chunk := range []int{1, 100, 1024} {
				acc := NewSortAccumulator("s", cfg, 7)
				for _, c := range chunksOf(input, chunk) {
					acc.AddInputChunk(c)
				}
				for _, c := range chunksOf(out, chunk) {
					acc.AddOutputChunk(c)
				}
				sameWords(t, "sorted", acc.Seal(), oneShot)
			}
		}
	}
}

// TestChunkedPermAndRedistBitIdentical covers the remaining two
// families: plain permutation fingerprints and the redistribution
// checker with its chunked placement scan.
func TestChunkedPermAndRedistBitIdentical(t *testing.T) {
	cfg := core.PermConfig{Iterations: 3}
	n := 9973
	xs := workload.UniformU64s(n, 1e9, 11)
	ys := data.CloneU64s(xs)
	ys[n-1]++ // not a permutation; residues must match one-shot anyway
	oneShot := core.NewPermState("s", cfg, 5, [][]uint64{xs}, ys)
	for _, chunk := range []int{1, 250, 5000} {
		acc := NewPermAccumulator("s", cfg, 5)
		for _, c := range chunksOf(xs, chunk) {
			acc.AddInputChunk(c)
		}
		for _, c := range chunksOf(ys, chunk) {
			acc.AddOutputChunk(c)
		}
		sameWords(t, "perm", acc.Seal(), oneShot)
	}

	loc := locator{p: 4}
	rank := 2
	before := workload.UniformPairs(n, 1e6, 1e9, 13)
	var after []data.Pair
	for _, pr := range before {
		if loc.PE(pr.Key) == rank {
			after = append(after, pr)
		}
	}
	// One stray pair violates placement: LocalOK must be false in both
	// chunked and one-shot forms.
	for _, stray := range []bool{false, true} {
		a := after
		if stray {
			a = append(data.ClonePairs(after), data.Pair{Key: 1, Value: 1})
			for loc.PE(a[len(a)-1].Key) == rank {
				a[len(a)-1].Key++
			}
		}
		oneShot := core.NewRedistState("s", cfg, 5, loc, rank, before, a)
		for _, chunk := range []int{1, 777} {
			acc := NewRedistAccumulator("s", cfg, 5, loc, rank)
			for _, c := range chunksOf(before, chunk) {
				acc.AddInputChunk(c)
			}
			for _, c := range chunksOf(a, chunk) {
				acc.AddOutputChunk(c)
			}
			sameWords(t, "redist", acc.Seal(), oneShot)
		}
	}
}

// TestSources exercises the slice adapters: same data, in windows of at
// most the chunk size, one window for a non-positive chunk.
func TestSources(t *testing.T) {
	ps := workload.UniformPairs(1000, 1e6, 1e6, 29)
	for _, tc := range []struct{ chunk, chunks int }{{64, 16}, {1000, 1}, {0, 1}} {
		var got []data.Pair
		chunks := 0
		if err := Drain(SlicePairs(ps, tc.chunk), func(c []data.Pair) {
			chunks++
			got = append(got, c...)
		}); err != nil {
			t.Fatal(err)
		}
		if chunks != tc.chunks || !slices.Equal(got, ps) {
			t.Fatalf("chunk %d: %d chunks of %d elements, want %d chunks of the %d input pairs in order", tc.chunk, chunks, len(got), tc.chunks, len(ps))
		}
	}
	xs := workload.UniformU64s(100, 1e6, 31)
	var got []uint64
	if err := Drain(SliceSeq(xs, 7), func(c []uint64) { got = append(got, c...) }); err != nil || !slices.Equal(got, xs) {
		t.Fatalf("SliceSeq yielded %d of %d words (%v)", len(got), len(xs), err)
	}
}

// errSource checks that a failing source surfaces its error from the
// drain loop.
type errSource struct{ n int }

var errBoom = errors.New("boom")

func (s *errSource) Next() ([]uint64, error) {
	if s.n == 0 {
		return nil, errBoom
	}
	s.n--
	return []uint64{1, 2, 3}, nil
}

func TestSourceErrorPropagates(t *testing.T) {
	acc := NewPermAccumulator("s", core.PermConfig{Iterations: 1}, 1)
	if err := acc.DrainInput(&errSource{n: 2}); !errors.Is(err, errBoom) {
		t.Fatalf("drain error = %v, want errBoom", err)
	}
	if acc.In.Chunks != 2 || acc.In.Elements != 6 {
		t.Fatalf("meter before error wrong: %+v", acc.In)
	}
}
