package stream

import (
	"errors"
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
	cfg := core.PermConfig{Family: hashing.FamilyTab, LogH: 32, Iterations: 2}
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
	cfg := core.PermConfig{Family: hashing.FamilyCRC, LogH: 16, Iterations: 3}
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

// TestSources exercises the three source kinds: same data, correct
// chunk geometry, buffer reuse in the generator.
func TestSources(t *testing.T) {
	ps := workload.UniformPairs(1000, 1e6, 1e6, 29)

	var fromSlice []data.Pair
	if err := Drain(SlicePairs(ps, 64), func(c []data.Pair) {
		fromSlice = append(fromSlice, c...)
	}); err != nil {
		t.Fatal(err)
	}
	if len(fromSlice) != 1000 {
		t.Fatalf("slice source yielded %d elements", len(fromSlice))
	}

	ch := make(chan []data.Pair)
	go func() {
		for _, c := range chunksOf(ps, 100) {
			ch <- c
		}
		close(ch)
	}()
	var fromChan []data.Pair
	if err := Drain(ChanPairs(ch), func(c []data.Pair) {
		fromChan = append(fromChan, c...)
	}); err != nil {
		t.Fatal(err)
	}

	gen := GenPairs(1000, 64, func(i int) data.Pair { return ps[i] })
	var fromGen []data.Pair
	chunks := 0
	if err := Drain(gen, func(c []data.Pair) {
		chunks++
		fromGen = append(fromGen, c...)
	}); err != nil {
		t.Fatal(err)
	}
	if chunks != 16 { // ceil(1000/64)
		t.Fatalf("generator yielded %d chunks, want 16", chunks)
	}
	for i := range ps {
		if fromSlice[i] != ps[i] || fromChan[i] != ps[i] || fromGen[i] != ps[i] {
			t.Fatalf("sources disagree at %d", i)
		}
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
	acc := NewPermAccumulator("s", core.PermConfig{Family: hashing.FamilyCRC, LogH: 8, Iterations: 1}, 1)
	if err := acc.DrainInput(&errSource{n: 2}); !errors.Is(err, errBoom) {
		t.Fatalf("drain error = %v, want errBoom", err)
	}
	if acc.In.Chunks != 2 || acc.In.Elements != 6 {
		t.Fatalf("meter before error wrong: %+v", acc.In)
	}
}
