package repro_test

import (
	"errors"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ops"
	"repro/internal/stream"
)

// The acceptance scenario of the streaming subsystem: checked sum
// aggregation and checked sort verified over generator-backed sources
// whose total element count exceeds any single resident chunk by >=
// 100x — clean runs pass, a corrupted chunk is detected, chunked
// residues are bit-identical to the one-shot path, and CheckStats
// reports chunk counts and the peak resident footprint.

const (
	streamN     = 300_000 // elements per PE
	streamChunk = 3_000   // resident chunk: N/chunk = 100x
	streamKeys  = 1_000
)

// streamVal is the deterministic test payload of global element (r, i).
func streamVal(r, i int) uint64 {
	return (uint64(r*streamN+i) * 2654435761) % (1 << 30)
}

// genSource yields n generated elements in chunks of one reused buffer,
// so the resident footprint is one chunk however large n is. It is how
// a producer outside memory implements PairSource or SeqSource.
type genSource[T any] struct {
	n, next int
	buf     []T
	gen     func(i int) T
}

// generate yields gen(0), ..., gen(n-1) in chunks of the given size.
func generate[T any](n, chunk int, gen func(i int) T) *genSource[T] {
	return &genSource[T]{n: n, buf: make([]T, chunk), gen: gen}
}

func (s *genSource[T]) Next() ([]T, error) {
	c := min(len(s.buf), s.n-s.next)
	for i := range c {
		s.buf[i] = s.gen(s.next + i)
	}
	s.next += c
	return s.buf[:c], nil
}

// sumInput yields PE r's input share chunk by chunk; corrupt flips one
// value in chunk 57 of PE 1's stream.
func sumInput(r int, corrupt bool) repro.PairSource {
	return generate(streamN, streamChunk, func(i int) repro.Pair {
		v := streamVal(r, i)
		if corrupt && r == 1 && i == 57*streamChunk+123 {
			v++
		}
		return repro.Pair{Key: uint64(i % streamKeys), Value: v}
	})
}

// sumOutputs computes the correct per-key sums over all PEs and deals
// them out round-robin: PE r holds the keys with k % p == r.
func sumOutputs(p int) [][]repro.Pair {
	sums := make([]uint64, streamKeys)
	for r := 0; r < p; r++ {
		for i := 0; i < streamN; i++ {
			sums[i%streamKeys] += streamVal(r, i)
		}
	}
	out := make([][]repro.Pair, p)
	for k, s := range sums {
		out[k%p] = append(out[k%p], repro.Pair{Key: uint64(k), Value: s})
	}
	return out
}

func TestStreamSumLargerThanRAM(t *testing.T) {
	const p = 2
	outs := sumOutputs(p)
	stats := make([]repro.CheckStats, p)
	err := repro.Run(p, 42, func(w *repro.Worker) error {
		ctx, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		if err := ctx.StreamPairs(sumInput(w.Rank(), false)).AssertSum(repro.SlicePairs(outs[w.Rank()], 64)); err != nil {
			return err
		}
		stats[w.Rank()] = ctx.Stats()[0]
		return nil
	})
	if err != nil {
		t.Fatalf("clean streamed sum rejected: %v", err)
	}
	outChunks := (len(outs[0]) + 63) / 64
	for r, st := range stats {
		if st.Verdict != repro.VerdictPass {
			t.Errorf("rank %d verdict %v", r, st.Verdict)
		}
		if st.Chunks != streamN/streamChunk+outChunks {
			t.Errorf("rank %d chunks = %d, want %d", r, st.Chunks, streamN/streamChunk+outChunks)
		}
		if st.PeakResident != streamChunk {
			t.Errorf("rank %d peak resident = %d, want %d", r, st.PeakResident, streamChunk)
		}
		if st.ElementsIn != streamN || st.ElementsOut != len(outs[r]) {
			t.Errorf("rank %d element counts %d/%d", r, st.ElementsIn, st.ElementsOut)
		}
	}

	// One flipped value inside one chunk of one PE's stream must be
	// detected.
	err = repro.Run(p, 42, func(w *repro.Worker) error {
		ctx, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		return ctx.StreamPairs(sumInput(w.Rank(), true)).AssertSum(repro.SlicePairs(outs[w.Rank()], 64))
	})
	if !errors.Is(err, repro.ErrCheckFailed) {
		t.Fatalf("corrupted chunk not detected: %v", err)
	}
}

// sortShare yields PE r's input share — the range [r*n, (r+1)*n) in a
// scrambled (XOR-bijection) order — and the asserted sorted output in
// ascending order. kind selects a corruption: "dup" replaces one value
// with a duplicate of its predecessor (output stays sorted, multiset
// wrong), "order" drops one chunk-initial value below the previous
// chunk's last (placement wrong).
func sortShare(r, n, chunk int, kind string) (in, out repro.SeqSource) {
	scramble := 0x1A5A & (n - 1)
	in = generate(n, chunk, func(i int) uint64 { return uint64(r*n + (i ^ scramble)) })
	out = generate(n, chunk, func(i int) uint64 {
		switch {
		case kind == "dup" && r == 1 && i == n/3:
			return uint64(r*n + i - 1)
		case kind == "order" && r == 0 && i == 64*chunk:
			return uint64(r*n + i - 5)
		}
		return uint64(r*n + i)
	})
	return in, out
}

func TestStreamSortLargerThanRAM(t *testing.T) {
	const (
		p     = 2
		n     = 1 << 17
		chunk = 1 << 10 // 128 chunks per side
	)
	stats := make([]repro.CheckStats, p)
	err := repro.Run(p, 7, func(w *repro.Worker) error {
		ctx, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		in, out := sortShare(w.Rank(), n, chunk, "")
		if err := ctx.StreamSeq(in).AssertSorted(out); err != nil {
			return err
		}
		stats[w.Rank()] = ctx.Stats()[0]
		return nil
	})
	if err != nil {
		t.Fatalf("clean streamed sort rejected: %v", err)
	}
	for r, st := range stats {
		if st.Chunks != 2*n/chunk || st.PeakResident != chunk {
			t.Errorf("rank %d metering: chunks %d peak %d", r, st.Chunks, st.PeakResident)
		}
	}

	for _, kind := range []string{"dup", "order"} {
		err := repro.Run(p, 7, func(w *repro.Worker) error {
			ctx, err := repro.NewContext(w, repro.DefaultOptions())
			if err != nil {
				return err
			}
			in, out := sortShare(w.Rank(), n, chunk, kind)
			return ctx.StreamSeq(in).AssertSorted(out)
		})
		if !errors.Is(err, repro.ErrCheckFailed) {
			t.Fatalf("corrupted sort (%s) not detected: %v", kind, err)
		}
	}
}

// TestStreamResiduesMatchOneShot pins the acceptance criterion that the
// chunked path produces bit-identical residues: the sealed streaming
// states equal the one-shot states over the materialized streams.
func TestStreamResiduesMatchOneShot(t *testing.T) {
	opts := repro.DefaultOptions()

	var input, output []data.Pair
	if err := stream.Drain(sumInput(1, false), func(c []data.Pair) {
		input = append(input, data.ClonePairs(c)...)
	}); err != nil {
		t.Fatal(err)
	}
	for _, o := range sumOutputs(2) {
		output = append(output, o...)
	}
	oneShot := core.NewSumAggState("s", opts.Sum, 99, input, output)
	acc := stream.New(core.NewSumAggBuilder("s", opts.Sum, 99, core.Serial, false))
	if err := acc.DrainInput(sumInput(1, false)); err != nil {
		t.Fatal(err)
	}
	acc.AddOutputChunk(output)
	chunked := acc.Seal()
	cw, ow := chunked.Words(), oneShot.Words()
	for i := range cw {
		if cw[i] != ow[i] {
			t.Fatalf("streamed sum residue differs from one-shot at word %d", i)
		}
	}

	in, out := sortShare(0, 1<<14, 512, "")
	var xs, sorted []uint64
	if err := stream.Drain(in, func(c []uint64) { xs = append(xs, data.CloneU64s(c)...) }); err != nil {
		t.Fatal(err)
	}
	if err := stream.Drain(out, func(c []uint64) { sorted = append(sorted, data.CloneU64s(c)...) }); err != nil {
		t.Fatal(err)
	}
	oneShotSort := core.NewSortedState("s", opts.Perm, 99, [][]uint64{xs}, sorted)
	sacc := stream.New(core.NewSortedBuilder("s", opts.Perm, 99, core.Serial))
	in, out = sortShare(0, 1<<14, 512, "")
	if err := sacc.DrainInput(in); err != nil {
		t.Fatal(err)
	}
	if err := sacc.DrainOutput(out); err != nil {
		t.Fatal(err)
	}
	cw, ow = sacc.Seal().Words(), oneShotSort.Words()
	for i := range cw {
		if cw[i] != ow[i] {
			t.Fatalf("streamed sort residue differs from one-shot at word %d", i)
		}
	}
}

// countingPairs wraps a source and counts Next calls, so tests can
// assert CheckOff consumes nothing.
type countingPairs struct {
	src   repro.PairSource
	calls int
}

func (s *countingPairs) Next() ([]repro.Pair, error) {
	s.calls++
	return s.src.Next()
}

func TestStreamDeferredAttributionAndOff(t *testing.T) {
	const (
		p     = 2
		n     = 1 << 14
		chunk = 256
	)
	// Deferred: a clean streamed sum and a corrupted streamed sort
	// resolve in one batched round; the failure names the sort stage.
	verr := make([]error, p)
	stats := make([][]repro.CheckStats, p)
	sums := make([][][]repro.Pair, 1)
	sums[0] = sumOutputs(p)
	err := repro.Run(p, 11, func(w *repro.Worker) error {
		opts := repro.DefaultOptions()
		opts.Mode = repro.CheckDeferred
		ctx, err := repro.NewContext(w, opts)
		if err != nil {
			return err
		}
		if err := ctx.StreamPairs(sumInput(w.Rank(), false)).AssertSum(repro.SlicePairs(sums[0][w.Rank()], 0)); err != nil {
			return err
		}
		in, out := sortShare(w.Rank(), n, chunk, "dup")
		if err := ctx.StreamSeq(in).AssertSorted(out); err != nil {
			return err
		}
		if got := pendingStages(ctx); got != 2 {
			t.Errorf("pending = %d before Verify", got)
		}
		verr[w.Rank()] = ctx.Verify()
		stats[w.Rank()] = ctx.Stats()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if !errors.Is(verr[r], repro.ErrCheckFailed) {
			t.Fatalf("rank %d: Verify = %v, want check failure", r, verr[r])
		}
		if !strings.Contains(verr[r].Error(), "StreamSorted#1") {
			t.Errorf("rank %d: failure not attributed to the sort stage: %v", r, verr[r])
		}
		if stats[r][0].Verdict != repro.VerdictPass || stats[r][1].Verdict != repro.VerdictFail {
			t.Errorf("rank %d: verdicts %v/%v", r, stats[r][0].Verdict, stats[r][1].Verdict)
		}
		if stats[r][0].BatchWords == 0 {
			t.Errorf("rank %d: streamed stage contributed no batch words", r)
		}
	}

	// CheckOff must not consume the sources at all.
	err = repro.Run(p, 13, func(w *repro.Worker) error {
		opts := repro.DefaultOptions()
		opts.Mode = repro.CheckOff
		ctx, err := repro.NewContext(w, opts)
		if err != nil {
			return err
		}
		src := &countingPairs{src: sumInput(w.Rank(), false)}
		if err := ctx.StreamPairs(src).AssertSum(repro.SlicePairs(nil, 0)); err != nil {
			return err
		}
		if src.calls != 0 {
			t.Errorf("rank %d: CheckOff consumed the source (%d Next calls)", w.Rank(), src.calls)
		}
		if st := ctx.Stats()[0]; st.Verdict != repro.VerdictSkipped {
			t.Errorf("rank %d: verdict %v under CheckOff", w.Rank(), st.Verdict)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamSingleUse pins the reuse guard: a second Assert on the same
// streamed view must fail loudly instead of vacuously verifying an
// exhausted source over zero elements.
func TestStreamSingleUse(t *testing.T) {
	err := repro.Run(1, 3, func(w *repro.Worker) error {
		ctx, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		pairs := []repro.Pair{{Key: 1, Value: 2}}
		streamed := ctx.StreamPairs(repro.SlicePairs(pairs, 0))
		if err := streamed.AssertSum(repro.SlicePairs(pairs, 0)); err != nil {
			return err
		}
		err = streamed.AssertSum(repro.SlicePairs(pairs, 0))
		if err == nil || !strings.Contains(err.Error(), "single-use") {
			t.Errorf("reused stream not rejected: %v", err)
		}
		if ctx.Verify() == nil {
			t.Error("reuse did not stick as the Context error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamRedistAndPermutation exercises the remaining streamed
// checkers through the public API: a correct redistribution passes and
// a misplaced pair is caught deterministically; a cross-PE permutation
// passes and a mutated element is caught.
func TestStreamRedistAndPermutation(t *testing.T) {
	const p = 2
	global := make([]repro.Pair, 4000)
	for i := range global {
		global[i] = repro.Pair{Key: uint64(i * 31 % 977), Value: uint64(i)}
	}
	for _, corrupt := range []bool{false, true} {
		err := repro.Run(p, 17, func(w *repro.Worker) error {
			ctx, err := repro.NewContext(w, repro.DefaultOptions())
			if err != nil {
				return err
			}
			seed, err := w.CommonSeed()
			if err != nil {
				return err
			}
			// The Context's partitioner is derived exactly like this (same
			// seed, same size); the test replays it to build a correct
			// "after" share.
			pt := ops.NewPartitioner(seed, w.Size())
			s, e := data.SplitEven(len(global), p, w.Rank())
			before := global[s:e]
			var after []repro.Pair
			for _, pr := range global {
				if pt.PE(pr.Key) == w.Rank() {
					after = append(after, pr)
				}
			}
			if corrupt && w.Rank() == 1 {
				after[len(after)/2].Value++ // received pair mutated in flight
			}
			return ctx.StreamPairs(repro.SlicePairs(before, 100)).
				AssertRedistributed(repro.SlicePairs(after, 100))
		})
		if corrupt && !errors.Is(err, repro.ErrCheckFailed) {
			t.Fatalf("corrupted redistribution not detected: %v", err)
		}
		if !corrupt && err != nil {
			t.Fatalf("clean redistribution rejected: %v", err)
		}
	}

	for _, corrupt := range []bool{false, true} {
		err := repro.Run(p, 19, func(w *repro.Worker) error {
			ctx, err := repro.NewContext(w, repro.DefaultOptions())
			if err != nil {
				return err
			}
			n := 5000
			// Output is the other PE's input: a pure cross-PE permutation.
			mine := generate(n, 300, func(i int) uint64 { return uint64(w.Rank()*n + i) })
			theirs := generate(n, 300, func(i int) uint64 {
				v := uint64((1-w.Rank())*n + i)
				if corrupt && w.Rank() == 0 && i == n-1 {
					v ^= 4
				}
				return v
			})
			return ctx.StreamSeq(mine).AssertPermutation(theirs)
		})
		if corrupt && !errors.Is(err, repro.ErrCheckFailed) {
			t.Fatalf("corrupted permutation not detected: %v", err)
		}
		if !corrupt && err != nil {
			t.Fatalf("clean permutation rejected: %v", err)
		}
	}
}
