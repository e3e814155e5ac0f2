package repro

import (
	"errors"

	"repro/internal/core"
	"repro/internal/stream"
)

// Streaming checked operations: the chunked accumulate/merge/resolve
// form of the checkers, for workloads whose data is produced and
// discarded chunk by chunk and never fits in RAM at once.
//
// A source yields this PE's share in chunks; StreamPairs/StreamSeq wrap
// a source into a streaming verification stage whose Assert methods
// consume the input and the asserted output chunk by chunk, fold each
// chunk into a constant-size checker partial, and register the sealed
// state with the Context exactly like a one-shot stage — eagerly
// resolved or batched into Verify per the CheckMode. The sealed states
// are bit-identical to the one-shot path for every chunk size, so
// soundness (one-sided error, failure probability per Options) is
// unchanged; the resident footprint drops from the whole share to one
// chunk, metered per stage in CheckStats.Chunks and
// CheckStats.PeakResident.

// PairSource yields successive chunks of this PE's share of a
// distributed pair collection; a nil or empty chunk ends the stream,
// and a returned chunk is only valid until the next call. SlicePairs
// adapts an in-memory slice; any producer (a generator, a file reader,
// a network receiver) implements the interface with one method.
type PairSource = stream.PairSource

// SeqSource is PairSource for distributed sequences of 64-bit words.
type SeqSource = stream.SeqSource

// SlicePairs yields an in-memory slice in windows of at most chunk
// elements (non-positive: one window) — the adapter from one-shot data
// to the streaming entry points.
func SlicePairs(ps []Pair, chunk int) PairSource { return stream.SlicePairs(ps, chunk) }

// SliceSeq is SlicePairs for word sequences.
func SliceSeq(xs []uint64, chunk int) SeqSource { return stream.SliceSeq(xs, chunk) }

// StreamedPairs is a streaming view of this PE's share of a distributed
// pair collection, bound to a Context. Each Assert method consumes the
// underlying source, so a StreamedPairs is strictly single-use: a
// second Assert fails with a sticky Context error rather than silently
// verifying an exhausted (zero-element) stream. Under CheckOff the
// stage skips all work and consumes nothing (a source's producer must
// not rely on being drained when checking is disabled), but the
// single-use rule still applies.
type StreamedPairs struct {
	ctx  *Context
	src  PairSource
	used bool
}

// StreamPairs wraps a chunked source of this PE's local pair share for
// streaming verification; see StreamedPairs.
func (c *Context) StreamPairs(src PairSource) *StreamedPairs {
	return &StreamedPairs{ctx: c, src: src}
}

// StreamedSeq is StreamedPairs for word sequences, with the same
// single-use and CheckOff consumption contract.
type StreamedSeq struct {
	ctx  *Context
	src  SeqSource
	used bool
}

// errStreamReused reports a second Assert on a streamed view.
var errStreamReused = errors.New("repro: streamed view is single-use: its source was already consumed by an earlier Assert")

// StreamSeq wraps a chunked source of this PE's local word-sequence
// share for streaming verification; see StreamedSeq.
func (c *Context) StreamSeq(src SeqSource) *StreamedSeq {
	return &StreamedSeq{ctx: c, src: src}
}

// AssertSum registers a streamed sum aggregation check: output must be
// the correct per-key sum reduction of the streamed input (Theorem 1).
// Both sources are fully consumed, one chunk resident at a time (under
// CheckOff neither is touched — see StreamedPairs); chunk order is
// immaterial on either side. In eager mode the verdict returns
// immediately, in deferred mode it surfaces at Verify.
func (s *StreamedPairs) AssertSum(output PairSource) error {
	return s.assertAgg("StreamSum", false, output)
}

// AssertCount registers a streamed count aggregation check: output must
// hold, per key, the number of streamed input pairs with that key;
// input values are ignored. See AssertSum.
func (s *StreamedPairs) AssertCount(output PairSource) error {
	return s.assertAgg("StreamCount", true, output)
}

func (s *StreamedPairs) assertAgg(op string, count bool, output PairSource) error {
	c := s.ctx
	return streamStage(c, &s.used, op, c.validSum, s.src, output, func(label string) *stream.Accumulator[Pair] {
		return stream.New(core.NewSumAggBuilder(label, c.opts.Sum, c.seed, core.Serial, count))
	})
}

// AssertRedistributed registers a streamed redistribution check
// (Corollary 14): after must hold exactly the pairs of the streamed
// before-stream, re-placed so every key lives on the PE the Context's
// partitioner assigns it — the invasive GroupBy/Join exchange check in
// streaming form. Chunk order is immaterial on either side.
func (s *StreamedPairs) AssertRedistributed(after PairSource) error {
	c := s.ctx
	return streamStage(c, &s.used, "StreamRedist", c.validPerm, s.src, after, func(label string) *stream.Accumulator[Pair] {
		return stream.New(core.NewRedistBuilder(label, c.opts.Perm, c.seed, c.pt, c.w.Rank()))
	})
}

// AssertSorted registers a streamed sort check: output must be a
// globally sorted permutation of the streamed input (Theorem 7). Input
// chunks may arrive in any order; the output source must yield this
// PE's asserted output in sequence order — each chunk the next
// contiguous segment — which every source in this package does.
func (s *StreamedSeq) AssertSorted(output SeqSource) error {
	c := s.ctx
	return streamStage(c, &s.used, "StreamSorted", c.validPerm, s.src, output, func(label string) *stream.Accumulator[uint64] {
		return stream.New(core.NewSortedBuilder(label, c.opts.Perm, c.seed, core.Serial))
	})
}

// AssertPermutation registers a streamed permutation check: output must
// be a permutation of the streamed input (Lemma 5; with a second input
// union semantics follow Corollary 12). Chunk order is immaterial on
// either side.
func (s *StreamedSeq) AssertPermutation(output SeqSource) error {
	c := s.ctx
	return streamStage(c, &s.used, "StreamPerm", c.validPerm, s.src, output, func(label string) *stream.Accumulator[uint64] {
		return stream.New(core.NewPermBuilder(label, c.opts.Perm, c.seed, core.Serial))
	})
}

// streamStage runs one streaming verification stage over a single-use
// view: claim it, then — unless checking is off — drain the input
// source and the asserted-output source through a fresh accumulator,
// one chunk resident at a time, and seal it.
func streamStage[T any](c *Context, used *bool, op string, valid func() error, in, out stream.Source[T], mk func(label string) *stream.Accumulator[T]) error {
	// An Assert over an already-consumed stream would verify zero elements
	// and vacuously pass, which a verification library must never do
	// silently.
	if *used {
		return c.fail(errStreamReused)
	}
	*used = true
	return c.run(op, stage{valid: valid, check: func(label string, states []core.CheckState) ([]core.CheckState, stream.Meter, stream.Meter, error) {
		acc := mk(label)
		if err := acc.DrainInput(in); err != nil {
			return states, acc.In, acc.Out, err
		}
		if err := acc.DrainOutput(out); err != nil {
			return states, acc.In, acc.Out, err
		}
		return append(states, acc.Seal()), acc.In, acc.Out, nil
	}})
}
