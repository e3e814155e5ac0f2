// Package stream implements chunked (streaming) checker accumulation:
// the subsystem behind the pipeline API's StreamPairs/StreamSeq entry
// points that verifies operations over data produced and discarded
// chunk by chunk.
//
// The paper's checkers all decompose into a zero-communication local
// accumulation plus one tiny collective resolution, and the local
// accumulation itself is mergeable over arbitrary input partitions (the
// core builders). Verification therefore never needs a PE's whole share
// resident in memory: a Source yields chunks, and New wraps any core
// builder in an Accumulator that meters each chunk of the input
// (AddInputChunk) or of the asserted output (AddOutputChunk) and folds
// it into the builder's constant-size partial; Seal freezes the result
// into the same two-phase CheckState a one-shot accumulation would have
// produced — bit-identically, for every chunking. The builder is the
// checker: this package adds no accumulation of its own. This is the
// regime of streaming verification (cf. "Annotations for Sparse Data
// Streams", Chakrabarti et al.): space is bounded by one chunk plus the
// checker sketch, while soundness is unchanged.
package stream

import "repro/internal/data"

// Source yields successive chunks of this PE's share of a distributed
// collection of T. Next returns a nil or empty chunk when the source is
// exhausted; a returned chunk is only valid until the next call —
// sources may reuse their buffer, which is what keeps larger-than-RAM
// streams at one resident chunk.
type Source[T any] interface {
	Next() ([]T, error)
}

// PairSource is a Source of (key, value) pairs.
type PairSource = Source[data.Pair]

// SeqSource is a Source of 64-bit words.
type SeqSource = Source[uint64]

// Drain pulls every chunk from src into add; it is the drive loop behind
// the accumulators' Drain methods.
func Drain[T any](src Source[T], add func([]T)) error {
	for {
		chunk, err := src.Next()
		if err != nil {
			return err
		}
		if len(chunk) == 0 {
			return nil
		}
		add(chunk)
	}
}

// sliceSource is generic over the element type; the exported
// constructors instantiate it for pairs and words.

type sliceSource[T any] struct {
	xs    []T
	chunk int
}

func (s *sliceSource[T]) Next() ([]T, error) {
	if len(s.xs) == 0 {
		return nil, nil
	}
	n := s.chunk
	if n <= 0 || n > len(s.xs) {
		n = len(s.xs)
	}
	out := s.xs[:n]
	s.xs = s.xs[n:]
	return out, nil
}

// SlicePairs yields an in-memory slice in windows of at most chunk
// elements (non-positive: one window), adapting one-shot data to the
// streaming entry points without copying.
func SlicePairs(ps []data.Pair, chunk int) PairSource {
	return &sliceSource[data.Pair]{xs: ps, chunk: chunk}
}

// SliceSeq is SlicePairs for word sequences.
func SliceSeq(xs []uint64, chunk int) SeqSource {
	return &sliceSource[uint64]{xs: xs, chunk: chunk}
}
