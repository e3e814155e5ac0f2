// Package stream implements chunked (streaming) checker accumulation:
// the subsystem behind the pipeline API's StreamPairs/StreamSeq entry
// points that verifies operations over data produced and discarded
// chunk by chunk.
//
// The paper's checkers all decompose into a zero-communication local
// accumulation plus one tiny collective resolution, and the local
// accumulation itself is mergeable over arbitrary input partitions (the
// core builders). Verification therefore never needs a PE's whole share
// resident in memory: a Source yields chunks, a per-checker Accumulator
// folds each chunk into a constant-size partial (AddChunk) and Seal
// freezes the result into the same two-phase CheckState a one-shot
// accumulation would have produced — bit-identically, for every
// chunking. This is
// the regime of streaming verification (cf. "Annotations for Sparse
// Data Streams", Chakrabarti et al.): space is bounded by one chunk
// plus the checker sketch, while soundness is unchanged.
package stream

import "repro/internal/data"

// defaultChunk is the generator chunk size when the caller passes a
// non-positive one: large enough to amortise per-chunk overhead, small
// enough to stay cache-friendly.
const defaultChunk = 1 << 16

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

// The three source kinds are generic over the element type; the
// exported constructors instantiate them for pairs and words.

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

type chanSource[T any] struct{ ch <-chan []T }

func (s *chanSource[T]) Next() ([]T, error) { return <-s.ch, nil }

type genSource[T any] struct {
	n, next, chunk int
	gen            func(i int) T
	buf            []T
}

func (s *genSource[T]) Next() ([]T, error) {
	if s.next >= s.n {
		return nil, nil
	}
	c := s.chunk
	if c > s.n-s.next {
		c = s.n - s.next
	}
	if s.buf == nil {
		s.buf = make([]T, s.chunk)
	}
	out := s.buf[:c]
	for i := range out {
		out[i] = s.gen(s.next + i)
	}
	s.next += c
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

// ChanPairs yields the chunks sent on ch until it is closed (or an
// empty chunk arrives), decoupling a producer goroutine — a file
// reader, a network receiver — from checker accumulation.
func ChanPairs(ch <-chan []data.Pair) PairSource { return &chanSource[data.Pair]{ch: ch} }

// ChanSeq is ChanPairs for word sequences.
func ChanSeq(ch <-chan []uint64) SeqSource { return &chanSource[uint64]{ch: ch} }

// GenPairs yields n generated pairs in chunks of the given size
// (non-positive: a default), calling gen with the global index 0..n-1.
// One chunk-sized buffer is reused for the whole stream, so the
// resident footprint is a single chunk regardless of n — the
// larger-than-RAM workhorse.
func GenPairs(n, chunk int, gen func(i int) data.Pair) PairSource {
	if chunk <= 0 {
		chunk = defaultChunk
	}
	return &genSource[data.Pair]{n: n, chunk: chunk, gen: gen}
}

// GenSeq is GenPairs for word sequences.
func GenSeq(n, chunk int, gen func(i int) uint64) SeqSource {
	if chunk <= 0 {
		chunk = defaultChunk
	}
	return &genSource[uint64]{n: n, chunk: chunk, gen: gen}
}
