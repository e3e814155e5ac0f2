package core

import (
	"repro/internal/data"
	"repro/internal/hashing"
)

// This file holds the chunked partial forms of the checker states:
// builders with an add-chunk / seal lifecycle. A builder accumulates any
// number of input and output chunks (in any interleaving that respects
// the per-builder ordering rules below) and Seal freezes the accumulated
// partial into the corresponding CheckState. The permutation and
// redistribution partials additionally merge: two builders over disjoint
// chunk sets fold into one (internal/recover reshards a dead PE's chunks
// that way).
//
// The sealed state is bit-identical to the one-shot state built over the
// concatenation of all chunks, for every chunking and every
// ParallelAccumulator worker count:
//
//   - sum checker tables stay congruent mod r under chunked
//     accumulation, and Seal normalizes before differencing — so the
//     residues agree exactly;
//   - permutation fingerprints combine by wraparound addition mod 2^64,
//     which is commutative and associative;
//   - the sortedness boundary summary extends chunk by chunk with the
//     same interval rule the collective resolution applies rank by rank.
//
// Builders are the foundation of the internal/stream subsystem: the
// one-shot New...State constructors in state.go are thin wrappers that
// feed a builder exactly one chunk per side.
//
// Builders are single-use (Seal at most once) and not safe for
// concurrent use. Seal — and Merge, for its source — consumes the
// builder: its checker's hash tables go back to the hashing package for
// the next checker to fill (recycleHashers), and a later Add panics.

// recycleHashers hands the tables of hs back to the hashing package
// and forgets them, under scratchPool's rule: only once nothing reads
// them any more. The builders call it when they are consumed (Seal, or
// as the source of a Merge) — a sealed state keeps the fingerprints,
// not the functions — so the checker a small job builds per stage
// allocates no hash table in the steady state. A checker that was
// never handed to a builder keeps its hashers for as long as it lives.
func recycleHashers(hs []hashing.Hasher) {
	for i, h := range hs {
		hashing.Recycle(h)
		hs[i] = nil
	}
}

// ---------------------------------------------------------------------
// Sum/count aggregation
// ---------------------------------------------------------------------

// SumAggBuilder is the chunked partial form of SumAggState: two raw
// counter tables (input side, output side) that chunks accumulate into.
// Chunk order is immaterial on both sides.
type SumAggBuilder struct {
	stage  string
	c      *SumChecker
	par    ParallelAccumulator
	count  bool
	tv, to []uint64
}

// NewSumAggBuilder starts an empty sum (or, with count, count)
// aggregation partial for the given stage. Accumulation of every chunk
// is sharded across par.
func NewSumAggBuilder(stage string, cfg SumConfig, seed uint64, par ParallelAccumulator, count bool) *SumAggBuilder {
	c := NewSumChecker(cfg, seed)
	return &SumAggBuilder{stage: stage, c: c, par: par, count: count, tv: c.NewTable(), to: c.NewTable()}
}

// AddInput accumulates one chunk of the operation's input.
func (b *SumAggBuilder) AddInput(pairs []data.Pair) {
	if b.count {
		b.par.AccumulateCount(b.c, b.tv, pairs)
		return
	}
	b.par.AccumulateSum(b.c, b.tv, pairs)
}

// AddOutput accumulates one chunk of the asserted result.
func (b *SumAggBuilder) AddOutput(pairs []data.Pair) {
	b.par.AccumulateSum(b.c, b.to, pairs)
}

// Seal freezes the partial into the two-phase checker state. The
// builder's tables are consumed.
func (b *SumAggBuilder) Seal() *SumAggState {
	st := newSumDiffState(b.stage, b.c, b.tv, b.to)
	recycleHashers(b.c.hashers)
	b.c = nil
	return st
}

// ---------------------------------------------------------------------
// Permutation / union
// ---------------------------------------------------------------------

// PermBuilder is the mergeable partial form of PermState: the
// per-iteration truncated hash sums, inputs added and outputs
// subtracted. Chunk order is immaterial on both sides.
type PermBuilder struct {
	stage   string
	c       *PermChecker
	par     ParallelAccumulator
	lambda  []uint64
	localOK bool
}

// NewPermBuilder starts an empty permutation partial for the given
// stage. Accumulation of every chunk is sharded across par.
func NewPermBuilder(stage string, cfg PermConfig, seed uint64, par ParallelAccumulator) *PermBuilder {
	c := NewPermChecker(cfg, seed)
	return &PermBuilder{stage: stage, c: c, par: par, lambda: make([]uint64, cfg.Iterations), localOK: true}
}

// AddInput accumulates one chunk of (one of) the input sequences.
func (b *PermBuilder) AddInput(xs []uint64) {
	b.par.AccumulatePerm(b.c, b.lambda, xs, false)
}

// AddOutput accumulates one chunk of the asserted output sequence.
func (b *PermBuilder) AddOutput(xs []uint64) {
	b.par.AccumulatePerm(b.c, b.lambda, xs, true)
}

// Merge folds src's partial fingerprint into b. src is consumed.
func (b *PermBuilder) Merge(src *PermBuilder) {
	for i := range b.lambda {
		b.lambda[i] += src.lambda[i]
	}
	b.localOK = b.localOK && src.localOK
	src.consume()
}

// Seal freezes the partial into the two-phase checker state.
func (b *PermBuilder) Seal() *PermState {
	st := &PermState{stage: b.stage, mask: b.c.mask, lambda: b.lambda, localOK: b.localOK}
	b.consume()
	return st
}

// consume ends the builder's accumulating life.
func (b *PermBuilder) consume() {
	recycleHashers(b.c.hashers)
	b.c = nil
}

// ---------------------------------------------------------------------
// Sort / merge
// ---------------------------------------------------------------------

// SortedBuilder is the chunked partial form of SortedState: a
// permutation partial plus the sortedness interval summary maintained
// across output chunks. Input chunks may arrive in any order; output
// chunks must arrive in sequence order (each chunk is the next
// contiguous segment of this PE's asserted output).
type SortedBuilder struct {
	perm *PermBuilder
	b    [sortWords]uint64
}

// NewSortedBuilder starts an empty sort partial for the given stage.
func NewSortedBuilder(stage string, cfg PermConfig, seed uint64, par ParallelAccumulator) *SortedBuilder {
	sb := &SortedBuilder{perm: NewPermBuilder(stage, cfg, seed, par)}
	sb.b[sortOK] = 1
	return sb
}

// AddInput accumulates one chunk of (one of) the input sequences.
func (s *SortedBuilder) AddInput(xs []uint64) { s.perm.AddInput(xs) }

// AddOutput accumulates the next contiguous chunk of this PE's asserted
// sorted output: the fingerprint subtracts it, and the interval summary
// extends — the chunk must be internally sorted and must not fall below
// the previous chunk's last element.
func (s *SortedBuilder) AddOutput(xs []uint64) {
	s.perm.AddOutput(xs)
	if len(xs) == 0 {
		return
	}
	ok := s.b[sortOK]
	if !data.IsSortedU64(xs) {
		ok = 0
	}
	if s.b[sortHas] == 1 && s.b[sortLast] > xs[0] {
		ok = 0
	}
	if s.b[sortHas] == 0 {
		s.b[sortFirst] = xs[0]
		s.b[sortHas] = 1
	}
	s.b[sortLast] = xs[len(xs)-1]
	s.b[sortOK] = ok
}

// Seal freezes the partial into the two-phase checker state.
func (s *SortedBuilder) Seal() *SortedState {
	perm := s.perm.Seal()
	words := make([]uint64, len(perm.lambda)+sortWords)
	copy(words, perm.lambda)
	copy(words[len(perm.lambda):], s.b[:])
	return &SortedState{perm: perm, words: words}
}

// ---------------------------------------------------------------------
// Redistribution
// ---------------------------------------------------------------------

// RedistBuilder is the mergeable partial form of the redistribution
// checker state (Corollaries 14, 15): a permutation partial over folded
// whole pairs plus the deterministic placement scan, both applied chunk
// by chunk. Chunk order is immaterial on both sides.
type RedistBuilder struct {
	perm     *PermBuilder
	foldSeed []uint64
	loc      KeyLocator
	rank     int
	buf      []uint64 // reusable fold scratch, one chunk at a time
}

// NewRedistBuilder starts an empty redistribution partial for the given
// stage; loc and rank pin this PE's placement contract.
func NewRedistBuilder(stage string, cfg PermConfig, seed uint64, par ParallelAccumulator, loc KeyLocator, rank int) *RedistBuilder {
	return &RedistBuilder{
		perm:     NewPermBuilder(stage, cfg, seed, par),
		foldSeed: hashing.SubSeeds(seed^0x4ed154ed154ed151, 2),
		loc:      loc,
		rank:     rank,
	}
}

// fold digests whole pairs into single words through the builder's
// reusable scratch buffer; the result is only valid until the next call.
func (b *RedistBuilder) fold(ps []data.Pair) []uint64 {
	if cap(b.buf) < len(ps) {
		b.buf = make([]uint64, len(ps))
	}
	out := b.buf[:len(ps)]
	for i, pr := range ps {
		out[i] = hashing.Mix64(pr.Key^b.foldSeed[0]) + hashing.Mix64(pr.Value^b.foldSeed[1])
	}
	return out
}

// AddInput accumulates one chunk of this PE's pairs before the
// exchange.
func (b *RedistBuilder) AddInput(ps []data.Pair) {
	b.perm.AddInput(b.fold(ps))
}

// AddOutput accumulates one chunk of this PE's pairs after the exchange,
// including the placement scan: every received key must belong to this
// PE under the locator.
func (b *RedistBuilder) AddOutput(ps []data.Pair) {
	b.perm.AddOutput(b.fold(ps))
	for _, pr := range ps {
		if b.loc.PE(pr.Key) != b.rank {
			b.perm.localOK = false
			break
		}
	}
}

// Merge folds src's partial into b. src is consumed.
func (b *RedistBuilder) Merge(src *RedistBuilder) { b.perm.Merge(src.perm) }

// Seal freezes the partial into the two-phase checker state.
func (b *RedistBuilder) Seal() *PermState { return b.perm.Seal() }
