package core

import (
	"repro/internal/data"
	"repro/internal/hashing"
)

// This file holds the checkers that accumulate in chunks: builders with
// an add-chunk / seal lifecycle, each followed by its one-chunk
// constructor. A builder accumulates any number of input and output
// chunks (in any interleaving that respects the per-builder ordering
// rules below) and Seal freezes the accumulated partial into a
// CheckState.
//
// The sealed state is bit-identical to the one-chunk constructor's over
// the concatenation of all chunks, for every chunking:
//
//   - a sum checker's cells hold exact integer sums, input minus
//     output, whatever the chunking, and Seal folds them mod r and
//     normalizes — so the residues agree exactly;
//   - permutation fingerprints combine by wraparound addition mod 2^64,
//     which is commutative and associative;
//   - the sortedness interval extends chunk by chunk with the same merge
//     the collective resolution applies rank by rank.
//
// Builders are the foundation of the internal/stream subsystem.
//
// Builders are single-use (Seal at most once) and not safe for
// concurrent use. Seal consumes the builder: its checker's hash tables
// go back to the hashing package for the next checker to fill
// (recycleHashers), and a later Add panics.

// recycleHashers hands the tables of hs back to the hashing package
// and forgets them, under scratchPool's rule: only once nothing reads
// them any more. The builders call it when Seal consumes them — a
// sealed state keeps the fingerprints, not the functions — so the
// checker a small job builds per stage allocates no hash table in the
// steady state. A checker that was never handed to a builder keeps its
// hashers for as long as it lives.
func recycleHashers(hs []hashing.Hasher) {
	for i, h := range hs {
		hashing.Recycle(h)
		hs[i] = nil
	}
}

// ---------------------------------------------------------------------
// Sum/count aggregation (Theorem 1, Algorithm 1)
// ---------------------------------------------------------------------

// SumAggBuilder is the chunked sum aggregation checker: one set of
// exact cells that input chunks add to and output chunks subtract from,
// held from the first chunk to Seal, and one counter table they fold
// into. Chunk order is immaterial on both sides. The plan is the
// state's, not a chunk's: it is picked from the running element count,
// but never for fewer than minPlanElems (groupSize), and a fold happens
// only when a grown count widens the groups and once at Seal — a
// stream of 256-pair chunks runs the same grouped plan as one call of
// the whole input. The builder holds its checker and the state it
// seals: a builder is two allocations and its table.
type SumAggBuilder struct {
	stage string
	c     *SumChecker // &chk until the builder is consumed
	count bool
	table []uint64    // input minus output, congruent mod r
	s     *accScratch // the cells and plan, from the first chunk to Seal
	n, g  int         // elements run through the cells, and their plan
	chk   SumChecker
	st    state
}

// minPlanElems is the fewest elements a builder plans for: two
// blocks. A service-sized share — 2 000 pairs fed in 256-pair chunks —
// then runs its lane plan from the first chunk and folds once, at Seal,
// instead of starting on narrow groups and folding them when its count
// grows; a builder of the default 15×4 or of 6×32 re-plans at most
// once, into the bulk plan.
const minPlanElems = 2 * accBlock

// NewSumAggBuilder starts an empty sum (or, with count, count)
// aggregation partial for the given stage. With count, every input pair
// counts 1 regardless of its value. The ParallelAccumulator is ignored
// (shims_benchmark.go).
func NewSumAggBuilder(stage string, cfg SumConfig, seed uint64, _ ParallelAccumulator, count bool) *SumAggBuilder {
	b := &SumAggBuilder{stage: stage, count: count}
	b.chk.init(cfg, seed, false, 0)
	b.c = &b.chk
	b.table = b.c.NewTable()
	return b
}

// AddInput accumulates one chunk of the operation's input.
func (b *SumAggBuilder) AddInput(pairs []data.Pair) {
	if b.count {
		b.add(pairs, countFeed)
		return
	}
	b.add(pairs, sumFeed)
}

// AddOutput accumulates one chunk of the asserted result, subtracted.
func (b *SumAggBuilder) AddOutput(pairs []data.Pair) {
	b.add(pairs, outFeed)
}

// add runs one chunk through the builder's cells with feed f, first
// folding the cells and re-planning if the running count now picks
// wider groups.
func (b *SumAggBuilder) add(pairs []data.Pair, f feed) {
	if len(pairs) == 0 {
		return
	}
	if b.s == nil {
		b.s = scratchPool.Get().(*accScratch)
	}
	b.n += len(pairs)
	if g := b.c.planFor(max(b.n, minPlanElems)); g != b.g {
		if b.g != 0 {
			b.c.fold(b.table, b.s)
		}
		b.c.plan(b.s, g)
		b.g = g
	}
	b.c.addCells(b.table, b.s, pairs, f)
}

// Seal freezes the partial into one table: the cells folded once more
// and the counters normalized — input minus output, correct iff the
// global modular sum is all-zero. The builder's table and cells are
// consumed.
func (b *SumAggBuilder) Seal() CheckState {
	if b.s != nil {
		b.c.fold(b.table, b.s)
		scratchPool.Put(b.s)
		b.s = nil
	}
	b.c.Normalize(b.table)
	b.st.seal(b.stage, b.table, true, b.c, tableSeg(b.c))
	recycleHashers(b.c.hashers)
	b.c = nil
	return &b.st
}

// NewSumAggState is SumAggBuilder over one chunk per side: input and
// output are this PE's shares of the aggregation input and of the
// asserted result (one pair per key, any distribution). A correct
// result is always accepted; an incorrect one with probability at most
// cfg.AchievedDelta(). Communication at resolution: #its * d *
// ceil(log 2rhat) bits, O(beta*d*log(rhat) + alpha*log p), per Lemma 3.
func NewSumAggState(stage string, cfg SumConfig, seed uint64, input, output []data.Pair) CheckState {
	b := NewSumAggBuilder(stage, cfg, seed, Serial, false)
	b.AddInput(input)
	b.AddOutput(output)
	return b.Seal()
}

// ---------------------------------------------------------------------
// Permutation / union (Lemma 4, Corollary 12)
// ---------------------------------------------------------------------

// PermBuilder is the chunked permutation checker: the per-iteration
// truncated hash sums, inputs added and outputs subtracted. Chunk order
// is immaterial on both sides. The checker, the sums and the sealed
// state live in the builder: one allocation for up to inlineHashers
// iterations.
type PermBuilder struct {
	stage   string
	c       *PermChecker // &chk until the builder is consumed
	lambda  []uint64
	localOK bool
	chk     PermChecker
	st      state
	// lam backs lambda, with room for the sortedness interval a
	// SortedBuilder seals behind the sums.
	lam [inlineHashers + sortWords]uint64
}

// NewPermBuilder starts an empty permutation partial for the given
// stage. The ParallelAccumulator is ignored (shims_benchmark.go).
func NewPermBuilder(stage string, cfg PermConfig, seed uint64, _ ParallelAccumulator) *PermBuilder {
	b := new(PermBuilder)
	b.init(stage, cfg, seed)
	return b
}

// init starts the builder in place.
func (b *PermBuilder) init(stage string, cfg PermConfig, seed uint64) {
	b.stage, b.localOK = stage, true
	b.chk.init(cfg, seed)
	b.c = &b.chk
	if its := cfg.Iterations; its <= inlineHashers {
		b.lambda = b.lam[:its]
	} else {
		b.lambda = make([]uint64, its, its+sortWords)
	}
}

// AddInput accumulates one chunk of (one of) the input sequences.
func (b *PermBuilder) AddInput(xs []uint64) {
	b.c.AccumulateInto(b.lambda, xs, false)
}

// AddOutput accumulates one chunk of the asserted output sequence.
func (b *PermBuilder) AddOutput(xs []uint64) {
	b.c.AccumulateInto(b.lambda, xs, true)
}

// Seal freezes the partial into one hash sum segment.
func (b *PermBuilder) Seal() CheckState {
	b.st.seal(b.stage, b.lambda, b.localOK, nil, hashSumSeg(b.c))
	b.consume()
	return &b.st
}

// consume ends the builder's accumulating life.
func (b *PermBuilder) consume() {
	recycleHashers(b.c.hashers)
	b.c = nil
}

// NewPermState is PermBuilder over one chunk per input and one of the
// output: output must be a permutation of the concatenation of inputs
// — with two inputs the Union checker of Corollary 12. Running time
// O(n/p + beta*logH*its + alpha*log p) — Theorem 6.
func NewPermState(stage string, cfg PermConfig, seed uint64, inputs [][]uint64, output []uint64) CheckState {
	b := NewPermBuilder(stage, cfg, seed, Serial)
	for _, in := range inputs {
		b.AddInput(in)
	}
	b.AddOutput(output)
	return b.Seal()
}

// ---------------------------------------------------------------------
// Sort / merge (Theorem 7, Corollary 13)
// ---------------------------------------------------------------------

// SortedBuilder is the chunked sort checker: a permutation partial plus
// the sortedness interval maintained across output chunks. Input chunks
// may arrive in any order; output chunks must arrive in sequence order
// (each chunk is the next contiguous segment of this PE's asserted
// output).
type SortedBuilder struct {
	perm     PermBuilder
	interval [sortWords]uint64
}

// NewSortedBuilder starts an empty sort partial for the given stage.
// The ParallelAccumulator is ignored (shims_benchmark.go).
func NewSortedBuilder(stage string, cfg PermConfig, seed uint64, _ ParallelAccumulator) *SortedBuilder {
	sb := new(SortedBuilder)
	sb.perm.init(stage, cfg, seed)
	sb.interval[sortOK] = 1
	return sb
}

// AddInput accumulates one chunk of (one of) the input sequences.
func (s *SortedBuilder) AddInput(xs []uint64) { s.perm.AddInput(xs) }

// AddOutput accumulates the next contiguous chunk of this PE's asserted
// sorted output: the fingerprint subtracts it, and the interval extends
// by the chunk's own — the chunk must be internally sorted and must not
// fall below the previous chunk's last element.
func (s *SortedBuilder) AddOutput(xs []uint64) {
	s.perm.AddOutput(xs)
	if len(xs) == 0 {
		return
	}
	chunk := [sortWords]uint64{sortHas: 1, sortFirst: xs[0], sortLast: xs[len(xs)-1]}
	if data.IsSortedU64(xs) {
		chunk[sortOK] = 1
	}
	mergeInterval(s.interval[:], chunk[:])
}

// Seal freezes the partial into a hash sum segment followed by the
// sortedness interval.
func (s *SortedBuilder) Seal() CheckState {
	b := &s.perm
	b.st.seal(b.stage, append(b.lambda, s.interval[:]...), true, nil, hashSumSeg(b.c), intervalSeg)
	b.consume()
	return &b.st
}

// NewSortedState is SortedBuilder over one chunk per input and one of
// the output: output must be a sorted permutation of the concatenation
// of inputs (one input for Sort, two for Merge). Both properties travel
// in one reduction — the boundary condition as the rank-ordered
// interval merge. Time O(Tcheck-perm(n, p, delta)).
func NewSortedState(stage string, cfg PermConfig, seed uint64, inputs [][]uint64, output []uint64) CheckState {
	b := NewSortedBuilder(stage, cfg, seed, Serial)
	for _, in := range inputs {
		b.AddInput(in)
	}
	b.AddOutput(output)
	return b.Seal()
}

// ---------------------------------------------------------------------
// Redistribution (Corollaries 14, 15)
// ---------------------------------------------------------------------

// KeyLocator reports which PE is responsible for a key — the contract
// of the redistribution phase of GroupBy and hash Join. ops.Partitioner
// satisfies it.
type KeyLocator interface {
	PE(key uint64) int
}

// RedistBuilder is the chunked invasive checker for the element
// redistribution phase of GroupBy (Corollary 14) and, applied to each
// relation, of hash Join (Corollary 15): a permutation partial over
// folded whole pairs plus the deterministic placement scan — every
// received pair's key must belong to this PE under the locator, which
// pins the hash-induced global order — both applied chunk by chunk.
// Chunk order is immaterial on both sides. The group/join function
// applied afterwards needs a local checker, which the paper scopes out.
type RedistBuilder struct {
	perm     PermBuilder
	foldSeed []uint64
	loc      KeyLocator
	rank     int
	buf      []uint64 // reusable fold scratch, one chunk at a time
}

// NewRedistBuilder starts an empty redistribution partial for the given
// stage; loc and rank pin this PE's placement contract.
func NewRedistBuilder(stage string, cfg PermConfig, seed uint64, loc KeyLocator, rank int) *RedistBuilder {
	b := &RedistBuilder{
		foldSeed: hashing.SubSeeds(seed^0x4ed154ed154ed151, 2),
		loc:      loc,
		rank:     rank,
	}
	b.perm.init(stage, cfg, seed)
	return b
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
// including the placement scan.
func (b *RedistBuilder) AddOutput(ps []data.Pair) {
	b.perm.AddOutput(b.fold(ps))
	for _, pr := range ps {
		if b.loc.PE(pr.Key) != b.rank {
			b.perm.localOK = false
			break
		}
	}
}

// Seal freezes the partial into one hash sum segment, the placement
// scan in its local predicate.
func (b *RedistBuilder) Seal() CheckState { return b.perm.Seal() }

// NewRedistState is RedistBuilder over one chunk per side: before and
// after are this PE's pairs around the exchange and rank is this PE's
// rank. A hash join checks each relation with one state; both resolve
// in one batched round.
func NewRedistState(stage string, cfg PermConfig, seed uint64, loc KeyLocator, rank int, before, after []data.Pair) CheckState {
	b := NewRedistBuilder(stage, cfg, seed, loc, rank)
	b.AddInput(before)
	b.AddOutput(after)
	return b.Seal()
}
