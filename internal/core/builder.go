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
//   - permutation products multiply in F_(2^61-1), leaving zero factors
//     out and counting them: commutative and associative;
//   - the sortedness interval extends chunk by chunk with the same merge
//     the collective resolution applies rank by rank.
//
// Builders are the foundation of the internal/stream subsystem, whose
// stream.New wraps any of them.
//
// Builders are single-use (Seal at most once) and not safe for
// concurrent use. Seal consumes the builder: its checker's hash tables
// go back to the hashing package for the next checker to fill
// (recycleHashers), or its product offsets to scratchPool
// (permChecker.release), and a later Add panics.

// recycleHashers hands the tables of hs back to the hashing package
// and forgets them, under scratchPool's rule: only once nothing reads
// them any more. SumAggBuilder.Seal calls it — a sealed state keeps the
// table, not the functions — so the checker a small job builds per
// stage allocates no hash table in the steady state. A checker that was
// never handed to a builder keeps its hashers for as long as it lives.
func recycleHashers(hs []hashing.Hasher) {
	for i, h := range hs {
		hashing.Recycle(h)
		hs[i] = nil
	}
}

// ---------------------------------------------------------------------
// Sum/count aggregation (Theorem 1, Algorithm 1)
// ---------------------------------------------------------------------

// SumAggBuilder is the chunked sum aggregation checker: one sumRun
// that input chunks add to and output chunks subtract from, so its
// cells and its one counter table hold input minus output. Chunk order
// is immaterial on both sides, and the plan follows the running count
// of both (sumRun). The builder holds its checker and the state it
// seals: a builder is two allocations and its table.
type SumAggBuilder struct {
	stage string
	count bool
	run   sumRun // run.c is &chk until the builder is consumed
	chk   SumChecker
	st    state
}

// NewSumAggBuilder starts an empty sum (or, with count, count)
// aggregation partial for the given stage. With count, every input pair
// counts 1 regardless of its value. The ParallelAccumulator is ignored
// (shims_benchmark.go).
func NewSumAggBuilder(stage string, cfg SumConfig, seed uint64, _ ParallelAccumulator, count bool) *SumAggBuilder {
	b := &SumAggBuilder{stage: stage, count: count}
	b.chk.init(cfg, seed, false, 0)
	b.run = sumRun{c: &b.chk, table: b.chk.NewTable()}
	return b
}

// AddInput accumulates one chunk of the operation's input.
func (b *SumAggBuilder) AddInput(pairs []data.Pair) {
	if b.count {
		b.run.add(pairs, countFeed)
		return
	}
	b.run.add(pairs, sumFeed)
}

// AddOutput accumulates one chunk of the asserted result, subtracted.
func (b *SumAggBuilder) AddOutput(pairs []data.Pair) {
	b.run.add(pairs, outFeed)
}

// Seal freezes the partial into one table, the run finished — input
// minus output, correct iff the global modular sum is all-zero. The
// builder's table and cells are consumed.
func (b *SumAggBuilder) Seal() CheckState {
	b.run.finish()
	b.st.seal(b.stage, b.run.table, true, &b.chk, tableSeg(&b.chk))
	recycleHashers(b.chk.hashers)
	b.run.c = nil
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
// Permutation / union (Lemmas 4 and 5, Corollary 12)
// ---------------------------------------------------------------------

// PermBuilder is the chunked permutation checker: per iteration the
// input's and the output's products. Chunk order is immaterial on both
// sides. The checker, the fingerprints and the sealed state live in the
// builder: one allocation for up to inlineProducts iterations.
type PermBuilder struct {
	stage   string
	c       *permChecker // &chk until the builder is consumed
	lambda  []uint64
	localOK bool
	chk     permChecker
	st      state
	// lam backs lambda: two slots an iteration until Seal, then a word
	// an iteration and the sortedness interval a SortedBuilder seals
	// behind them.
	lam [inlineProducts + sortWords]uint64
}

// inlineProducts is how many product iterations a PermBuilder holds
// without an allocation of its own; their 2·inlineProducts slots fit
// lam too.
const inlineProducts = 2

// NewPermBuilder starts an empty permutation partial for the given
// stage. The ParallelAccumulator is ignored (shims_benchmark.go).
func NewPermBuilder(stage string, cfg PermConfig, seed uint64, _ ParallelAccumulator) *PermBuilder {
	b := new(PermBuilder)
	b.init(stage, cfg, seed)
	return b
}

// init starts the builder in place, every slot at productSlot.
func (b *PermBuilder) init(stage string, cfg PermConfig, seed uint64) {
	b.stage, b.localOK = stage, true
	b.chk.init(cfg, seed)
	b.c = &b.chk
	n := 2 * cfg.Iterations
	if cfg.Iterations <= inlineProducts {
		b.lambda = b.lam[:n]
	} else {
		b.lambda = make([]uint64, n, n+sortWords)
	}
	for i := range b.lambda {
		b.lambda[i] = productSlot
	}
}

// AddInput accumulates one chunk of (one of) the input sequences.
func (b *PermBuilder) AddInput(xs []uint64) {
	b.c.accumulateInto(b.lambda, xs, false)
}

// AddOutput accumulates one chunk of the asserted output sequence.
func (b *PermBuilder) AddOutput(xs []uint64) {
	b.c.accumulateInto(b.lambda, xs, true)
}

// Seal freezes the partial into one product segment.
func (b *PermBuilder) Seal() CheckState {
	words, seg := b.fingerprint()
	b.st.seal(b.stage, words, b.localOK, nil, seg)
	b.consume()
	return &b.st
}

// fingerprint returns the words Seal packs and their segment: the
// slots sealed in place, a word an iteration.
func (b *PermBuilder) fingerprint() ([]uint64, segment) {
	its := b.c.cfg.Iterations
	for it := range its {
		b.lambda[it] = ratioSlot(b.lambda[2*it], b.lambda[2*it+1])
	}
	b.lambda = b.lambda[:its]
	return b.lambda, wordSeg(segProduct, its)
}

// consume ends the builder's accumulating life.
func (b *PermBuilder) consume() {
	b.c.release()
	b.c = nil
}

// NewPermState is PermBuilder over one chunk per input and one of the
// output: output must be a permutation of the concatenation of inputs
// — with two inputs the Union checker of Corollary 12. Running time
// O(n/p + beta*64*its + alpha*log p) — Theorem 6.
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

// Seal freezes the partial into a product segment followed by the
// sortedness interval.
func (s *SortedBuilder) Seal() CheckState {
	b := &s.perm
	words, seg := b.fingerprint()
	b.st.seal(b.stage, append(words, s.interval[:]...), true, nil, seg, intervalSeg)
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

// Seal freezes the partial into one product segment, the placement
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
