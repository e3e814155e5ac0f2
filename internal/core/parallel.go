package core

import (
	"runtime"
	"sync"

	"repro/internal/data"
	"repro/internal/hashing"
)

// ParallelAccumulator shards a checker's local accumulation phase — the
// Table 5 hot loop — across goroutines. The checker sketches are
// embarrassingly mergeable: every shard accumulates its contiguous
// chunk of the input into a private table (or fingerprint vector) and
// the shards combine with the checker's own reduce semantics, exactly
// as per-PE tables combine across the machine. Consequently the merged
// result is independent of the shard count:
//
//   - permutation fingerprints and polynomial products are bit-identical
//     to the serial loop for every worker count (wraparound addition mod
//     2^64 and field multiplication are commutative);
//   - sum checker tables are congruent mod r entry-wise and identical to
//     the serial table after Normalize (the raw words differ only in
//     when deferred-overflow folds fired), so every PE still computes
//     the same residues.
//
// The zero value runs serially; NewParallelAccumulator(n) bounds the
// fan-out by n. Inputs shorter than parMinShard elements per worker
// stay serial — and the serial path allocates nothing, so small-chunk
// streaming (which calls Accumulate* once per chunk) never pays a
// goroutine spawn or per-shard scratch tables. The alloc guards in
// parallel_alloc_test.go pin this down.
type ParallelAccumulator struct {
	workers int
}

// Serial preserves the single-goroutine behavior.
var Serial = ParallelAccumulator{workers: 1}

// NewParallelAccumulator returns an accumulator fanning out to at most
// n goroutines; n <= 0 selects runtime.GOMAXPROCS(0).
func NewParallelAccumulator(n int) ParallelAccumulator {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return ParallelAccumulator{workers: n}
}

// Workers reports the accumulator's goroutine bound.
func (p ParallelAccumulator) Workers() int {
	if p.workers < 1 {
		return 1
	}
	return p.workers
}

// parMinShard is the minimum number of elements per shard: at ~10-30
// ns/element a shard this size runs ~2 orders of magnitude longer than
// a goroutine spawn, and smaller inputs aren't worth fanning out.
const parMinShard = 4096

// shards bounds the fan-out for an input of n elements.
func (p ParallelAccumulator) shards(n int) int {
	w := p.Workers()
	if m := n / parMinShard; w > m {
		w = m
	}
	if w < 1 {
		w = 1
	}
	return w
}

// AccumulateSum is c.Accumulate sharded across the accumulator's
// goroutines: per-shard tables are normalized and merged with the
// checker's modular addition, then folded into table with the
// checker's deferred-overflow add, so the caller's table ends up
// congruent entry-wise to the serial result (bit-identical after
// Normalize) for every worker count. Every shard is one kernel call and
// plans its own group size from its own length.
func (p ParallelAccumulator) AccumulateSum(c *SumChecker, table []uint64, pairs []data.Pair) {
	p.accumulateSum(c, table, pairs, sumFeed)
}

// AccumulateCount is c.AccumulateCount sharded; see AccumulateSum.
func (p ParallelAccumulator) AccumulateCount(c *SumChecker, table []uint64, pairs []data.Pair) {
	p.accumulateSum(c, table, pairs, countFeed)
}

// accumulateSum runs pairs through the kernel with feed f, one call per
// shard. A subtracting feed leaves each shard table the negated sums'
// residues, which merge and fold like any others.
func (p ParallelAccumulator) accumulateSum(c *SumChecker, table []uint64, pairs []data.Pair, f feed) {
	w := p.shards(len(pairs))
	if w == 1 {
		c.accumulate(table, pairs, f)
		return
	}
	tables := make([][]uint64, w)
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		lo, hi := data.SplitEven(len(pairs), w, s)
		tbl := c.NewTable()
		tables[s] = tbl
		wg.Add(1)
		go func(chunk []data.Pair, tbl []uint64) {
			defer wg.Done()
			c.accumulate(tbl, chunk, f)
			c.Normalize(tbl)
		}(pairs[lo:hi], tbl)
	}
	wg.Wait()
	// Merge the normalized shard tables in shard order (the modular add
	// is commutative, but fixed order keeps this deterministic by
	// construction), then fold the canonical sums into the caller's
	// table, which may hold prior raw counters.
	merged := tables[0]
	for s := 1; s < w; s++ {
		addMod(merged, tables[s], c.mods)
	}
	d := c.cfg.Buckets
	for it := 0; it < c.cfg.Iterations; it++ {
		for b := 0; b < d; b++ {
			c.add(table, it*d+b, it, merged[it*d+b])
		}
	}
}

// AccumulatePerm is c.AccumulateInto sharded: per-shard fingerprint
// vectors combine by wraparound addition, which is commutative mod
// 2^64, so the sums are bit-identical to the serial loop for every
// worker count.
func (p ParallelAccumulator) AccumulatePerm(c *PermChecker, sums []uint64, xs []uint64, negate bool) {
	w := p.shards(len(xs))
	if w == 1 {
		c.AccumulateInto(sums, xs, negate)
		return
	}
	its := c.cfg.Iterations
	grid := make([]uint64, w*its)
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		lo, hi := data.SplitEven(len(xs), w, s)
		wg.Add(1)
		go func(part, chunk []uint64) {
			defer wg.Done()
			c.AccumulateInto(part, chunk, false)
		}(grid[s*its:(s+1)*its], xs[lo:hi])
	}
	wg.Wait()
	for s := 0; s < w; s++ {
		part := grid[s*its : (s+1)*its]
		for it := range part {
			if negate {
				sums[it] -= part[it]
			} else {
				sums[it] += part[it]
			}
		}
	}
}

// PolyProd61 is the sharded form of the package-level PolyProd61;
// partial products over contiguous chunks combine by field
// multiplication, so the product is bit-identical to the serial fold.
func (p ParallelAccumulator) PolyProd61(z uint64, xs []uint64) uint64 {
	w := p.shards(len(xs))
	if w == 1 {
		return PolyProd61(z, xs)
	}
	parts := make([]uint64, w)
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		lo, hi := data.SplitEven(len(xs), w, s)
		wg.Add(1)
		go func(s int, chunk []uint64) {
			defer wg.Done()
			parts[s] = PolyProd61(z, chunk)
		}(s, xs[lo:hi])
	}
	wg.Wait()
	prod := parts[0]
	for s := 1; s < w; s++ {
		prod = hashing.MulMod61(prod, parts[s])
	}
	return prod
}

// PolyProdGF is the sharded form of the package-level PolyProdGF; see
// PolyProd61.
func (p ParallelAccumulator) PolyProdGF(z uint64, xs []uint64) uint64 {
	w := p.shards(len(xs))
	if w == 1 {
		return PolyProdGF(z, xs)
	}
	parts := make([]uint64, w)
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		lo, hi := data.SplitEven(len(xs), w, s)
		wg.Add(1)
		go func(s int, chunk []uint64) {
			defer wg.Done()
			parts[s] = PolyProdGF(z, chunk)
		}(s, xs[lo:hi])
	}
	wg.Wait()
	prod := parts[0]
	for s := 1; s < w; s++ {
		prod = hashing.GF64Mul(prod, parts[s])
	}
	return prod
}
