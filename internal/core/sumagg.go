package core

import (
	"math/bits"
	"sync"

	"repro/internal/data"
	"repro/internal/hashing"
)

// SumChecker is one instantiation of the sum aggregation checker
// (Algorithm 1): a condensed reduction of (key, value) pairs into
// Iterations × Buckets counters, each accumulated modulo a per-iteration
// random modulus r in (rhat, 2*rhat].
//
// Engineering follows Section 7.1 and takes it one step further. All
// iterations share one wide hash evaluation that is partitioned
// bit-parallel into bucket indices (for power-of-two d), and the modulo
// is deferred — past overflow, to the end of the call: the accumulate
// kernel sums values exactly, into 128-bit cells {lo, hi} updated by
// lo += v; hi += carry, and lets g consecutive iterations that draw
// their bucket bits from the same hash value share one cell table
// indexed by the g concatenated indices, so an element costs
// ceil(its/g) updates (6×32: three tables of 1024 cells, three
// updates). One fold per call then adds each non-zero cell's value
// mod r into the counter of each of its g iterations. The checker is
// linear — a counter is the sum of the values in its bucket, however
// those were summed on the way — so the table after Normalize is
// bit-identical for every g, to AccumulateScalar's and to every
// earlier version's: verdicts, table size and delta do not depend on
// the kernel's plan. See accumulate and groupSize.
//
// Every PE builds its own SumChecker from the shared seed, which yields
// identical hash functions and moduli everywhere. After construction
// the checker itself is read-only on the accumulation paths: concurrent
// Accumulate/AccumulateCount calls on one instance are safe as long as
// they target disjoint tables (the ParallelAccumulator contract; their
// scratch is pooled per goroutine). The prepare/bucketOf helpers used
// by AccumulateSigned and AccumulateScalar mutate the shared hbuf
// scratch and are NOT safe to call concurrently.
type SumChecker struct {
	cfg     SumConfig
	mods    []uint64 // modulus r per iteration
	pow64   []uint64 // 2^64 mod r per iteration, the overflow correction
	hashers []hashing.Hasher
	pow2    bool
	// forceG is for the ablation benchmarks only: a fixed group size,
	// 0 = groupSize. 32 bits, so that it shares pow2's word: one more
	// word would carry a builder into the next allocation size class.
	forceG int32
	hbuf   []uint64 // scratch hash values for the current element
	// How bucket bits lie in the hash values: an iteration's index is
	// width bits wide and perHash consecutive iterations draw theirs
	// from one value (hashing.Splitter's partition). General d is the
	// degenerate case: one hash per iteration, reduced mod d, which the
	// accumulate kernel keeps in a row of 2^width >= d cells.
	width, perHash int
	// hs holds the hashers of a checker that needs at most inlineHashers
	// of them, as the default configurations do.
	hs [inlineHashers]hashing.Hasher
}

// inlineHashers is how many hash functions a checker holds without an
// allocation of their own (SumChecker.hs, PermChecker.hs): one 6×32 CRC
// hash value feeds all six iterations of the default sum checker, and
// the default permutation checker has two iterations. A larger array
// would cost every builder more bytes than the allocation it saves.
const inlineHashers = 2

// NewSumChecker derives a checker instance from cfg and a shared seed.
func NewSumChecker(cfg SumConfig, seed uint64) *SumChecker {
	return newSumChecker(cfg, seed, false, 0)
}

// newSumChecker optionally disables the Section 7.1 bit-parallel path
// (one hash evaluation feeding all iterations), or pins the accumulate
// kernel's group size instead of deriving it per call, so the ablation
// benchmarks can quantify what each buys.
func newSumChecker(cfg SumConfig, seed uint64, forceGeneral bool, forceG int) *SumChecker {
	c := new(SumChecker)
	c.init(cfg, seed, forceGeneral, forceG)
	return c
}

// init builds the checker in place. Its per-iteration arrays (mods,
// pow64) and the hash scratch share one allocation, and the hashers sit
// in c.hs when they fit — a checker is built per stage, per job, per
// rank in service mode.
func (c *SumChecker) init(cfg SumConfig, seed uint64, forceGeneral bool, forceG int) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	*c = SumChecker{cfg: cfg, forceG: int32(forceG)}
	c.pow2 = hashing.IsPow2(cfg.Buckets) && !forceGeneral
	its := cfg.Iterations
	nHashes, nbuf := its, 0 // general d: one independent hash per iteration, bucket = h mod d
	c.width, c.perHash = bits.Len(uint(cfg.Buckets-1)), 1
	if c.pow2 {
		split := hashing.NewSplitter(cfg.Buckets, its, cfg.Family.Bits)
		c.perHash = split.PerHash()
		nHashes = split.HashesNeeded()
		nbuf = nHashes
	}
	words := make([]uint64, 2*its+nbuf)
	c.mods, c.pow64, c.hbuf = words[:its:its], words[its:2*its:2*its], words[2*its:]
	// The moduli come from the same kind of stream as the hash seeds
	// below, in a domain of their own; rhat is a power of two, so
	// masking an output is an exactly uniform draw below it.
	ms := seed ^ 0xc0dec0dec0dec0de
	rhat := uint64(1) << cfg.RHatLog
	for i := range c.mods {
		// r uniform in rhat+1 .. 2*rhat.
		r := rhat + 1 + hashing.SplitMix64(&ms)&(rhat-1)
		c.mods[i] = r
		c.pow64[i] = (((1 << 63) % r) * 2) % r
	}
	// hashing.SubSeeds' stream, drawn in place as NewPermChecker does.
	hs := seed ^ 0x5eed5eed5eed5eed
	c.hashers = inlineOr(&c.hs, nHashes)
	for i := range c.hashers {
		c.hashers[i] = cfg.Family.New(hashing.SplitMix64(&hs))
	}
}

// inlineOr returns the first n entries of inline, or a new slice when n
// exceeds it.
func inlineOr[T any](inline *[inlineHashers]T, n int) []T {
	if n <= len(inline) {
		return inline[:n:n]
	}
	return make([]T, n)
}

// TableWords is the number of 64-bit counters (#its * d) a table holds
// in memory while it accumulates. It is not what goes on the wire: a
// sealed state packs each counter into RHatLog+1 bits, TableBits in all.
func (c *SumChecker) TableWords() int { return c.cfg.Iterations * c.cfg.Buckets }

// NewTable allocates a zeroed counter table.
func (c *SumChecker) NewTable() []uint64 { return make([]uint64, c.TableWords()) }

// addFold returns counter a plus v, deferring the modulo to overflow
// events: the result stays congruent to the true sum modulo r, given
// p64 = 2^64 mod r. The fold is division-free — a wrap lost exactly
// 2^64 ≡ p64 (mod r), so adding p64 restores congruence; if that
// addition wraps again the same identity folds the second loss (and
// then cannot wrap a third time, since the twice-wrapped value is below
// p64 < r <= 2^63). It is also branch-free, through the 0/-1 carry
// masks: for full-width values the carry is a coin flip.
func addFold(a, v, p64 uint64) uint64 {
	sum, c1 := bits.Add64(a, v, 0)
	sum, c2 := bits.Add64(sum, p64&-c1, 0)
	return sum + p64&-c2
}

// add accumulates v into counter idx of iteration it; see addFold.
func (c *SumChecker) add(table []uint64, idx, it int, v uint64) {
	table[idx] = addFold(table[idx], v, c.pow64[it])
}

// prepare evaluates the bit-parallel path's hash functions on key into
// c.hbuf, for bucketOf to split.
func (c *SumChecker) prepare(key uint64) {
	if c.pow2 {
		for j := range c.hashers {
			c.hbuf[j] = c.hashers[j].Hash64(key)
		}
	}
}

// bucketOf returns the bucket of key in iteration it, using the hash
// values prepared in c.hbuf for the bit-parallel path.
func (c *SumChecker) bucketOf(key uint64, it int) int {
	if c.pow2 {
		h := c.hbuf[it/c.perHash] >> (it % c.perHash * c.width)
		return int(h & uint64(c.cfg.Buckets-1))
	}
	return int(c.hashers[it].Hash64(key) % uint64(c.cfg.Buckets))
}

// accBlock is the number of elements gathered per batch-hash block:
// large enough to amortise the batch call and keep one group's cell
// table hot across the block, small enough that the two per-block
// scratch arrays (keys, hashes — 4 KiB total) fit L1 alongside the
// cells.
const accBlock = 256

// cell is one exact counter of the accumulate kernel: the integer
// lo + hi·2^64, where hi counts the carries out of lo. An update is two
// adds — no modulus, no 2^64 mod r — and a cell cannot overflow (hi
// grows by at most one per element).
type cell struct{ lo, hi uint64 }

// accScratch is what one accumulate call borrows: the batch-hash block
// buffers and, for the sum kernel, its cell tables. The buffers are
// handed to Hash64Batch through the Hasher interface, which makes them
// escape — declared as locals they would be fresh heap allocations on
// every Accumulate call, a real cost when chunked streaming issues one
// call per small chunk, and the grouped plan's cells are 48 KiB for
// 6×32. A sync.Pool caps that at one live scratch per concurrently
// accumulating goroutine; sub-threshold chunks therefore allocate
// nothing (guarded by parallel_alloc_test.go).
//
// Every cell of a pooled scratch is zero, over the slice's whole
// capacity: the fold that ends a sum call zeroes what the call dirtied,
// and a call that does not reach its fold (a panicking hasher) does not
// return its scratch.
type accScratch struct {
	keys, hs [accBlock]uint64
	cells    []cell
	plan     []group // the sum call's plan, see appendPlan
	// planBuf backs plan up to the six groups of the default 6×32
	// checker, so a fresh scratch's plan allocates nothing; the scratch
	// stays in the allocation size class it had without a plan.
	planBuf [6]group
}

var scratchPool = sync.Pool{New: func() any {
	s := new(accScratch)
	s.plan = s.planBuf[:0]
	return s
}}

// maxGroupBits caps a group's cell table at 2^10 cells = 16 KiB, so
// the table a block streams through stays L1-resident; one step wider
// (32k cells for three 5-bit iterations) is slower than no grouping at
// all. BenchmarkAblationGroupWidth re-measures it.
const maxGroupBits = 10

// groupSize is the plan of one accumulate call: how many consecutive
// iterations share one cell table, indexed by their concatenated
// bucket bits, so that an element costs ceil(its/g) cell updates
// instead of its. It is the largest g such that
//
//   - g*width <= maxGroupBits (the table stays in L1),
//   - g <= perHash (a group's bits come from one hash value), and
//   - 8 * 2^(g*width) <= n: the fold that ends the call scans every
//     cell of every group, so a table must be small beside the call —
//     without this a 256-pair stream chunk would pay a 48 KiB scan;
//
// and 1 otherwise. A pure function of its arguments.
func groupSize(width, perHash, n int) int {
	g := max(1, min(maxGroupBits/width, perHash))
	for g > 1 && 8<<(g*width) > n {
		g--
	}
	return g
}

// group is one step of a call's plan: n iterations starting at it
// share the cell table cells[off:off+size], indexed by the size bits of
// hash value hash that start at shift. lanes, on the first group of a
// hash value, says that a hand-unrolled lane kernel updates this group
// and the lanes-1 after it in one pass (cellLanes6x5, cellLanes3x10);
// it is 0 where each group takes its own pass (cellsAdd).
type group struct {
	it, n, hash int
	shift       uint
	off, size   int
	lanes       int
}

// appendPlan appends the plan with group size g to plan in iteration
// order and returns it. A group is g iterations, cut short at the end
// of the hash value it draws its bits from and at the last iteration.
// The groups of a hash value lie side by side in the cells, and where
// they have one of the lane kernels' shapes their first group says so.
func (c *SumChecker) appendPlan(g int, plan []group) []group {
	off := 0
	for hash, first := 0, 0; first < c.cfg.Iterations; hash, first = hash+1, first+c.perHash {
		last := min(first+c.perHash, c.cfg.Iterations)
		head := len(plan)
		for it := first; it < last; it += g {
			n := min(g, last-it)
			size := 1 << (n * c.width)
			plan = append(plan, group{it: it, n: n, hash: hash, shift: uint((it - first) * c.width), off: off, size: size})
			off += size
		}
		plan[head].lanes = laneShape(plan[head:])
	}
	return plan
}

// laneShape is the lane kernel that serves the groups of one hash
// value: 6 for six 5-bit groups, 3 for three 10-bit ones — the two
// plans of the default 6×32 sum checker, at g = 1 and g = 2 — and 0
// for any other plan, which keeps one cellsAdd pass per group. A loop
// over a runtime lane count measured slower than those passes; the
// gain needs constant shifts and masks.
func laneShape(gs []group) int {
	for _, lanes := range []int{6, 3} {
		if len(gs) != lanes {
			continue
		}
		bits := 30 / lanes
		for _, gr := range gs {
			if gr.size != 1<<bits {
				return 0
			}
		}
		return lanes
	}
	return 0
}

// Accumulate folds pairs into the table (the cRed inner loop of
// Algorithm 1). Scratch comes from a shared pool, one set per
// accumulating goroutine, so concurrent calls on the same checker with
// disjoint tables are safe — the ParallelAccumulator contract — and
// repeated small-chunk calls allocate nothing.
func (c *SumChecker) Accumulate(table []uint64, pairs []data.Pair) {
	c.accumulate(table, pairs, false)
}

// AccumulateCount folds pairs into the table counting 1 per pair,
// regardless of values (count aggregation: "sum aggregation where the
// value of every element is mapped to 1", Section 4). It runs the same
// kernel as Accumulate and is likewise safe on disjoint tables.
func (c *SumChecker) AccumulateCount(table []uint64, pairs []data.Pair) {
	c.accumulate(table, pairs, true)
}

// accumulate is the one accumulate kernel. Keys are gathered into
// fixed-size blocks and hashed through the family's Hash64Batch, each
// hash function exactly once per block (the Section 7.1 bit-parallel
// optimisation: for pow2 d, hash j covers iterations j*perHash ..
// (j+1)*perHash-1 via bit groups). The block then streams through one
// cell table per group of groupSize iterations: the group's
// concatenated bucket bits pick a cell and the element's value is added
// to it exactly — in one pass for all the groups of a hash value where
// the plan has a lane kernel's shape (laneShape), one pass per group
// otherwise. When the call ends, each non-zero cell is folded into
// the counter of every iteration of its group — the cell's bits name
// the bucket in each — and zeroed.
//
// Grouping cannot change a residue: a counter of the table receives
// the exact integer sum of the values of the elements that map to its
// bucket, merely summed per cell first, and addition is associative.
// Tables are therefore bit-identical to AccumulateScalar's after
// Normalize for every plan (the raw words differ only in when the
// folds canonicalise).
//
// With g = 1 the cell tables have the table's own its×d shape. That
// plan also carries general (non-pow2) d: one hash per iteration,
// bucket = h mod d, in a row of the next power of two cells.
//
// A call costs n*ceil(its/g) updates plus a scan of its cells — at
// g = 1 its*d of them whatever n is, which is what a call of a few
// pairs against a wide table then mostly pays.
func (c *SumChecker) accumulate(table []uint64, pairs []data.Pair, count bool) {
	if len(pairs) == 0 {
		return
	}
	d, g := c.cfg.Buckets, int(c.forceG)
	if g == 0 {
		g = groupSize(c.width, c.perHash, len(pairs))
	}
	// The scratch goes back to the pool only after the fold below has
	// zeroed its cells — deliberately not deferred.
	s := scratchPool.Get().(*accScratch)
	plan := c.appendPlan(g, s.plan[:0])
	s.plan = plan
	tail := plan[len(plan)-1]
	need := tail.off + tail.size
	if cap(s.cells) < need {
		s.cells = make([]cell, need)
	}
	cells := s.cells[:need]
	// value&vmask|one is the value in sum mode and 1 in count mode.
	vmask, one := ^uint64(0), uint64(0)
	if count {
		vmask, one = 0, 1
	}
	for start := 0; start < len(pairs); start += accBlock {
		blk := pairs[start:min(start+accBlock, len(pairs))]
		keys, hb := s.keys[:len(blk)], s.hs[:len(blk)]
		gatherKeys(keys, blk)
		for i := 0; i < len(plan); i++ {
			gr := &plan[i]
			if gr.shift == 0 { // the first group to read this hash value
				c.hashers[gr.hash].Hash64Batch(hb, keys)
				if !c.pow2 {
					for i := range hb {
						hb[i] %= uint64(d)
					}
				}
			}
			switch gr.lanes {
			case 6:
				cellLanes6x5(cells[gr.off:gr.off+6<<5], hb, blk, vmask, one)
				i += 5
			case 3:
				cellLanes3x10(cells[gr.off:gr.off+3<<10], hb, blk, vmask, one)
				i += 2
			default:
				cellsAdd(cells[gr.off:gr.off+gr.size], hb, blk, gr.shift, vmask, one)
			}
		}
	}
	for _, gr := range plan {
		grp := cells[gr.off : gr.off+gr.size]
		for t := 0; t < gr.n; t++ {
			it := gr.it + t
			c.foldCells(table[it*d:(it+1)*d], grp, uint(t*c.width), it)
		}
		clear(grp)
	}
	scratchPool.Put(s)
}

// foldCells ends a call for one iteration of one group: every non-zero
// cell's exact value goes into the counter its index bits at shift
// name in row, the iteration's d counters, which stay congruent mod r.
// lo goes in as any value does; the carries weigh 2^64 each, so they
// go in as hi * (2^64 mod r) — reduced by a division only if that
// product itself passes 2^64, which takes both a large modulus and a
// cell that wrapped many times.
func (c *SumChecker) foldCells(row []uint64, grp []cell, shift uint, it int) {
	p64, r := c.pow64[it], c.mods[it]
	m := 1<<c.width - 1
	for x, cl := range grp {
		if cl.lo|cl.hi == 0 {
			continue
		}
		b := (x >> (shift & 63)) & m
		sum := addFold(row[b], cl.lo, p64)
		if cl.hi != 0 {
			ph, pl := bits.Mul64(cl.hi, p64)
			if ph != 0 {
				// ph < p64 < r, so the quotient fits.
				_, pl = bits.Div64(ph, pl, r)
			}
			sum = addFold(sum, pl, p64)
		}
		row[b] = sum
	}
}

// gatherKeys copies a block's keys into the contiguous buffer
// Hash64Batch reads. A standalone leaf for the registers, like
// cellsAdd: inlined into accumulate, whose closures keep every register
// busy, the loop index can end up on the stack, and the copy then
// costs more than the hash it feeds.
//
//go:noinline
func gatherKeys(keys []uint64, blk []data.Pair) {
	keys = keys[:len(blk)]
	for i := range blk {
		keys[i] = blk[i].Key
	}
}

// addCell adds v to a cell exactly: the carry out of lo is counted,
// not branched on.
func addCell(cl *cell, v uint64) {
	lo, carry := bits.Add64(cl.lo, v, 0)
	cl.lo = lo
	cl.hi += carry
}

// cellLanes6x5 is cellsAdd for six groups of 32 cells that draw their
// indices from bits 0–29 of one hash value, five bits each: the g = 1
// plan of a 6×32 checker. One pass over the block reads each hash value
// and each value once and updates all six cells. The lanes lie side by
// side in one fixed-size array, so a lane's offset plus its mask bounds
// every index and the loop has no bounds check; the constant shifts
// and masks are what make it faster than six cellsAdd passes.
//
//go:noinline
func cellLanes6x5(cells []cell, hb []uint64, blk []data.Pair, vmask, one uint64) {
	const w, m = 5, 1<<5 - 1
	l := (*[6 << w]cell)(cells)
	blk = blk[:len(hb)]
	for i, h := range hb {
		v := blk[i].Value&vmask | one
		addCell(&l[h&m], v)
		addCell(&l[1<<w+h>>w&m], v)
		addCell(&l[2<<w+h>>(2*w)&m], v)
		addCell(&l[3<<w+h>>(3*w)&m], v)
		addCell(&l[4<<w+h>>(4*w)&m], v)
		addCell(&l[5<<w+h>>(5*w)&m], v)
	}
}

// cellLanes3x10 is cellLanes6x5 for three groups of 1024 cells on bits
// 0–29, ten bits each: the g = 2 plan of a 6×32 checker.
//
//go:noinline
func cellLanes3x10(cells []cell, hb []uint64, blk []data.Pair, vmask, one uint64) {
	const w, m = 10, 1<<10 - 1
	l := (*[3 << w]cell)(cells)
	blk = blk[:len(hb)]
	for i, h := range hb {
		v := blk[i].Value&vmask | one
		addCell(&l[h&m], v)
		addCell(&l[1<<w+h>>w&m], v)
		addCell(&l[2<<w+h>>(2*w)&m], v)
	}
}

// cellsAdd streams one block of hashed elements through one group's
// cell table (a power of two cells: index bits at shift). A standalone
// leaf so the prover eliminates every bounds check — masking with
// len(cells)-1 is exactly the index mask. Values are read from the
// pairs in place, and the carry is counted rather than branched on: as
// a branch the random carry (every other add for full-width values)
// would mispredict.
//
//go:noinline
func cellsAdd(cells []cell, hb []uint64, blk []data.Pair, shift uint, vmask, one uint64) {
	if len(cells) == 0 {
		return // lets the prover see m below cannot wrap
	}
	m := uint64(len(cells) - 1)
	blk = blk[:len(hb)]
	for i, h := range hb {
		addCell(&cells[(h>>(shift&63))&m], blk[i].Value&vmask|one)
	}
}

// AccumulateScalar is the element-major scalar reference loop — the
// pre-batch implementation, division fold and all: one interface call
// per hash evaluation, counters updated element by element. Its tables
// are congruent entry-wise to Accumulate/AccumulateCount and
// bit-identical after Normalize (same hash values, same bucket
// assignment, folds differ only in when they canonicalise). It exists
// so ablation benchmarks and property tests can compare the batched
// hot path against the seed behavior in the same binary.
func (c *SumChecker) AccumulateScalar(table []uint64, pairs []data.Pair, count bool) {
	d := c.cfg.Buckets
	// The seed's deferred modulo: fold the lost 2^64 back with a real
	// division. The hot path replaced this with the branch-free
	// two-step add fold; the reference keeps the original so the bench
	// rows measure the full distance travelled.
	addRef := func(idx, it int, v uint64) {
		sum, carry := bits.Add64(table[idx], v, 0)
		if carry != 0 {
			r := c.mods[it]
			sum = sum%r + c.pow64[it]
		}
		table[idx] = sum
	}
	if c.pow2 && len(c.hashers) == 1 {
		// The historical Section 7.1 fast path: one hash evaluation per
		// element, bucket bits peeled off iteration by iteration.
		its := c.cfg.Iterations
		width := c.width
		mask := uint64(d - 1)
		hasher := c.hashers[0]
		for i := range pairs {
			v := uint64(1)
			if !count {
				v = pairs[i].Value
			}
			h := hasher.Hash64(pairs[i].Key)
			base := 0
			for it := 0; it < its; it++ {
				addRef(base+int(h&mask), it, v)
				h >>= width
				base += d
			}
		}
		return
	}
	for i := range pairs {
		key, v := pairs[i].Key, uint64(1)
		if !count {
			v = pairs[i].Value
		}
		c.prepare(key)
		for it := 0; it < c.cfg.Iterations; it++ {
			addRef(it*d+c.bucketOf(key, it), it, v)
		}
	}
}

// AccumulateSigned folds a signed per-key contribution into the table
// (used by the median checker's ±1 mapping). The signed count is
// reduced into each iteration's residue ring first.
func (c *SumChecker) AccumulateSigned(table []uint64, key uint64, count int64) {
	d := c.cfg.Buckets
	c.prepare(key)
	for it := 0; it < c.cfg.Iterations; it++ {
		r := c.mods[it]
		var v uint64
		if count >= 0 {
			v = uint64(count) % r
		} else {
			v = r - uint64(-count)%r
			if v == r {
				v = 0
			}
		}
		c.add(table, it*d+c.bucketOf(key, it), it, v)
	}
}

// Normalize reduces every counter into canonical form (< r).
func (c *SumChecker) Normalize(table []uint64) {
	d := c.cfg.Buckets
	for it := 0; it < c.cfg.Iterations; it++ {
		r := c.mods[it]
		for b := 0; b < d; b++ {
			table[it*d+b] %= r
		}
	}
}

// DiffInto computes (a - b) mod r entry-wise into out, which must have
// len(a); both tables must be normalized. out may alias a or b, so
// callers that are done with a table can reuse it as the destination
// and stay allocation-free.
func (c *SumChecker) DiffInto(out, a, b []uint64) {
	d := c.cfg.Buckets
	for it := 0; it < c.cfg.Iterations; it++ {
		r := c.mods[it]
		for i := it * d; i < (it+1)*d; i++ {
			if a[i] >= b[i] {
				out[i] = a[i] - b[i]
			} else {
				out[i] = a[i] + r - b[i]
			}
		}
	}
}

// diff normalizes the input-side table tv and the output-side table to
// and overwrites tv with their difference mod r, which it returns: both
// scratch tables are dead after this, so a sealed table allocates
// nothing further.
func (c *SumChecker) diff(tv, to []uint64) []uint64 {
	c.Normalize(tv)
	c.Normalize(to)
	c.DiffInto(tv, tv, to)
	return tv
}

// addMod adds src into dst entry-wise, each iteration's row of d
// counters modulo that iteration's r (mods): the combine of normalized
// tables across PEs, shards and lanes.
func addMod(dst, src, mods []uint64) {
	d := len(dst) / len(mods)
	for it, r := range mods {
		for i := it * d; i < (it+1)*d; i++ {
			s := dst[i] + src[i] // both < r <= 2^63: no overflow
			if s >= r {
				s -= r
			}
			dst[i] = s
		}
	}
}

// allZero reports whether every counter is zero.
func allZero(table []uint64) bool {
	for _, v := range table {
		if v != 0 {
			return false
		}
	}
	return true
}
