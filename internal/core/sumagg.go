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
// Engineering follows Section 7.1 and takes it one step further. The
// bucket count d is a power of two, so one wide hash evaluation is
// partitioned bit-parallel into the bucket indices of as many
// iterations as its bits cover (SumConfig.layout). The modulo is
// deferred — past overflow, to the end of a run of the kernel: the
// kernel sums values exactly, into signed int64 cells (a block with a
// value of 2^40 or more as two 32-bit halves, the high ones in cells of
// their own that the fold scales by 2^32), and lets g consecutive
// iterations that draw their bucket bits from the same hash value share
// one cell table indexed by the g concatenated indices, so an element
// costs ceil(its/g) updates (15×4: three tables of 1024 cells, three
// updates). One fold per run then adds each cell's value mod r into the
// counter of each of its g iterations — once per table, at the end of
// its sumRun — or one per 2^23 elements, before an int64 cell could
// overflow. The checker is linear — a counter is the sum of the values
// in its bucket, however those were summed on the way — so the table
// after Normalize is bit-identical for every g, chunking and value
// width, to AccumulateScalar's and to every earlier version's:
// verdicts, table size and delta do not depend on the kernel's plan.
// See addCells and groupSize.
//
// Every PE builds its own SumChecker from the shared seed, which yields
// identical hash functions and moduli everywhere. After construction
// the checker itself is read-only on the accumulation paths: concurrent
// runs on one instance are safe as long as they fill disjoint tables,
// because each run holds its own cells from scratchPool until it has
// folded them. SumAggBuilder and the average and median states fill
// its tables through sumRun; outside this package only tests build one.
type SumChecker struct {
	cfg     SumConfig
	mods    []uint64 // modulus r per iteration
	pow64   []uint64 // 2^64 mod r per iteration, the overflow correction
	hashers []hashing.Hasher
	// How bucket bits lie in the hash values: an iteration's index is
	// width bits wide and perHash consecutive iterations draw theirs
	// from one value (SumConfig.layout).
	width, perHash int
	// hs holds the hashers of a checker that needs at most inlineHashers
	// of them, as the default configurations do.
	hs [inlineHashers]hashing.Hasher
}

// inlineHashers is how many hash functions a checker holds without an
// allocation of their own (SumChecker.hs): one CRC hash value feeds all
// fifteen iterations of the default 15×4 sum checker. A larger array
// would cost every builder more bytes than the allocation it saves.
const inlineHashers = 2

// NewSumChecker derives a checker instance from cfg and a shared seed.
func NewSumChecker(cfg SumConfig, seed uint64) *SumChecker {
	c := new(SumChecker)
	c.init(cfg, seed)
	return c
}

// init builds the checker in place. Its per-iteration arrays (mods,
// pow64) share one allocation, and the hashers sit in c.hs when they
// fit — a checker is built per stage, per job, per rank in service
// mode.
func (c *SumChecker) init(cfg SumConfig, seed uint64) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	*c = SumChecker{cfg: cfg}
	its := cfg.Iterations
	var nHashes int
	c.width, c.perHash, nHashes = cfg.layout()
	words := make([]uint64, 2*its)
	c.mods, c.pow64 = words[:its:its], words[its:]
	// The moduli come from the same kind of stream as the hash seeds
	// below, in a domain of their own; rhat is a power of two, so
	// masking an output is an exactly uniform draw below it.
	ms := seed ^ 0xc0dec0dec0dec0de
	rhat := uint64(1) << cfg.RHatLog
	for i := range c.mods {
		// r uniform in rhat+1 .. 2*rhat.
		r := rhat + 1 + hashing.SplitMix64(&ms)&(rhat-1)
		c.mods[i] = r
		c.pow64[i] = -r % r // (2^64 - r) mod r
	}
	// hashing.SubSeeds' stream, drawn in place as permChecker.init does.
	hs := seed ^ 0x5eed5eed5eed5eed
	if nHashes <= len(c.hs) {
		c.hashers = c.hs[:nHashes:nHashes]
	} else {
		c.hashers = make([]hashing.Hasher, nHashes)
	}
	for i := range c.hashers {
		c.hashers[i] = cfg.Family.New(hashing.SplitMix64(&hs))
	}
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

// accBlock is the number of elements gathered per batch-hash block:
// large enough to amortise the batch call and keep one group's cell
// table hot across the block, small enough that the per-block scratch
// arrays (keys, hashes, signed values — 6 KiB total) fit L1 alongside
// the cells.
const accBlock = 256

// narrowBits splits the blocks of a run: a block whose every value, as
// its feed reads it, is below 2^narrowBits adds its values into the
// kernel's cells, and a block with a wider value adds their 32-bit
// halves, the low ones into the same cells and the high ones into a
// second array of int64 cells (accScratch.high).
const narrowBits = 40

// foldTerms is how many elements a run adds into its cells before it
// folds them: 2^23 terms below 2^40 in magnitude sum to less than 2^63,
// so neither a cell nor a sum of a group's cells (the fold's marginals)
// can overflow. A wide block's halves are below 2^32, so its elements
// count the same. A variable only so that tests can lower it and run
// the fold that comes before the bound.
var foldTerms = 1 << 23

// feed is how one kernel run reads its elements: value&vmask|one is an
// element's value (vmask = 0, one = 1 in count mode), and neg = ^0
// subtracts it instead of adding it. A builder's output side is a
// subtracting feed, so its cells hold input minus output — the checker
// is linear — and one fold serves both sides.
type feed struct{ vmask, one, neg uint64 }

var (
	sumFeed      = feed{vmask: ^uint64(0)}
	countFeed    = feed{one: 1}
	outFeed      = feed{vmask: ^uint64(0), neg: ^uint64(0)}
	countOutFeed = feed{one: 1, neg: ^uint64(0)}
)

// value returns an element's value as the feed reads it, unsigned.
func (f feed) value(v uint64) uint64 { return v&f.vmask | f.one }

// signed returns x, a value or a half of one below 2^63, negated if f
// subtracts.
func (f feed) signed(x uint64) int64 { return int64(x ^ f.neg - f.neg) }

// accScratch is what one run of the kernel borrows: the batch-hash
// block buffers, its cell tables and its plan. The buffers are handed
// to Hash64Batch through the Hasher interface, which makes them escape
// — declared as locals they would be fresh heap allocations on every
// call — and the bulk plan's cells are 24 KiB. A sync.Pool caps that at
// one live scratch per accumulating sumRun, so the steady state
// allocates none (guarded by the alloc tests). A run holds its scratch
// from its first chunk to finish.
//
// Every cell of a pooled scratch is zero, in both arrays, over each
// slice's whole capacity: the fold that ends a run zeroes what the run
// dirtied, and a run that does not reach its fold (a panicking hasher)
// does not return its scratch.
type accScratch struct {
	keys, hs [accBlock]uint64
	// terms holds a block's signed values, as its feed reads them, or a
	// wide block's signed low halves: the lane kernels then read one word
	// an element and keep no feed in their registers.
	terms [accBlock]int64
	cells []int64 // the plan's cells
	// high mirrors cells for the high halves of the blocks with a value
	// of 2^narrowBits or more, and highs holds such a block's signed high
	// halves. Both grow on the first such block, so a run that has none,
	// every run of a count checker among them, never pays for them.
	high, highs []int64
	plan        []group // the run's plan, see appendPlan
	unfold      int     // elements added into the cells since they were folded
	// highUsed says that a block of this run went into high.
	highUsed bool
	// planBuf backs plan up to fifteen groups, one per iteration of the
	// default 15×4, so a fresh scratch's plan allocates nothing.
	planBuf [15]group
}

var scratchPool = sync.Pool{New: func() any {
	s := new(accScratch)
	s.plan = s.planBuf[:0]
	return s
}}

// maxGroupBits caps a group's cell table at 2^10 cells = 8 KiB, so
// the table a block streams through stays L1-resident; one step wider
// (32k cells for three 5-bit iterations) is slower than no grouping at
// all. BenchmarkAblationGroupWidth re-measures it.
const maxGroupBits = 10

// groupSize is the plan of a run of the kernel over n elements, n read
// as at least minPlanElems: how many consecutive iterations share one
// cell table, indexed by their concatenated bucket bits, so that an
// element costs ceil(its/g) cell updates instead of its. The size rule
// takes the largest g such that
//
//   - g*width <= maxGroupBits (the table stays in L1),
//   - g <= min(perHash, its) (a group's bits come from one hash value,
//     and a wider g would plan the same groups), and
//   - 8 * 2^(g*width) <= n: the fold that ends the run scans every
//     cell of every group, so a table must be small beside the run;
//
// and 1 otherwise. Below that g it then prefers the largest group size
// at which the groups of the first hash value have a lane kernel's
// shape (lanesFor), if there is one: one pass that updates five cells
// an element beats four passes that update one each. The preferred g
// never falls as n grows, so a run that re-plans on its running count
// only ever widens its groups. A pure function of its arguments.
func groupSize(width, perHash, its, n int) int {
	n = max(n, minPlanElems)
	k := min(perHash, its)
	g := max(1, min(maxGroupBits/width, k))
	for g > 1 && 8<<(g*width) > n {
		g--
	}
	for l := g; l >= 1; l-- {
		if k%l == 0 && lanesFor(k/l, l*width) != 0 {
			return l
		}
	}
	return g
}

// group is one step of a run's plan: n iterations starting at it share
// the cell table cells[off:off+size], indexed by the size bits of hash
// value hash that start at shift. lanes, on the first group of a hash
// value, says that a lane kernel updates this group and the lanes-1
// after it in one pass (lanesFor); it is 0 where each group takes its
// own pass (cellsAdd).
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
		if gs := plan[head:]; gs[len(gs)-1].size == gs[0].size {
			plan[head].lanes = lanesFor(len(gs), gs[0].n*c.width)
		}
	}
	return plan
}

// lanesFor is the lane kernel that serves the groups of one hash value
// when there are groups of them, each of bits index bits: 5 for five
// 6-bit groups (cellLanes5x6) and 3 for three 10-bit ones
// (cellLanes3x10) — the 30 low bits of a value either way, the default
// 15×4's two plans — and 0 for any other shape, which keeps one
// cellsAdd pass per group. A loop over a runtime lane count measured
// slower than those passes; the gain needs constant shifts and masks.
func lanesFor(groups, bits int) int {
	if groups*bits == 30 && (groups == 5 || groups == 3) {
		return groups
	}
	return 0
}

// cellCount is how many cells the plan of s indexes.
func (s *accScratch) cellCount() int {
	tail := s.plan[len(s.plan)-1]
	return tail.off + tail.size
}

// plan makes s the scratch of a run at group size g: its plan and
// enough zero int64 cells for it.
func (c *SumChecker) plan(s *accScratch, g int) {
	s.plan = c.appendPlan(g, s.plan[:0])
	if need := s.cellCount(); cap(s.cells) < need {
		s.cells = make([]int64, need)
	}
}

// sumRun is one counter table's accumulation, the one fold policy of
// every table of the sum family: a SumAggBuilder's, the two lanes of
// an average state and the one or two of a median state (the cRed
// inner loop of Algorithm 1). Its cells come from scratchPool with its
// first chunk and are held until finish. The plan is the run's, not a
// chunk's: groupSize picks it from the running element count, never
// reading fewer than minPlanElems, and a fold happens only when a
// grown count widens the groups, before a cell could overflow
// (foldTerms) and once at finish — a stream of 256-pair chunks runs
// the same grouped plan as one chunk of the whole input. Chunk order
// is immaterial, and so is the feed of each chunk: the cells hold
// exact signed sums.
type sumRun struct {
	c     *SumChecker
	table []uint64    // the run's signed sum, congruent mod r
	s     *accScratch // the cells and plan, from the first chunk to finish
	n, g  int         // elements run through the cells, and their plan
}

// minPlanElems is the fewest elements a run plans for (groupSize): two
// blocks. A service-sized share — 2 000 pairs fed in 256-pair chunks —
// then runs its lane plan from the first chunk and folds once, at
// finish, instead of starting on narrow groups and folding them when
// its count grows; a run of the default 15×4 or of 6×32 re-plans at
// most once, into the bulk plan.
const minPlanElems = 2 * accBlock

// add runs one chunk through the run's cells with feed f, first
// folding the cells and re-planning if the running count now picks
// wider groups.
func (r *sumRun) add(pairs []data.Pair, f feed) {
	if len(pairs) == 0 {
		return
	}
	if r.s == nil {
		r.s = scratchPool.Get().(*accScratch)
	}
	r.n += len(pairs)
	if g := groupSize(r.c.width, r.c.perHash, r.c.cfg.Iterations, r.n); g != r.g {
		if r.g != 0 {
			r.c.fold(r.table, r.s)
		}
		r.c.plan(r.s, g)
		r.g = g
	}
	r.c.addCells(r.table, r.s, pairs, f)
}

// finish folds the cells once more, hands them back to scratchPool
// zeroed, and normalizes the table. The scratch goes back only after
// the fold — deliberately not deferred.
func (r *sumRun) finish() {
	if r.s != nil {
		r.c.fold(r.table, r.s)
		scratchPool.Put(r.s)
		r.s = nil
	}
	r.c.Normalize(r.table)
}

// addCells is the one accumulate kernel: every table of the sum family
// (sum, count, average, median) is filled through it. Keys are gathered
// into fixed-size blocks and hashed through the family's Hash64Batch,
// each hash function exactly once per block (the Section 7.1
// bit-parallel optimisation: hash j covers iterations
// j*perHash .. (j+1)*perHash-1 via bit groups). The block then streams
// through one cell table per group of the plan's g iterations: the
// group's concatenated bucket bits pick a cell and the element's signed
// value is added to it exactly — in one pass for all the groups of a
// hash value where the plan has a lane kernel's shape, one pass per
// group otherwise (addGroups). A block whose values are all narrow
// (below 2^narrowBits; every block in count mode) adds its values. A
// block with a wider value is split into 32-bit halves: the same passes
// add the low halves into the cells and the high halves into the high
// array, which the fold scales by 2^32. The gather that copies a
// block's keys also writes its signed values and ORs the raw ones, so
// telling the two kinds apart costs no pass of its own. Nothing is
// folded, unless the cells have taken foldTerms elements: fold does
// that, once per run.
//
// Neither the split nor grouping can change a residue: a counter of
// the table receives the exact integer sum of the values of the
// elements that map to its bucket, merely summed per cell and per
// half first, and addition is associative. Tables are therefore
// bit-identical to AccumulateScalar's after Normalize for every plan
// and every chunking (the raw words differ only in when the folds
// canonicalise). With g = 1 the cell tables have the table's own its×d
// shape.
func (c *SumChecker) addCells(table []uint64, s *accScratch, pairs []data.Pair, f feed) {
	plan := s.plan
	cells := s.cells[:s.cellCount()]
	for start := 0; start < len(pairs); start += accBlock {
		blk := pairs[start:min(start+accBlock, len(pairs))]
		keys, hb, vs := s.keys[:len(blk)], s.hs[:len(blk)], s.terms[:len(blk)]
		// The bound's fold comes first: it clears highUsed, so the high
		// halves of this block must be set up after it.
		if s.unfold+len(blk) > foldTerms {
			c.fold(table, s)
		}
		s.unfold += len(blk)
		var high, hvs []int64
		if f.value(gather(keys, vs, blk, f)) >= 1<<narrowBits {
			if cap(s.high) < len(cells) {
				s.high, s.highs = make([]int64, len(cells)), make([]int64, accBlock)
			}
			high, hvs = s.high[:len(cells)], s.highs[:len(blk)]
			split(vs, hvs, blk, f)
			s.highUsed = true
		}
		for i := 0; i < len(plan); {
			gr := &plan[i]
			if gr.shift == 0 { // the first group to read this hash value
				c.hashers[gr.hash].Hash64Batch(hb, keys)
			}
			n := addGroups(cells, gr, hb, vs)
			if high != nil {
				addGroups(high, gr, hb, hvs)
			}
			i += n
		}
	}
}

// addGroups adds a block's signed terms into the cells of group gr —
// and, where gr starts a lane kernel's shape, of the groups after it
// that the kernel serves in the same pass — and returns how many
// groups it updated.
func addGroups(cells []int64, gr *group, hb []uint64, terms []int64) int {
	switch gr.lanes {
	case 5:
		cellLanes5x6(cells[gr.off:gr.off+5<<6], hb, terms)
	case 3:
		cellLanes3x10(cells[gr.off:gr.off+3<<10], hb, terms)
	default:
		cellsAdd(cells[gr.off:gr.off+gr.size], hb, terms, gr.shift)
		return 1
	}
	return gr.lanes
}

// fold ends a run, or a stretch of foldTerms elements of one: every
// cell's exact signed value goes into the counter that its index bits
// name in each iteration of its group, and the cell is zeroed; the
// counters stay congruent mod r. The high cells, if a block of the
// stretch was wide, fold the same way, scaled by 2^32.
func (c *SumChecker) fold(table []uint64, s *accScratch) {
	for i := range s.plan {
		gr := &s.plan[i]
		c.foldGroup(table, gr, s.cells[gr.off:gr.off+gr.size], false)
		if s.highUsed {
			c.foldGroup(table, gr, s.high[gr.off:gr.off+gr.size], true)
		}
	}
	s.unfold, s.highUsed = 0, false
}

// foldGroup folds the cells grp of group gr into the table and zeroes
// them; high says they hold high halves. A group of one iteration
// folds its cells as they are. A group of several is folded the way
// the lanes fill it, one pass per iteration: the pass reads the cells
// in runs of d, adds each run into the iteration's d marginals — a
// run's cells differ in their low index bits, the iteration's bucket —
// and writes the run's sum back in place, so that the next iteration's
// bits are the low ones of cells d times fewer. No pass shifts an index
// or checks a bound per cell, and only the marginals are reduced mod r.
// Nothing overflows: every element adds into one cell of a group, so a
// marginal or a run's sum is a sum over some of the at most foldTerms
// elements the cells have taken, each below 2^40 in magnitude.
func (c *SumChecker) foldGroup(table []uint64, gr *group, grp []int64, high bool) {
	d := c.cfg.Buckets
	if gr.n == 1 { // the cells are the sums
		foldSums(table[gr.it*d:(gr.it+1)*d], grp[:d], c.pow64[gr.it], c.mods[gr.it], high)
		return
	}
	var sums [maxMarginals]int64
	cur := grp
	for it := gr.it; it < gr.it+gr.n; it++ {
		cur = marginals(sums[:d], cur)
		foldSums(table[it*d:(it+1)*d], sums[:d], c.pow64[it], c.mods[it], high)
	}
	clear(grp)
}

// maxMarginals is the most buckets a group of several iterations has:
// 2^5, since two iterations share at most maxGroupBits index bits. The
// groups the ablation benchmarks force stay within it too.
const maxMarginals = 32

// marginals adds each run of len(sums) cells into sums, element-wise,
// and replaces the cells by the runs' sums: it returns the first
// len(cells)/len(sums) cells, which hold them.
func marginals(sums, cells []int64) []int64 {
	d := len(sums)
	n := len(cells) / d
	if d == 4 { // the default 15×4's groups, with the sums in registers
		var m0, m1, m2, m3 int64
		for i := 0; i < n; i++ {
			run := (*[4]int64)(cells[4*i:])
			m0, m1, m2, m3 = m0+run[0], m1+run[1], m2+run[2], m3+run[3]
			cells[i] = run[0] + run[1] + run[2] + run[3]
		}
		sums[0], sums[1], sums[2], sums[3] = sums[0]+m0, sums[1]+m1, sums[2]+m2, sums[3]+m3
		return cells[:n]
	}
	for i := 0; i < n; i++ {
		run := cells[i*d : i*d+d]
		m := sums[:len(run)]
		var sum int64
		for b, v := range run {
			m[b] += v
			sum += v
		}
		cells[i] = sum
	}
	return cells[:n]
}

// foldSums adds each non-zero sum — times 2^32 if high — into the
// counter of its bucket in row, congruent mod r given p64 = 2^64 mod r,
// and zeroes the sums. The sign of a plain sum costs no branch: a
// negative sum goes in as its two's complement word, which adds 2^64
// too many, and then r - p64, which takes the p64 ≡ 2^64 out again.
func foldSums(row []uint64, sums []int64, p64, r uint64, high bool) {
	row = row[:len(sums)]
	for b, v := range sums {
		if v == 0 {
			continue
		}
		if high {
			row[b] = addFold(row[b], shifted32(v, r), p64)
		} else {
			row[b] = addFold(addFold(row[b], uint64(v), p64), (r-p64)&uint64(v>>63), p64)
		}
		sums[b] = 0
	}
}

// shifted32 returns v·2^32 mod r, canonical: one division of the
// 96-bit product, whose high word is first reduced below r if a small
// modulus needs it.
func shifted32(v int64, r uint64) uint64 {
	u := uint64(v)
	if v < 0 {
		u = -u
	}
	hi := u >> 32
	if hi >= r {
		hi %= r
	}
	_, m := bits.Div64(hi, u<<32, r)
	if v < 0 && m != 0 {
		m = r - m
	}
	return m
}

// gather copies a block's keys into the contiguous buffer Hash64Batch
// reads and its values, signed as feed f reads them, into terms, and
// returns the OR of the block's raw values, which says whether they
// are all narrow (a wide block's terms are then split). A standalone
// leaf for the registers, like cellsAdd: inlined into addCells, whose
// loops keep every register busy, the loop index can end up on the
// stack, and the copy then costs more than the hash it feeds.
//
//go:noinline
func gather(keys []uint64, terms []int64, blk []data.Pair, f feed) (or uint64) {
	keys, terms = keys[:len(blk)], terms[:len(blk)]
	for i := range blk {
		keys[i] = blk[i].Key
		terms[i] = f.signed(f.value(blk[i].Value))
		or |= blk[i].Value
	}
	return or
}

// split writes a wide block's values, as feed f reads them, into lo and
// hi as their signed low and high 32-bit halves. A standalone leaf, like
// gather, so that it costs addCells no registers.
//
//go:noinline
func split(lo, hi []int64, blk []data.Pair, f feed) {
	lo, hi = lo[:len(blk)], hi[:len(blk)]
	for i := range blk {
		v := f.value(blk[i].Value)
		lo[i], hi[i] = f.signed(v&(1<<32-1)), f.signed(v>>32)
	}
}

// cellLanes5x6 is cellsAdd for five groups of 64 cells that draw their
// indices from bits 0–29 of one hash value, six bits each: the g = 3
// plan of a 15×4 checker (and g = 6 of 30×2). One pass over the block
// reads each hash value and each signed value once and updates all five
// cells. The lanes lie side by side in one fixed-size array, so a
// lane's offset plus its mask bounds every index and the loop has no
// bounds check; the constant shifts and masks are what make it faster
// than five cellsAdd passes.
//
//go:noinline
func cellLanes5x6(cells []int64, hb []uint64, terms []int64) {
	const w, m = 6, 1<<6 - 1
	l := (*[5 << w]int64)(cells)
	terms = terms[:len(hb)]
	for i, h := range hb {
		x := terms[i]
		l[h&m] += x
		l[1<<w+h>>w&m] += x
		l[2<<w+h>>(2*w)&m] += x
		l[3<<w+h>>(3*w)&m] += x
		l[4<<w+h>>(4*w)&m] += x
	}
}

// cellLanes3x10 is cellLanes5x6 for three groups of 1024 cells on bits
// 0–29, ten bits each: the bulk plan of 6×32 (g = 2), 15×4 (g = 5) and
// 30×2 (g = 10).
//
//go:noinline
func cellLanes3x10(cells []int64, hb []uint64, terms []int64) {
	const w, m = 10, 1<<10 - 1
	l := (*[3 << w]int64)(cells)
	terms = terms[:len(hb)]
	for i, h := range hb {
		x := terms[i]
		l[h&m] += x
		l[1<<w+h>>w&m] += x
		l[2<<w+h>>(2*w)&m] += x
	}
}

// cellsAdd streams one block of hashed narrow elements through one
// group's int64 cells (a power of two of them: index bits at shift). A
// standalone leaf so the prover eliminates every bounds check — masking
// with len(cells)-1 is exactly the index mask.
//
//go:noinline
func cellsAdd(cells []int64, hb []uint64, terms []int64, shift uint) {
	if len(cells) == 0 {
		return // lets the prover see m below cannot wrap
	}
	m := uint64(len(cells) - 1)
	terms = terms[:len(hb)]
	for i, h := range hb {
		cells[(h>>(shift&63))&m] += terms[i]
	}
}

// AccumulateScalar is the element-major scalar reference loop — the
// pre-batch implementation, division fold and all: one interface call
// per hash evaluation, counters updated element by element. Its tables
// are congruent entry-wise to a sumRun's and bit-identical after
// Normalize (same hash values, same bucket assignment, folds differ
// only in when they canonicalise). It exists so ablation benchmarks and
// property tests can compare the batched hot path against the seed
// behavior in the same binary.
func (c *SumChecker) AccumulateScalar(table []uint64, pairs []data.Pair, count bool) {
	d := c.cfg.Buckets
	mask := uint64(d - 1)
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
	for i := range pairs {
		key, v := pairs[i].Key, uint64(1)
		if !count {
			v = pairs[i].Value
		}
		// Each hash value's bucket bits, peeled off iteration by
		// iteration.
		var h uint64
		for it := 0; it < c.cfg.Iterations; it++ {
			if it%c.perHash == 0 {
				h = c.hashers[it/c.perHash].Hash64(key)
			}
			addRef(it*d+int(h&mask), it, v)
			h >>= c.width
		}
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

// allZero reports whether every counter is zero.
func allZero(table []uint64) bool {
	for _, v := range table {
		if v != 0 {
			return false
		}
	}
	return true
}
