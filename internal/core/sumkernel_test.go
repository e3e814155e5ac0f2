package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/workload"
)

// This file gates the accumulate kernel (sumagg.go: signed cells,
// groups, one fold per run): equivalence with the scalar oracle over
// every plan the size rule can pick, in runs and through builders fed
// in any chunking, scratch-pool hygiene, and a first slice of the
// escape-rate gate run through the grouped plans.

// kernelConfigs is every configuration the repo names plus the shapes
// that stress the plan: a group cut at a hash boundary, g = 3, g = 10,
// a group that ends short of g, g = 1 by width, a modulus
// wide enough that a carry count times 2^64 mod r passes 2^64, the
// default 15×4 CRC m10, and the lane kernels' shapes reached other than
// by 6×32 and 15×4 — three 10-bit and five 6-bit groups at g = 1, and
// six 5-bit, five 6-bit or three 10-bit groups of 1-bit iterations.
func kernelConfigs() []SumConfig {
	crc, tab, tab64, mix := hashing.FamilyCRC, hashing.FamilyTab, hashing.FamilyTab64, hashing.FamilyMix
	cfgs := append(AccuracyConfigs(), ScalingConfigs()...)
	return append(cfgs,
		SumConfig{Iterations: 7, Buckets: 32, RHatLog: 9, Family: crc}, // two hashes, 6 + 1
		SumConfig{Iterations: 12, Buckets: 8, RHatLog: 5, Family: crc}, // 10 + 2 as 3+3+3+1 | 2: perHash is no multiple of g
		SumConfig{Iterations: 3, Buckets: 8, RHatLog: 7, Family: crc},  // g = 3
		SumConfig{Iterations: 10, Buckets: 2, RHatLog: 5, Family: crc}, // g = 10
		SumConfig{Iterations: 5, Buckets: 16, RHatLog: 5, Family: tab}, // 2 + 2 + 1
		SumConfig{Iterations: 8, Buckets: 256, RHatLog: 15, Family: tab64},
		SumConfig{Iterations: 3, Buckets: 4, RHatLog: 62, Family: mix},
		SumConfig{Iterations: 3, Buckets: 1024, RHatLog: 12, Family: crc}, // 3 lanes at g = 1
		SumConfig{Iterations: 30, Buckets: 2, RHatLog: 5, Family: crc},    // 6 lanes at g = 5, 5 at g = 6, 3 at g = 10
		SumConfig{Iterations: 15, Buckets: 4, RHatLog: 10, Family: crc},   // the default: 5 lanes at g = 3, 3 at g = 5
		SumConfig{Iterations: 5, Buckets: 64, RHatLog: 7, Family: crc},    // 5 lanes at g = 1
	)
}

// planLengths returns the input lengths worth testing for cfg: the
// block edges and both sides of every length at which groupSize steps.
func planLengths(c *SumChecker) []int {
	ns := []int{0, 1, accBlock - 1, accBlock, accBlock + 1}
	for g := 2; g*c.width <= maxGroupBits && g <= c.perHash; g++ {
		t := 8 << (g * c.width)
		ns = append(ns, t-1, t, t+1)
	}
	return ns
}

// hotLen is the length of the one-hot-key shape: with every value
// 2^64-1 a single cell carries hotLen-1 times.
const hotLen = 70001

// kernelShapes are kernelPairs' value shapes.
var kernelShapes = []string{"small", "full", "ones", "hot", "edge"}

// kernelPairs builds n pairs in one of the value shapes. Keys mix a
// small universe (shared cells, repeated keys) with full-width ones.
// "edge" takes its values at the split: stretches of 300 pairs of
// 2^40-1, the largest narrow value, and small ones alternate with
// stretches of 2^40 and 2^64-1, so a run has narrow blocks, wide blocks
// and blocks that mix both, and a builder chunks of either kind.
func kernelPairs(shape string, n int, seed uint64) []data.Pair {
	rng := hashing.NewMT19937_64(seed)
	ps := make([]data.Pair, n)
	for i := range ps {
		key := rng.Uint64n(3000)
		if i%7 == 0 {
			key = rng.Uint64()
		}
		var v uint64
		switch shape {
		case "small":
			v = rng.Uint64n(1 << 30)
		case "full":
			v = rng.Uint64()
		case "ones":
			v = ^uint64(0)
		case "hot":
			key, v = 42, ^uint64(0)
		case "edge":
			if i/300%2 == 0 { // narrow: the largest narrow value or a small one
				v = 1<<narrowBits - 1
				if rng.Uint64n(2) == 0 {
					v = rng.Uint64n(1 << 30)
				}
			} else { // wide: the smallest wide value or the largest
				v = 1 << narrowBits
				if rng.Uint64n(2) == 0 {
					v = ^uint64(0)
				}
			}
		default:
			panic("unknown shape " + shape)
		}
		ps[i] = data.Pair{Key: key, Value: v}
	}
	return ps
}

// scalarTable is the oracle: AccumulateScalar, normalized.
func scalarTable(c *SumChecker, pairs []data.Pair, count bool) []uint64 {
	t := c.NewTable()
	c.AccumulateScalar(t, pairs, count)
	c.Normalize(t)
	return t
}

func requireTable(t *testing.T, c *SumChecker, got, want []uint64, what string) {
	t.Helper()
	c.Normalize(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s %s: counter %d (iteration %d, bucket %d) = %d, scalar oracle has %d",
				c.cfg.Name(), what, i, i/c.cfg.Buckets, i%c.cfg.Buckets, got[i], want[i])
		}
	}
}

// feedOf is a run's input feed in sum or count mode.
func feedOf(count bool) feed {
	if count {
		return countFeed
	}
	return sumFeed
}

// runInto is one sumRun of c over pairs with feed f into table,
// finished — folded and normalized — and returns the table.
func runInto(c *SumChecker, table []uint64, pairs []data.Pair, f feed) []uint64 {
	r := sumRun{c: c, table: table}
	r.add(pairs, f)
	r.finish()
	return table
}

// builderWant is the oracle of a builder fed in and out: the scalar
// tables of both sides, normalized, input minus output.
func builderWant(c *SumChecker, in, out []data.Pair, count bool) []uint64 {
	want := scalarTable(c, in, count)
	c.DiffInto(want, want, scalarTable(c, out, false))
	return want
}

// feedBuilder runs in and out through one builder in chunks of chunk
// pairs, the two sides' chunks interleaved, and seals it.
func feedBuilder(cfg SumConfig, seed uint64, count bool, in, out []data.Pair, chunk int) CheckState {
	b := NewSumAggBuilder("eq", cfg, seed, Serial, count)
	for lo := 0; lo < max(len(in), len(out)); lo += chunk {
		b.AddInput(in[min(lo, len(in)):min(lo+chunk, len(in))])
		b.AddOutput(out[min(lo, len(out)):min(lo+chunk, len(out))])
	}
	return b.Seal()
}

// requireSealed fails unless the sealed state st carries want, a
// normalized table, packed as a state packs it.
func requireSealed(t *testing.T, c *SumChecker, st CheckState, want []uint64, what string) {
	t.Helper()
	exp := newState("want", slices.Clone(want), true, c, tableSeg(c)).(*state).words
	got := st.(*state).words
	if !slices.Equal(got, exp) {
		i := 0
		for got[i] == exp[i] {
			i++
		}
		t.Fatalf("%s %s: sealed word %d of %d = %#x, the scalar oracle's is %#x",
			c.cfg.Name(), what, i, len(exp), got[i], exp[i])
	}
}

// countShape says whether a value shape runs in count mode too: count
// mode reads every value as 1, so one shape of narrow values and the
// one at the narrow/wide split (whose wide values count mode must not
// read) stand for all.
func countShape(shape string) bool { return shape == "small" || shape == "edge" }

// TestGroupedAccumulateMatchesScalar: the kernel's table equals the
// scalar oracle's after Normalize — for every configuration, value
// shape and plan, in sum and count mode: in one run at the plan the
// size rule picks for each length (forced, since a run plans on at
// least minPlanElems), in one run fed two chunks, whose second may
// widen the plan over cells that hold the first, and through
// SumAggBuilder, input added and an unrelated output subtracted, in 1-,
// 256- and 8192-pair chunks and whole. The edge shape has values either side of
// the int64 cells' bound, 2^40-1 and 2^40, and 2^64-1, in narrow, wide
// and mixed blocks, so the builder gets narrow and wide chunks
// interleaved, and in count mode narrow input beside wide output. Among the plans are all three lane
// kernels', at g = 1 and grouped: the 15×4 default takes five lanes at
// 8 191 pairs and three at 8 192, 6×32 six lanes at 8 191 and three at
// 8 192. A builder fed one pair at a time re-plans as its count grows,
// through every plan of its configuration.
func TestGroupedAccumulateMatchesScalar(t *testing.T) {
	// lanesAt records, per lane kernel, the group sizes it ran at.
	lanesAt := map[int]map[int]bool{6: {}, 5: {}, 3: {}}
	defer func() {
		for lanes, gs := range lanesAt {
			if !gs[1] || len(gs) < 2 {
				t.Errorf("the %d-lane kernel ran at group sizes %v, want g = 1 and a grouped plan", lanes, gs)
			}
		}
	}()
	for ci, cfg := range kernelConfigs() {
		seed := 1000 + uint64(ci)
		c := NewSumChecker(cfg, seed)
		lengths := planLengths(c)
		for _, n := range lengths {
			g := c.planFor(n)
			for _, gr := range c.appendPlan(g, nil) {
				if gr.lanes != 0 {
					lanesAt[gr.lanes][g] = true
				}
			}
		}
		for si, shape := range kernelShapes {
			ns := lengths
			if shape == "hot" {
				ns = []int{hotLen}
			}
			for _, n := range ns {
				pairs := kernelPairs(shape, n, uint64(ci*100+si))
				for _, count := range []bool{false, true} {
					if count && !countShape(shape) {
						continue // count mode ignores values
					}
					want := scalarTable(c, pairs, count)
					what := fmt.Sprintf("%s n=%d count=%v", shape, n, count)

					fc := newSumChecker(cfg, seed, false, c.planFor(n))
					requireTable(t, c, runInto(fc, fc.NewTable(), pairs, feedOf(count)), want, what)

					r := sumRun{c: c, table: c.NewTable()}
					r.add(pairs[:n/3], feedOf(count))
					r.add(pairs[n/3:], feedOf(count))
					r.finish()
					requireTable(t, c, r.table, want, what+" in two chunks")
				}
				// The builder route at the longest plan length, and
				// whole for the hot key (its 70k-pair input is what
				// makes the test slow under -race).
				chunks := []int{1, accBlock, 8192, n}
				switch {
				case n == hotLen:
					chunks = []int{n}
				case n != lengths[len(lengths)-1]:
					continue
				}
				out := kernelPairs(shape, n/2, uint64(ci*100+si+50))
				for _, count := range []bool{false, true} {
					if count && !countShape(shape) {
						continue
					}
					want := builderWant(c, pairs, out, count)
					for _, chunk := range chunks {
						st := feedBuilder(cfg, seed, count, pairs, out, chunk)
						requireSealed(t, c, st, want, fmt.Sprintf("builder %s n=%d count=%v chunk=%d", shape, n, count, chunk))
					}
				}
			}
		}
	}
}

// TestGroupSizeRule pins the plan: a pure function of (width, perHash,
// its, n) with the three limits the kernel's comment states and its
// preference for a lane kernel's shape.
func TestGroupSizeRule(t *testing.T) {
	cases := []struct{ width, perHash, its, n, want int }{
		{5, 6, 6, 125000, 2}, // 6×32 CRC, the benchmark's share: three lanes
		{5, 6, 6, 8192, 2},
		{5, 6, 6, 8191, 1}, // the n/8 rule: six lanes
		{5, 6, 6, 256, 1},  // a stream chunk
		{5, 6, 6, 0, 1},
		{2, 16, 15, 125000, 5}, // 15×4 CRC, the default: three lanes
		{2, 16, 15, 8192, 5},
		{2, 16, 15, 8191, 3}, // four 8-bit groups have no lane kernel, five 6-bit ones do
		{2, 16, 15, 2000, 3}, // a service job's share
		{2, 16, 15, 511, 2},  // no lane kernel at or below g = 2
		{2, 16, 15, 127, 1},
		{1, 32, 30, 1 << 30, 10}, // the L1 cap: three lanes
		{1, 32, 30, 8191, 6},     // nine 1-bit iterations: five lanes of six
		{1, 32, 30, 511, 5},      // six lanes of five
		{3, 10, 3, 4096, 3},
		{3, 10, 3, 4095, 2},
		{3, 10, 3, 511, 1},
		{1, 32, 32, 8192, 10},
		{1, 3, 3, 1 << 30, 3}, // the hash boundary
		{8, 8, 8, 1 << 30, 1},
		{12, 2, 2, 1 << 30, 1}, // wider than the cap
		{6, 1, 6, 1 << 30, 1},  // one hash per iteration (the ablation seam)
	}
	for _, cs := range cases {
		if got := groupSize(cs.width, cs.perHash, cs.its, cs.n); got != cs.want {
			t.Errorf("groupSize(width %d, perHash %d, its %d, n %d) = %d, want %d", cs.width, cs.perHash, cs.its, cs.n, got, cs.want)
		}
	}
}

// TestFoldBeforeCellBound lowers foldTerms to a block and a half, so a
// run folds its int64 cells every block or two, as a run of 2^23
// narrow elements does before a cell could overflow: in one run and
// through builders in 1-, 256- and 8192-pair chunks, in sum and count
// mode, the tables stay the oracle's, and no builder's scratch holds
// more unfolded elements than foldTerms.
func TestFoldBeforeCellBound(t *testing.T) {
	defer func(n int) { foldTerms = n }(foldTerms)
	foldTerms = accBlock * 3 / 2
	crc := hashing.FamilyCRC
	for _, cfg := range []SumConfig{
		{Iterations: 15, Buckets: 4, RHatLog: 10, Family: crc},
		{Iterations: 6, Buckets: 32, RHatLog: 9, Family: crc},
		{Iterations: 3, Buckets: 4, RHatLog: 62, Family: hashing.FamilyMix},
	} {
		c := NewSumChecker(cfg, 3)
		for _, shape := range []string{"small", "edge"} {
			in, out := kernelPairs(shape, 9000, 5), kernelPairs(shape, 3000, 6)
			for _, count := range []bool{false, true} {
				what := fmt.Sprintf("%s count=%v", shape, count)
				requireTable(t, c, runInto(c, c.NewTable(), in, feedOf(count)), scalarTable(c, in, count), what)
				want := builderWant(c, in, out, count)
				for _, chunk := range []int{1, accBlock, 8192} {
					b := NewSumAggBuilder("bound", cfg, 3, Serial, count)
					for lo := 0; lo < len(in); lo += chunk {
						b.AddInput(in[lo:min(lo+chunk, len(in))])
						b.AddOutput(out[min(lo, len(out)):min(lo+chunk, len(out))])
						// Every chunk of the small shape is narrow, so the
						// int64 cells hold some of its elements unfolded.
						if n := b.run.s.unfold; n > foldTerms || n == 0 && shape == "small" {
							t.Fatalf("%s %s chunk=%d: %d unfolded elements, want 1 to %d", cfg.Name(), what, chunk, n, foldTerms)
						}
					}
					requireSealed(t, c, b.Seal(), want, fmt.Sprintf("builder %s chunk=%d", what, chunk))
				}
			}
		}
	}
}

// TestBuilderPlansLanesFromFirstChunk pins the builder's plan floor:
// from its first 256-pair chunk a default 15×4 builder runs five 6-bit
// lanes (g = 3), the plan a 2 000-pair share ends in, and it re-plans
// once, into the bulk plan's three 10-bit lanes (g = 5), when its count
// reaches 8 192.
func TestBuilderPlansLanesFromFirstChunk(t *testing.T) {
	cfg := SumConfig{Iterations: 15, Buckets: 4, RHatLog: 10, Family: hashing.FamilyCRC}
	pairs := kernelPairs("small", 8192, 1)
	for _, count := range []bool{false, true} {
		b := NewSumAggBuilder("plan", cfg, 1, Serial, count)
		for lo := 0; lo < len(pairs); lo += accBlock {
			b.AddInput(pairs[lo : lo+accBlock])
			g, lanes := 3, 5
			if lo+accBlock >= 8192 {
				g, lanes = 5, 3
			}
			if b.run.g != g || b.run.s.plan[0].lanes != lanes {
				t.Fatalf("count=%v after %d pairs: g = %d with %d lanes, want g = %d with %d", count, lo+accBlock, b.run.g, b.run.s.plan[0].lanes, g, lanes)
			}
		}
		b.Seal()
	}
}

// fuzzPairs decodes a fuzz input's pairs: nine bytes a pair, a one-byte
// key (collisions) and a value, tiled tile times with the tiles' keys
// set apart, less a cut of up to 255 from the end.
func fuzzPairs(in []byte, tile, cut int) []data.Pair {
	base := make([]data.Pair, len(in)/9)
	for i := range base {
		rec := in[i*9:]
		base[i] = data.Pair{Key: uint64(rec[0]), Value: binary.LittleEndian.Uint64(rec[1:9])}
	}
	pairs := make([]data.Pair, 0, len(base)*tile)
	for r := 0; r < tile; r++ {
		for _, p := range base {
			pairs = append(pairs, data.Pair{Key: p.Key + uint64(r%5)<<40, Value: p.Value})
		}
	}
	return pairs[:len(pairs)-min(cut, len(pairs))]
}

// fuzzSeedPairs is a fuzz input of header followed by 64 pairs with
// distinct keys and a set top value byte; tiled 128 times they are
// 8 192 pairs.
func fuzzSeedPairs(header ...byte) []byte {
	in := append(header, make([]byte, 64*9)...)
	for i := len(header); i < len(in); i += 9 {
		in[i], in[i+8] = byte(i), byte(i*7) // key, top value byte
	}
	return in
}

// fuzzEdgeSeed is a fuzz input of header followed by 512 pairs over 256
// keys: 256 of narrow values, 2^40-1 and a small one in turn, then 256
// of wide ones, 2^40 and 2^64-1 in turn. Tiled whole, its blocks are
// narrow or wide; cut, they mix both.
func fuzzEdgeSeed(header ...byte) []byte {
	vals := [4]uint64{1<<narrowBits - 1, 1 << 29, 1 << narrowBits, ^uint64(0)}
	in := header
	for i := 0; i < 2*accBlock; i++ {
		in = binary.LittleEndian.AppendUint64(append(in, byte(i)), vals[i/accBlock*2+i%2])
	}
	return in
}

// configIndex is the index of the named configuration in cfgs.
func configIndex(f *testing.F, cfgs []SumConfig, name string) byte {
	i := slices.IndexFunc(cfgs, func(c SumConfig) bool { return c.Name() == name })
	if i < 0 {
		f.Fatalf("kernelConfigs lacks %s", name)
	}
	return byte(i)
}

// FuzzSumAccumulate: bytes → a configuration, a mode, and pairs tiled
// long enough to reach the grouped plans, less a cut of up to 255 from
// the end; one run over them matches the scalar oracle, as in
// TestGroupedAccumulateMatchesScalar. The
// seeds include the 15×4 default and 6×32 at 8 191 and 8 192 pairs,
// each at its last two plans, and both with values either side of the
// narrow/wide split.
func FuzzSumAccumulate(f *testing.F) {
	cfgs := kernelConfigs()
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{17, 3, 0, 1, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add(append([]byte{23, 0x7e, 0}, make([]byte, 90)...))
	for _, name := range []string{"15×4 CRC m10", "6×32 CRC m9"} {
		for _, cut := range []byte{1, 0} { // 64 pairs × 128 - cut
			f.Add(fuzzSeedPairs(configIndex(f, cfgs, name), 127<<1, cut))
			f.Add(fuzzEdgeSeed(configIndex(f, cfgs, name), 3<<1, cut)) // 512 × 4 - cut
		}
		f.Add(fuzzEdgeSeed(configIndex(f, cfgs, name), 3<<1|1, 0))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		cfg := cfgs[int(in[0])%len(cfgs)]
		count, tile, cut := in[1]&1 == 1, 1+int(in[1]>>1), int(in[2])
		pairs := fuzzPairs(in[3:], tile, cut)
		c := NewSumChecker(cfg, uint64(len(in)))
		requireTable(t, c, runInto(c, c.NewTable(), pairs, feedOf(count)), scalarTable(c, pairs, count), fmt.Sprintf("fuzz n=%d count=%v", len(pairs), count))
	})
}

// FuzzSumAggBuilderChunks: bytes → a configuration, a mode, a chunk
// size and tiled pairs split into an input and an
// output side; the builder fed those chunks, interleaved, seals the
// scalar oracle's input-minus-output table. The seeds include the 15×4
// default across its replans, in one-pair, stream-sized and whole
// chunks, and with values either side of the narrow/wide split in
// narrow, wide and mixed chunks.
func FuzzSumAggBuilderChunks(f *testing.F) {
	cfgs := kernelConfigs()
	def := configIndex(f, cfgs, "15×4 CRC m10")
	f.Add([]byte{1, 0, 0, 128})
	for _, chunk := range []byte{0, 8, 15} { // 1, 256 and 32 768 pairs
		f.Add(fuzzSeedPairs(def, 127<<1, chunk, 200))
		f.Add(fuzzSeedPairs(def, 127<<1|1, chunk, 64))
	}
	f.Add(fuzzSeedPairs(configIndex(f, cfgs, "6×32 CRC m9"), 127<<1, 8|0x30, 128))
	for _, chunk := range []byte{0, 8, 8 | 0x10} { // 1, 256 and 255 pairs
		f.Add(fuzzEdgeSeed(def, 7<<1, chunk, 128))
		f.Add(fuzzEdgeSeed(def, 7<<1|1, chunk, 160))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		cfg := cfgs[int(in[0])%len(cfgs)]
		count, tile := in[1]&1 == 1, 1+int(in[1]>>1)
		// The low nibble picks a power of two, the high one takes a
		// little off it.
		chunk := max(1, 1<<(in[2]&15)-int(in[2]>>4&7))
		pairs := fuzzPairs(in[4:], tile, 0)
		split := len(pairs) * int(in[3]) / 256
		in0, out := pairs[:split], pairs[split:]
		c := NewSumChecker(cfg, uint64(len(in)))
		st := feedBuilder(cfg, uint64(len(in)), count, in0, out, chunk)
		requireSealed(t, c, st, builderWant(c, in0, out, count),
			fmt.Sprintf("fuzz in=%d out=%d count=%v chunk=%d", len(in0), len(out), count, chunk))
	})
}

// takeCells removes one scratch from the pool the way a run does
// and fails unless every cell of both arrays, over each one's whole
// capacity, is zero — the pool's invariant — and the scratch owes no
// fold.
func takeCells(t *testing.T, when string) *accScratch {
	t.Helper()
	cs := scratchPool.Get().(*accScratch)
	for i, v := range cs.cells[:cap(cs.cells)] {
		if v != 0 {
			t.Fatalf("%s: pooled int64 cell %d of %d holds %d, want zero", when, i, cap(cs.cells), v)
		}
	}
	for i, v := range cs.high[:cap(cs.high)] {
		if v != 0 {
			t.Fatalf("%s: pooled high cell %d of %d holds %d, want zero", when, i, cap(cs.high), v)
		}
	}
	if cs.unfold != 0 || cs.highUsed {
		t.Fatalf("%s: pooled scratch owes a fold: %d unfolded elements, high used %v", when, cs.unfold, cs.highUsed)
	}
	return cs
}

// poisonFamily hashes like CRC until its fuse runs out, then panics —
// a Hash64Batch that dies in the middle of a run, after earlier
// blocks have dirtied the cells.
func poisonFamily(fuse *atomic.Int64) hashing.Family {
	fam := hashing.FamilyCRC
	fam.Name = "Poison"
	fam.New = func(seed uint64) hashing.Hasher {
		return poisonHasher{Hasher: hashing.FamilyCRC.New(seed), fuse: fuse}
	}
	return fam
}

type poisonHasher struct {
	hashing.Hasher
	fuse *atomic.Int64
}

func (p poisonHasher) Hash64Batch(dst, keys []uint64) {
	if p.fuse.Add(-1) < 0 {
		panic("poisoned hasher")
	}
	p.Hasher.Hash64Batch(dst, keys)
}

// TestCellScratchNeverLeaks: whatever a run did with its cells
// — a grouped plan, a g = 1 plan, narrow, wide and mixed blocks, a
// panic half way through the input — the next taker of a pooled
// scratch finds both its cell arrays zero, and the next builder's
// tables are the oracle's.
func TestCellScratchNeverLeaks(t *testing.T) {
	cfg := SumConfig{Iterations: 6, Buckets: 32, RHatLog: 9, Family: hashing.FamilyCRC}
	c := NewSumChecker(cfg, 5)
	big := kernelPairs("full", 20000, 1)    // grouped: three tables of 1024, wide
	small := kernelPairs("ones", 2000, 2)   // g = 1: 192 cells of the same scratch, wide
	edge := kernelPairs("edge", 20000, 4)   // grouped, both arrays
	narrow := kernelPairs("small", 2000, 5) // g = 1, int64 cells only
	victim := kernelPairs("edge", 900, 3)   // what the next builder checks
	wantVictim := scalarTable(c, victim, false)

	check := func(when string) {
		t.Helper()
		// Hold several scratches at once so the pool must hand out
		// every one it has on this P, then give them all back.
		var held []*accScratch
		for i := 0; i < 4; i++ {
			held = append(held, takeCells(t, when))
		}
		for _, cs := range held {
			scratchPool.Put(cs)
		}
		b := NewSumAggBuilder("victim", cfg, 5, Serial, false)
		b.AddInput(victim)
		requireSealed(t, c, b.Seal(), wantVictim, when+": next builder")
	}

	for round := 0; round < 3; round++ {
		runInto(c, c.NewTable(), big, sumFeed)
		check("after a grouped wide accumulate")
		runInto(c, c.NewTable(), small, sumFeed)
		check("after a g = 1 wide accumulate")
		runInto(c, c.NewTable(), edge, sumFeed)
		check("after a grouped accumulate of narrow and wide blocks")
		runInto(c, c.NewTable(), narrow, sumFeed)
		check("after a g = 1 narrow accumulate")
	}

	var fuse atomic.Int64
	pcfg := cfg
	pcfg.Family = poisonFamily(&fuse)
	pc := NewSumChecker(pcfg, 5)
	for _, pairs := range [][]data.Pair{big, small, edge, narrow} {
		fuse.Store(3) // dies hashing the fourth block
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("poisoned hasher did not panic")
				}
			}()
			runInto(pc, pc.NewTable(), pairs, sumFeed)
		}()
		check(fmt.Sprintf("after a run of %d pairs that panicked mid-input", len(pairs)))
	}
}

// TestRecycledTablesNeverLeak is TestCellScratchNeverLeaks for the hash
// tables a sealed SumAggBuilder hands back (recycleHashers): whatever
// functions they held — another seed's — the next checker built on them
// accumulates exactly like one whose tables nobody else ever touched.
// It runs every tabulation configuration of Table 3.
func TestRecycledTablesNeverLeak(t *testing.T) {
	pairs := workload.ZipfPairs(3000, 500, 1<<30, 11)
	for _, cfg := range append(ScalingConfigs(), AccuracyConfigs()...) {
		if cfg.Family.Name == hashing.FamilyCRC.Name {
			continue // no tables
		}
		// Never handed to a builder: their tables are never recycled.
		a, b := NewSumChecker(cfg, 0xa), NewSumChecker(cfg, 0xb)
		wantA, wantB := scalarTable(a, pairs, false), scalarTable(b, pairs, false)
		for round := range 4 {
			// Consume several builders at once, so the pool holds more
			// tables than the next checker takes, all of them dirty
			// with seed 0xa's functions.
			var held []*SumAggBuilder
			for range 3 {
				bl := NewSumAggBuilder("dirty", cfg, 0xa, Serial, false)
				bl.AddInput(pairs)
				held = append(held, bl)
			}
			for i, bl := range held {
				requireSealed(t, a, bl.Seal(), wantA, fmt.Sprintf("round %d: builder %d", round, i))
			}
			victim := NewSumAggBuilder("victim", cfg, 0xb, Serial, false)
			victim.AddInput(pairs)
			requireSealed(t, b, victim.Seal(), wantB, fmt.Sprintf("round %d: checker on recycled tables", round))
		}
	}
}

// binomTailGE is P[Binomial(n, p) >= k], summed in log space.
func binomTailGE(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if p >= 1 {
		return 1
	}
	lg := func(x int) float64 { v, _ := math.Lgamma(float64(x + 1)); return v }
	tail := 0.0
	for i := k; i <= n; i++ {
		tail += math.Exp(lg(n) - lg(i) - lg(n-i) + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return tail
}

// TestSumCheckerEscapeRateWithinDelta is the first slice of ROADMAP's
// delta gate (item 7), run on the kernel's grouped plans: at
// deliberately weak parameters, over seeded trials of every Table 4
// manipulator, the observed escape rate must be statistically
// consistent with AchievedDelta — the test fails when the one-sided
// 99.9 % lower confidence bound of the rate exceeds delta, which is the
// event that a Binomial(trials, delta) reaches the observed escapes
// with probability below 0.001 (Clopper–Pearson). Every trial also
// checks the one-sided contract: the clean result's table equals the
// input's.
//
// Three fixed configurations run one sumRun per side: inputs of 8192
// pairs take their widest grouped plan, the clean output side of ~1000
// pairs a narrower one. The configurations ChooseSum returns
// at weak delta run through SumAggBuilder in one-pair and stream-sized
// chunks, output subtracted in the builder's own cells, then Seal; the
// one-pair route runs fewer trials, since each costs 25 000 kernel
// runs. ChooseSum's configurations are drawn for tabulation hashing,
// whose pairwise collisions Lemma 2 assumes. CRC-32C is affine — two
// keys that differ by a fixed pattern share a bucket for every seed or
// for none — and its single-iteration 1×8 m7 escapes IncKey faults
// at about 0.43 against a bound of 0.133.
func TestSumCheckerEscapeRateWithinDelta(t *testing.T) {
	const (
		n        = 8192
		universe = 1000
		trials   = 200
	)
	type route struct {
		cfg    SumConfig
		chunk  int // 0: one run per side, each whole
		trials int
	}
	var routes []route
	for _, cfg := range []SumConfig{
		{Iterations: 2, Buckets: 2, RHatLog: 2, Family: hashing.FamilyCRC}, // 0.56
		{Iterations: 2, Buckets: 4, RHatLog: 3, Family: hashing.FamilyTab}, // 0.14
		{Iterations: 4, Buckets: 2, RHatLog: 4, Family: hashing.FamilyTab}, // 0.10
	} {
		if c := NewSumChecker(cfg, 0); c.planFor(n) < 2 {
			t.Fatalf("%s: an input of %d pairs takes g = 1, the test means to run a grouped plan", cfg.Name(), n)
		}
		routes = append(routes, route{cfg, 0, trials})
	}
	for _, delta := range []float64{0.2, 0.05} {
		cfg, err := ChooseSum(delta, hashing.FamilyTab)
		if err != nil {
			t.Fatal(err)
		}
		if got := cfg.AchievedDelta(); got > delta {
			t.Fatalf("ChooseSum(%g) = %s achieves %.3g", delta, cfg.Name(), got)
		}
		routes = append(routes, route{cfg, 1, trials / 4}, route{cfg, accBlock, trials})
	}
	input := workload.ZipfPairs(n, universe, 1<<32, 0xde17a)
	output := refSumAgg(input)
	bad := make([]data.Pair, n)
	for _, rt := range routes {
		cfg := rt.cfg
		// accepts runs one side pair through the route and reports
		// whether the check accepts it.
		accepts := func(seed uint64, out []data.Pair) bool {
			if rt.chunk != 0 {
				return allZero(feedBuilder(cfg, seed, false, input, out, rt.chunk).(*state).words)
			}
			c := NewSumChecker(cfg, seed)
			return tablesEq(runInto(c, c.NewTable(), input, sumFeed), runInto(c, c.NewTable(), out, sumFeed))
		}
		delta := cfg.AchievedDelta()
		for mi, m := range manipulate.PairManipulators() {
			escapes, ran := 0, 0
			for trial := 0; trial < rt.trials; trial++ {
				seed := hashing.Mix64(uint64(trial)*0x9e3779b97f4a7c15 ^ uint64(mi)<<32 ^ 0xe5ca9e)
				copy(bad, input)
				if !m.Apply(bad, hashing.NewMT19937_64(seed), universe) {
					continue
				}
				ran++
				if !accepts(seed, output) {
					t.Fatalf("%s chunk %d seed %#x: clean result rejected", cfg.Name(), rt.chunk, seed)
				}
				if accepts(seed, bad) {
					escapes++
				}
			}
			if ran < rt.trials*9/10 {
				t.Fatalf("%s %s: only %d of %d trials injected a fault", cfg.Name(), m.Name, ran, rt.trials)
			}
			if pval := binomTailGE(ran, escapes, delta); pval < 0.001 {
				t.Errorf("%s chunk %d %s: %d of %d faults escaped (%.3f), not consistent with delta %.3f (p = %.2g)",
					cfg.Name(), rt.chunk, m.Name, escapes, ran, float64(escapes)/float64(ran), delta, pval)
			}
		}
	}
}

// sumTestConfigs covers every hash family, bucket counts from 8 to 256,
// and a multi-hash bit-parallel shape (16 iterations of 4 bits exceed
// CRC's 32 output bits, so the layout needs two hashers).
func sumTestConfigs() []SumConfig {
	return []SumConfig{
		{Iterations: 5, Buckets: 16, RHatLog: 5, Family: hashing.FamilyCRC},
		{Iterations: 6, Buckets: 32, RHatLog: 9, Family: hashing.FamilyCRC},
		{Iterations: 16, Buckets: 16, RHatLog: 15, Family: hashing.FamilyCRC},
		{Iterations: 3, Buckets: 8, RHatLog: 5, Family: hashing.FamilyTab},
		{Iterations: 8, Buckets: 256, RHatLog: 15, Family: hashing.FamilyTab64},
		{Iterations: 4, Buckets: 8, RHatLog: 6, Family: hashing.FamilyMix},
	}
}

func requireTablesEq(t *testing.T, label string, want, got []uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: table length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: tables diverge at word %d: got %#x want %#x", label, i, got[i], want[i])
		}
	}
}

// TestAccumulateBatchMatchesScalar: the blocked batch-hash hot loop
// must compute the same residues as the element-major scalar reference
// (the seed implementation) for every family, several bucket counts,
// and both value and count modes. Tables are compared after
// Normalize — the two folds canonicalise at different moments, but the
// residues they maintain must agree word for word.
func TestAccumulateBatchMatchesScalar(t *testing.T) {
	// Values near 2^64 force overflow folds; the mix covers both fold
	// branches.
	pairs := workload.UniformPairs(4*accBlock+37, 1<<62, 1<<62, 11)
	for i := range pairs {
		if i%3 == 0 {
			pairs[i].Value = ^uint64(0) - uint64(i)
		}
	}
	for _, cfg := range sumTestConfigs() {
		for _, count := range []bool{false, true} {
			label := fmt.Sprintf("%s count=%v", cfg.Name(), count)
			c := NewSumChecker(cfg, 99)
			got := runInto(c, c.NewTable(), pairs, feedOf(count))
			requireTablesEq(t, label, scalarTable(c, pairs, count), got)
		}
	}
}

// localSums returns the product slots of xs fed as an input.
func localSums(c *permChecker, xs []uint64) []uint64 {
	sums := newSums(c.cfg)
	c.accumulateInto(sums, xs, false)
	return sums
}

// newSums returns the empty slots of cfg for accumulateInto, two an
// iteration.
func newSums(cfg PermConfig) []uint64 {
	sums := make([]uint64, 2*cfg.Iterations)
	for i := range sums {
		sums[i] = productSlot
	}
	return sums
}

// DiffInto computes (a - b) mod r entry-wise into out, which must have
// len(a); both tables must be normalized. out may alias a or b. The
// checkers subtract the output side in the kernel's cells; the tests
// difference two tables of the scalar oracle with this.
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

// TestLocalSumsIntoAndDiffInto covers the allocation-free Into forms:
// accumulateInto adds to what its buffer holds, so two calls over the
// halves of a sequence equal one call over the whole, and DiffInto's
// destination may alias an operand.
func TestLocalSumsIntoAndDiffInto(t *testing.T) {
	xs := workload.UniformU64s(5000, 1e9, 41)
	c := newPermChecker(PermConfig{Iterations: 4}, 13)
	got := newSums(c.cfg)
	c.accumulateInto(got, xs[:1234], false)
	c.accumulateInto(got, xs[1234:], false)
	requireTablesEq(t, "accumulateInto in two calls", localSums(c, xs), got)

	cfg := SumConfig{Iterations: 4, Buckets: 16, RHatLog: 9, Family: hashing.FamilyCRC}
	sc := NewSumChecker(cfg, 14)
	pairs := workload.UniformPairs(4000, 1<<30, 1<<30, 42)
	out := refSumAgg(pairs)
	a, b := runInto(sc, sc.NewTable(), pairs, sumFeed), runInto(sc, sc.NewTable(), out, sumFeed)
	want := make([]uint64, len(a))
	sc.DiffInto(want, a, b)
	sc.DiffInto(a, a, b) // aliased destination
	requireTablesEq(t, "DiffInto aliased", want, a)
}
