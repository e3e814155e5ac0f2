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

// This file gates the accumulate kernel (sumagg.go: cells, groups, one
// fold per call): equivalence with the scalar oracle over every plan
// the size rule can pick, scratch-pool hygiene, and a first slice of
// the escape-rate gate run through the grouped plan.

// kernelConfigs is every configuration the repo names plus the shapes
// that stress the plan: a group cut at a hash boundary, g = 3, g = 10,
// a group that ends short of g, g = 1 by width, general d, a modulus
// wide enough that a carry count times 2^64 mod r passes 2^64, and the
// lane kernels' shapes reached other than by 6×32 — three 10-bit
// groups at g = 1, and six 5-bit or three 10-bit groups of 1-bit
// iterations.
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
		SumConfig{Iterations: 6, Buckets: 33, RHatLog: 9, Family: crc}, // general d
		SumConfig{Iterations: 3, Buckets: 4, RHatLog: 62, Family: mix},
		SumConfig{Iterations: 3, Buckets: 1024, RHatLog: 12, Family: crc}, // 3 lanes at g = 1
		SumConfig{Iterations: 30, Buckets: 2, RHatLog: 5, Family: crc},    // 6 lanes at g = 5, 3 at g = 10
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

// kernelPairs builds n pairs in one of the value shapes. Keys mix a
// small universe (shared cells, repeated keys) with full-width ones.
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

// TestGroupedAccumulateMatchesScalar: the kernel's table equals the
// scalar oracle's after Normalize — for every configuration, value
// shape and plan, in sum and count mode, into a table that already
// holds raw counters, and through SumAggBuilder for every chunking and
// worker count. Among the plans are both lane kernels', at g = 1 and
// grouped: the default 6×32 checker takes six lanes at 8 191 pairs and
// three at 8 192.
func TestGroupedAccumulateMatchesScalar(t *testing.T) {
	// lanesAt records, per lane kernel, the group sizes it ran at.
	lanesAt := map[int]map[int]bool{6: {}, 3: {}}
	defer func() {
		for lanes, gs := range lanesAt {
			if !gs[1] || len(gs) < 2 {
				t.Errorf("the %d-lane kernel ran at group sizes %v, want g = 1 and a grouped plan", lanes, gs)
			}
		}
	}()
	for ci, cfg := range kernelConfigs() {
		c := NewSumChecker(cfg, 1000+uint64(ci))
		lengths := planLengths(c)
		for _, n := range lengths {
			g := groupSize(c.width, c.perHash, n)
			for _, gr := range c.appendPlan(g, nil) {
				if gr.lanes != 0 {
					lanesAt[gr.lanes][g] = true
				}
			}
		}
		for si, shape := range []string{"small", "full", "ones", "hot"} {
			ns := lengths
			if shape == "hot" {
				ns = []int{hotLen}
			}
			for _, n := range ns {
				pairs := kernelPairs(shape, n, uint64(ci*100+si))
				for _, count := range []bool{false, true} {
					if count && shape != "small" {
						continue // count mode ignores values
					}
					want := scalarTable(c, pairs, count)
					what := fmt.Sprintf("%s n=%d count=%v", shape, n, count)

					got := c.NewTable()
					c.accumulate(got, pairs, count)
					requireTable(t, c, got, want, what)

					// Two calls into one table: the second finds raw
					// (unnormalized) counters, and the pooled cells the
					// first one used.
					got = c.NewTable()
					c.accumulate(got, pairs[:n/3], count)
					c.accumulate(got, pairs[n/3:], count)
					requireTable(t, c, got, want, what+" in two calls")
				}
				// The builder route: every chunking and worker count at
				// the longest plan length, whole and fanned out for the
				// hot key (its 70k-pair input is what makes the test
				// slow under -race).
				chunks, workers := []int{1, accBlock, n}, []int{1, 2, 8}
				switch {
				case n == hotLen:
					chunks, workers = []int{n}, []int{8}
				case n != lengths[len(lengths)-1]:
					continue
				case n > 2*accBlock:
					chunks[0] = 97 // one-pair chunks of a long input only cost time
				}
				want := scalarTable(c, pairs, false)
				for _, chunk := range chunks {
					for _, w := range workers {
						b := NewSumAggBuilder("eq", cfg, 1000+uint64(ci), NewParallelAccumulator(w), false)
						for lo := 0; lo < n; lo += chunk {
							b.AddInput(pairs[lo:min(lo+chunk, n)])
						}
						requireTable(t, c, b.tv, want, fmt.Sprintf("%s n=%d chunk=%d workers=%d", shape, n, chunk, w))
					}
				}
			}
		}
	}
}

// TestGroupSizeRule pins the plan: a pure function of (width, perHash,
// n) with the three limits the kernel's comment states.
func TestGroupSizeRule(t *testing.T) {
	cases := []struct{ width, perHash, n, want int }{
		{5, 6, 125000, 2}, // 6×32 CRC, the benchmark's share
		{5, 6, 8192, 2},
		{5, 6, 8191, 1}, // the n/8 rule
		{5, 6, 256, 1},  // a stream chunk
		{5, 6, 0, 1},
		{3, 10, 4096, 3},
		{3, 10, 4095, 2},
		{3, 10, 511, 1},
		{1, 32, 8192, 10},
		{1, 32, 1 << 30, 10}, // the L1 cap
		{1, 3, 1 << 30, 3},   // the hash boundary
		{8, 8, 1 << 30, 1},
		{12, 2, 1 << 30, 1}, // wider than the cap
		{6, 1, 1 << 30, 1},  // general d: one hash per iteration
	}
	for _, cs := range cases {
		if got := groupSize(cs.width, cs.perHash, cs.n); got != cs.want {
			t.Errorf("groupSize(width %d, perHash %d, n %d) = %d, want %d", cs.width, cs.perHash, cs.n, got, cs.want)
		}
	}
}

// FuzzSumAccumulate: bytes → a configuration, a mode, and pairs tiled
// long enough to reach the grouped plans, less a cut of up to 255 from
// the end; same assertion as TestGroupedAccumulateMatchesScalar. The
// seeds include the default 6×32 checker at 8 191 and 8 192 pairs, its
// six-lane and its three-lane plan.
func FuzzSumAccumulate(f *testing.F) {
	cfgs := kernelConfigs()
	def := slices.IndexFunc(cfgs, func(c SumConfig) bool { return c.Name() == "6×32 CRC m9" })
	if def < 0 {
		f.Fatal("kernelConfigs lacks the default 6×32 CRC m9")
	}
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{17, 3, 0, 1, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add(append([]byte{23, 0x7e, 0}, make([]byte, 90)...))
	for _, cut := range []byte{1, 0} { // 64 pairs × 128 - cut
		in := append([]byte{byte(def), 127 << 1, cut}, make([]byte, 64*9)...)
		for i := 3; i < len(in); i += 9 {
			in[i], in[i+8] = byte(i), byte(i*7) // key, top value byte
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		cfg := cfgs[int(in[0])%len(cfgs)]
		count, tile, cut := in[1]&1 == 1, 1+int(in[1]>>1), int(in[2])
		in = in[3:]
		// Nine bytes a pair: a one-byte key (collisions) and a value.
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
		pairs = pairs[:len(pairs)-min(cut, len(pairs))]
		c := NewSumChecker(cfg, uint64(len(in)))
		got := c.NewTable()
		c.accumulate(got, pairs, count)
		requireTable(t, c, got, scalarTable(c, pairs, count), fmt.Sprintf("fuzz n=%d count=%v", len(pairs), count))
	})
}

// takeCells removes one scratch from the pool the way accumulate does
// and fails unless every cell over its whole capacity is zero — the
// pool's invariant.
func takeCells(t *testing.T, when string) *accScratch {
	t.Helper()
	cs := scratchPool.Get().(*accScratch)
	for i, cl := range cs.cells[:cap(cs.cells)] {
		if cl != (cell{}) {
			t.Fatalf("%s: pooled cell %d of %d holds %+v, want zero", when, i, cap(cs.cells), cl)
		}
	}
	return cs
}

// poisonFamily hashes like CRC until its fuse runs out, then panics —
// a Hash64Batch that dies in the middle of an accumulate, after earlier
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

// TestCellScratchNeverLeaks: whatever an accumulate did with its cells
// — a grouped plan, a g = 1 plan, full-width values, a panic half way
// through the input — the next taker of a pooled scratch finds it
// zero, and the next builder's tables are the oracle's.
func TestCellScratchNeverLeaks(t *testing.T) {
	cfg := SumConfig{Iterations: 6, Buckets: 32, RHatLog: 9, Family: hashing.FamilyCRC}
	c := NewSumChecker(cfg, 5)
	big := kernelPairs("full", 20000, 1)   // grouped: three tables of 1024
	small := kernelPairs("ones", 2000, 2)  // g = 1: 192 cells of the same scratch
	victim := kernelPairs("small", 300, 3) // what the next builder checks
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
		requireTable(t, c, b.tv, wantVictim, when+": next builder")
	}

	for round := 0; round < 3; round++ {
		c.Accumulate(c.NewTable(), big)
		check("after a grouped accumulate")
		c.Accumulate(c.NewTable(), small)
		check("after a g = 1 accumulate")
	}

	var fuse atomic.Int64
	pcfg := cfg
	pcfg.Family = poisonFamily(&fuse)
	pc := NewSumChecker(pcfg, 5)
	for _, pairs := range [][]data.Pair{big, small} {
		fuse.Store(3) // dies hashing the fourth block
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("poisoned hasher did not panic")
				}
			}()
			pc.Accumulate(pc.NewTable(), pairs)
		}()
		check(fmt.Sprintf("after an accumulate of %d pairs that panicked mid-input", len(pairs)))
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
// delta gate, run on the kernel's grouped plan: at deliberately weak
// parameters, over seeded trials of every Table 4 manipulator, the
// observed escape rate must be statistically consistent with
// AchievedDelta — the test fails when the one-sided 99.9 % lower
// confidence bound of the rate exceeds delta, which is the event that
// a Binomial(trials, delta) reaches the observed escapes with
// probability below 0.001 (Clopper–Pearson). Every trial also checks
// the one-sided contract: the clean result's table equals the input's.
//
// Inputs are 8192 pairs, the shortest length at which every one of
// these configurations takes its widest grouped plan (10 index bits);
// the clean output side is ~1000 pairs and takes a narrower one.
func TestSumCheckerEscapeRateWithinDelta(t *testing.T) {
	const (
		n        = 8192
		universe = 1000
		trials   = 200
	)
	cfgs := []SumConfig{
		{Iterations: 2, Buckets: 2, RHatLog: 2, Family: hashing.FamilyCRC}, // 0.56
		{Iterations: 2, Buckets: 4, RHatLog: 3, Family: hashing.FamilyTab}, // 0.14
		{Iterations: 4, Buckets: 2, RHatLog: 4, Family: hashing.FamilyTab}, // 0.10
	}
	input := workload.ZipfPairs(n, universe, 1<<32, 0xde17a)
	output := refSumAgg(input)
	bad := make([]data.Pair, n)
	for _, cfg := range cfgs {
		if c := NewSumChecker(cfg, 0); groupSize(c.width, c.perHash, n) < 2 {
			t.Fatalf("%s: an input of %d pairs takes g = 1, the test means to run a grouped plan", cfg.Name(), n)
		}
		delta := cfg.AchievedDelta()
		for mi, m := range manipulate.PairManipulators() {
			escapes, ran := 0, 0
			for trial := 0; trial < trials; trial++ {
				seed := hashing.Mix64(uint64(trial)*0x9e3779b97f4a7c15 ^ uint64(mi)<<32 ^ 0xe5ca9e)
				copy(bad, input)
				if !m.Apply(bad, hashing.NewMT19937_64(seed), universe) {
					continue
				}
				ran++
				c := NewSumChecker(cfg, seed)
				tv, to, tb := c.NewTable(), c.NewTable(), c.NewTable()
				c.Accumulate(tv, input)
				c.Accumulate(to, output)
				c.Accumulate(tb, bad)
				c.Normalize(tv)
				c.Normalize(to)
				c.Normalize(tb)
				if !tablesEq(tv, to) {
					t.Fatalf("%s seed %#x: clean result rejected", cfg.Name(), seed)
				}
				if tablesEq(tv, tb) {
					escapes++
				}
			}
			if ran < trials*9/10 {
				t.Fatalf("%s %s: only %d of %d trials injected a fault", cfg.Name(), m.Name, ran, trials)
			}
			if pval := binomTailGE(ran, escapes, delta); pval < 0.001 {
				t.Errorf("%s %s: %d of %d faults escaped (%.3f), not consistent with delta %.3f (p = %.2g)",
					cfg.Name(), m.Name, escapes, ran, float64(escapes)/float64(ran), delta, pval)
			}
		}
	}
}
