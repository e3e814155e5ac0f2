package core

import (
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/workload"
)

// parallelTestElements is large enough that ParallelAccumulator really
// shards (parMinShard elements per worker) at every tested fan-out.
const parallelTestElements = 6 * parMinShard

// sumTestConfigs covers every hash family, pow2 and non-pow2 bucket
// counts, and a multi-hash bit-parallel shape (16 iterations of 4 bits
// exceed CRC's 32 output bits, so the splitter needs two hashers).
func sumTestConfigs() []SumConfig {
	return []SumConfig{
		{Iterations: 5, Buckets: 16, RHatLog: 5, Family: hashing.FamilyCRC},
		{Iterations: 6, Buckets: 32, RHatLog: 9, Family: hashing.FamilyCRC},
		{Iterations: 16, Buckets: 16, RHatLog: 15, Family: hashing.FamilyCRC},
		{Iterations: 4, Buckets: 10, RHatLog: 7, Family: hashing.FamilyCRC},
		{Iterations: 3, Buckets: 7, RHatLog: 5, Family: hashing.FamilyTab},
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
// (the seed implementation) for every family, pow2/non-pow2 bucket
// count, and both value and count modes. Tables are compared after
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
			ref, got := c.NewTable(), c.NewTable()
			c.AccumulateScalar(ref, pairs, count)
			if count {
				c.AccumulateCount(got, pairs)
			} else {
				c.Accumulate(got, pairs)
			}
			c.Normalize(ref)
			c.Normalize(got)
			requireTablesEq(t, label, ref, got)
		}
	}
}

// TestParallelAccumulateSumMatchesSerial: the sharded accumulate-then-
// merge engine must yield the serial table (bit-identical after
// Normalize) for every worker count, both modes, and also when folding
// into a table that already holds raw counters.
func TestParallelAccumulateSumMatchesSerial(t *testing.T) {
	pairs := workload.UniformPairs(parallelTestElements, 1<<62, 1<<62, 7)
	prior := workload.UniformPairs(3*accBlock, 1<<62, 1<<62, 8)
	for _, cfg := range sumTestConfigs() {
		c := NewSumChecker(cfg, 5)
		for _, count := range []bool{false, true} {
			ref := c.NewTable()
			c.Accumulate(ref, prior) // raw, unnormalized prior content
			if count {
				c.AccumulateCount(ref, pairs)
			} else {
				c.Accumulate(ref, pairs)
			}
			c.Normalize(ref)
			for _, w := range []int{1, 2, 3, 4, 7} {
				par := NewParallelAccumulator(w)
				got := c.NewTable()
				c.Accumulate(got, prior)
				if count {
					par.AccumulateCount(c, got, pairs)
				} else {
					par.AccumulateSum(c, got, pairs)
				}
				c.Normalize(got)
				requireTablesEq(t, fmt.Sprintf("%s count=%v workers=%d", cfg.Name(), count, w), ref, got)
			}
		}
	}
}

// TestParallelAccumulatePermBitIdentical: permutation fingerprints are
// raw-bit-identical across scalar, batch, and every shard count
// (wraparound addition is commutative), including the negate direction.
func TestParallelAccumulatePermBitIdentical(t *testing.T) {
	xs := workload.UniformU64s(parallelTestElements, 1e12, 3)
	for _, fam := range []hashing.Family{hashing.FamilyCRC, hashing.FamilyTab, hashing.FamilyTab64, hashing.FamilyMix} {
		for _, logH := range []int{8, 32} {
			cfg := PermConfig{Family: fam, LogH: logH, Iterations: 3}
			c := NewPermChecker(cfg, 21)
			ref := make([]uint64, cfg.Iterations)
			c.AccumulateIntoScalar(ref, xs, false)
			c.AccumulateIntoScalar(ref, xs[:999], true)

			batch := make([]uint64, cfg.Iterations)
			c.AccumulateInto(batch, xs, false)
			c.AccumulateInto(batch, xs[:999], true)
			requireTablesEq(t, fmt.Sprintf("%s %d batch", fam.Name, logH), ref, batch)

			for _, w := range []int{2, 3, 5} {
				par := NewParallelAccumulator(w)
				got := make([]uint64, cfg.Iterations)
				par.AccumulatePerm(c, got, xs, false)
				par.AccumulatePerm(c, got, xs[:999], true)
				requireTablesEq(t, fmt.Sprintf("%s %d workers=%d", fam.Name, logH, w), ref, got)
			}
		}
	}
}

// TestPolyProdMatchesSerial: the unrolled and sharded polynomial
// products must match the plain serial left-fold bit for bit in both
// fields.
func TestPolyProdMatchesSerial(t *testing.T) {
	xs := workload.UniformU64s(parallelTestElements, 1e15, 17)
	for i := range xs {
		xs[i] %= hashing.Mersenne61
	}
	z61 := hashing.Mix64(123) % hashing.Mersenne61
	ref61 := uint64(1)
	for _, e := range xs {
		ref61 = hashing.MulMod61(ref61, hashing.SubMod61(z61, e))
	}
	if got := PolyProd61(z61, xs); got != ref61 {
		t.Fatalf("PolyProd61: got %#x want %#x", got, ref61)
	}
	zGF := hashing.Mix64(456)
	refGF := uint64(1)
	for _, e := range xs {
		refGF = hashing.GF64Mul(refGF, zGF^e)
	}
	if got := PolyProdGF(zGF, xs); got != refGF {
		t.Fatalf("PolyProdGF: got %#x want %#x", got, refGF)
	}
	for _, w := range []int{2, 4} {
		par := NewParallelAccumulator(w)
		if got := par.PolyProd61(z61, xs); got != ref61 {
			t.Fatalf("parallel PolyProd61 workers=%d: got %#x want %#x", w, got, ref61)
		}
		if got := par.PolyProdGF(zGF, xs); got != refGF {
			t.Fatalf("parallel PolyProdGF workers=%d: got %#x want %#x", w, got, refGF)
		}
	}
	// Odd tail lengths exercise the unroll remainder.
	for _, n := range []int{0, 1, 2, 3, 5, 7} {
		ref := uint64(1)
		for _, e := range xs[:n] {
			ref = hashing.MulMod61(ref, hashing.SubMod61(z61, e))
		}
		if got := PolyProd61(z61, xs[:n]); got != ref {
			t.Fatalf("PolyProd61 n=%d: got %#x want %#x", n, got, ref)
		}
	}
}

// TestStateParMatchesSerial: the state constructors must emit
// byte-identical checker states for every worker count — the property
// the SPMD contract rests on (every PE computes the same residues no
// matter its local fan-out).
func TestStateParMatchesSerial(t *testing.T) {
	input := workload.UniformPairs(parallelTestElements, 1<<40, 1<<40, 31)
	output := refSumAgg(input)
	sumCfg := SumConfig{Iterations: 6, Buckets: 32, RHatLog: 9, Family: hashing.FamilyCRC}
	permCfg := PermConfig{Family: hashing.FamilyTab, LogH: 32, Iterations: 2}
	seq := workload.UniformU64s(parallelTestElements, 1e12, 32)
	sorted := data.CloneU64s(seq)
	data.SortU64(sorted)

	refSum := NewSumAggState("s", sumCfg, 77, Serial, input, output).Words()
	refCnt := countState(sumCfg, 77, Serial, input, output).Words()
	refPerm := NewPermState("p", permCfg, 77, Serial, [][]uint64{seq}, sorted).Words()
	refSort := NewSortedState("o", permCfg, 77, Serial, [][]uint64{seq}, sorted).Words()
	for _, w := range []int{2, 4} {
		par := NewParallelAccumulator(w)
		requireTablesEq(t, fmt.Sprintf("sum state workers=%d", w), refSum,
			NewSumAggState("s", sumCfg, 77, par, input, output).Words())
		requireTablesEq(t, fmt.Sprintf("count state workers=%d", w), refCnt,
			countState(sumCfg, 77, par, input, output).Words())
		requireTablesEq(t, fmt.Sprintf("perm state workers=%d", w), refPerm,
			NewPermState("p", permCfg, 77, par, [][]uint64{seq}, sorted).Words())
		requireTablesEq(t, fmt.Sprintf("sorted state workers=%d", w), refSort,
			NewSortedState("o", permCfg, 77, par, [][]uint64{seq}, sorted).Words())
	}
}

// localSums returns the per-iteration sums of truncated hash values of
// xs.
func localSums(c *PermChecker, xs []uint64) []uint64 {
	sums := make([]uint64, c.cfg.Iterations)
	c.AccumulateInto(sums, xs, false)
	return sums
}

// TestLocalSumsIntoAndDiffInto covers the allocation-free Into forms:
// AccumulateInto adds to what its buffer holds, so two calls over the
// halves of a sequence equal one call over the whole, and DiffInto's
// destination may alias an operand.
func TestLocalSumsIntoAndDiffInto(t *testing.T) {
	xs := workload.UniformU64s(5000, 1e9, 41)
	c := NewPermChecker(PermConfig{Family: hashing.FamilyTab, LogH: 16, Iterations: 4}, 13)
	got := make([]uint64, 4)
	c.AccumulateInto(got, xs[:1234], false)
	c.AccumulateInto(got, xs[1234:], false)
	requireTablesEq(t, "AccumulateInto in two calls", localSums(c, xs), got)

	cfg := SumConfig{Iterations: 4, Buckets: 16, RHatLog: 9, Family: hashing.FamilyCRC}
	sc := NewSumChecker(cfg, 14)
	pairs := workload.UniformPairs(4000, 1<<30, 1<<30, 42)
	out := refSumAgg(pairs)
	a, b := sc.NewTable(), sc.NewTable()
	sc.Accumulate(a, pairs)
	sc.Accumulate(b, out)
	sc.Normalize(a)
	sc.Normalize(b)
	want := make([]uint64, len(a))
	sc.DiffInto(want, a, b)
	sc.DiffInto(a, a, b) // aliased destination
	requireTablesEq(t, "DiffInto aliased", want, a)
}

// TestParallelAccumulatorBounds: zero values, tiny inputs, and absurd
// worker counts must all stay correct (and serial where fan-out would
// not pay off).
func TestParallelAccumulatorBounds(t *testing.T) {
	if got := (ParallelAccumulator{}).Workers(); got != 1 {
		t.Fatalf("zero value workers = %d, want 1", got)
	}
	if got := NewParallelAccumulator(0).Workers(); got < 1 {
		t.Fatalf("GOMAXPROCS workers = %d", got)
	}
	// Tiny input: must not fan out, must still be correct.
	pairs := workload.UniformPairs(100, 1<<30, 1<<30, 51)
	cfg := SumConfig{Iterations: 4, Buckets: 16, RHatLog: 9, Family: hashing.FamilyCRC}
	c := NewSumChecker(cfg, 15)
	ref, got := c.NewTable(), c.NewTable()
	c.Accumulate(ref, pairs)
	NewParallelAccumulator(64).AccumulateSum(c, got, pairs)
	c.Normalize(ref)
	c.Normalize(got)
	requireTablesEq(t, "tiny input", ref, got)

	// Empty input is a no-op everywhere.
	empty := c.NewTable()
	NewParallelAccumulator(4).AccumulateSum(c, empty, nil)
	pc := NewPermChecker(PermConfig{Family: hashing.FamilyMix, LogH: 32, Iterations: 2}, 16)
	sums := make([]uint64, 2)
	NewParallelAccumulator(4).AccumulatePerm(pc, sums, nil, false)
	if !allZero(empty) || !allZero(sums) {
		t.Fatal("empty input mutated state")
	}
}
