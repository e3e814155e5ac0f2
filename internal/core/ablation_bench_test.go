package core

import (
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/workload"
)

// Ablation benchmarks for the engineering decisions doc.go and README
// "Performance" call out. Run with:
// go test -bench=Ablation ./internal/core -benchmem

const ablationElements = 100000

func ablationPairs() []data.Pair {
	return workload.UniformPairs(ablationElements, 1<<62, 1<<62, 1)
}

func reportPerElem(b *testing.B, elems int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
}

// BenchmarkAblationLazyMod compares the overflow-deferred modulo
// (Section 7.1: "perform the expensive modulo step only if the addition
// would overflow") against reducing on every addition.
func BenchmarkAblationLazyMod(b *testing.B) {
	cfg := SumConfig{Iterations: 5, Buckets: 16, RHatLog: 5, Family: hashing.FamilyCRC}
	pairs := ablationPairs()
	b.Run("lazy", func(b *testing.B) {
		c := NewSumChecker(cfg, 7)
		table := c.NewTable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Accumulate(table, pairs)
		}
		reportPerElem(b, ablationElements)
	})
	b.Run("eager", func(b *testing.B) {
		c := NewSumChecker(cfg, 7)
		table := c.NewTable()
		d := cfg.Buckets
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range pairs {
				key, v := pairs[j].Key, pairs[j].Value
				c.prepare(key)
				for it := 0; it < cfg.Iterations; it++ {
					r := c.mods[it]
					idx := it*d + c.bucketOf(key, it)
					table[idx] = (table[idx] + v%r) % r
				}
			}
		}
		reportPerElem(b, ablationElements)
	})
}

// BenchmarkAblationBitParallel compares one wide hash evaluation split
// across iterations against one hash evaluation per iteration.
func BenchmarkAblationBitParallel(b *testing.B) {
	cfg := SumConfig{Iterations: 8, Buckets: 16, RHatLog: 15, Family: hashing.FamilyTab64}
	pairs := ablationPairs()
	b.Run("bit-parallel", func(b *testing.B) {
		c := NewSumChecker(cfg, 7)
		table := c.NewTable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Accumulate(table, pairs)
		}
		reportPerElem(b, ablationElements)
	})
	b.Run("hash-per-iteration", func(b *testing.B) {
		c := newSumChecker(cfg, 7, true, 0)
		table := c.NewTable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Accumulate(table, pairs)
		}
		reportPerElem(b, ablationElements)
	})
}

// BenchmarkAblationHashFamilies compares the hash families at a fixed
// checker shape.
func BenchmarkAblationHashFamilies(b *testing.B) {
	pairs := ablationPairs()
	for _, fam := range []hashing.Family{hashing.FamilyCRC, hashing.FamilyTab, hashing.FamilyTab64, hashing.FamilyMix} {
		fam := fam
		b.Run(fam.Name, func(b *testing.B) {
			cfg := SumConfig{Iterations: 4, Buckets: 16, RHatLog: 7, Family: fam}
			c := NewSumChecker(cfg, 7)
			table := c.NewTable()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Accumulate(table, pairs)
			}
			reportPerElem(b, ablationElements)
		})
	}
}

// BenchmarkAblationPermVariants compares the three permutation checker
// mechanisms' local work: hash-sum (Lemma 4), prime-field polynomial
// (Lemma 5) and GF(2^64) carry-less polynomial. The hash-sum rows run
// one Tab iteration, and the default two: as two passes over their own
// tables (the family's Pair cleared) and as one pass over a pair's.
func BenchmarkAblationPermVariants(b *testing.B) {
	xs := workload.UniformU64s(ablationElements, 1e8, 2)
	unpaired := hashing.FamilyTab
	unpaired.Pair = nil
	for _, row := range []struct {
		name string
		cfg  PermConfig
	}{
		{"hash-sum-Tab", PermConfig{Family: hashing.FamilyTab, LogH: 32, Iterations: 1}},
		{"hash-sum-Tab×2", PermConfig{Family: unpaired, LogH: 32, Iterations: 2}},
		{"hash-sum-Tab×2-paired", PermConfig{Family: hashing.FamilyTab, LogH: 32, Iterations: 2}},
	} {
		b.Run(row.name, func(b *testing.B) {
			c := NewPermChecker(row.cfg, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sums := localSums(c, xs)
				sinkBench = sums[0]
			}
			reportPerElem(b, ablationElements)
		})
	}
	b.Run("poly-mersenne61", func(b *testing.B) {
		const r = hashing.Mersenne61
		z := uint64(123456789123456789) % r
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			prod := uint64(1)
			for _, e := range xs {
				prod = hashing.MulMod61(prod, hashing.SubMod61(z, e%r))
			}
			sinkBench = prod
		}
		reportPerElem(b, ablationElements)
	})
	b.Run("poly-gf64", func(b *testing.B) {
		z := uint64(0x123456789abcdef0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			prod := uint64(1)
			for _, e := range xs {
				prod = hashing.GF64Mul(prod, z^e)
			}
			sinkBench = prod
		}
		reportPerElem(b, ablationElements)
	})
}

// BenchmarkAblationBucketTradeoff compares configurations of similar
// confidence (delta ~ 2e-10) trading iterations against table size:
// more buckets means fewer iterations and less local work but a larger
// minireduction message.
func BenchmarkAblationBucketTradeoff(b *testing.B) {
	pairs := ablationPairs()
	for _, name := range []string{"8×16 CRC m15", "6×32 CRC m9", "4×256 CRC m15"} {
		cfg, err := parseSumConfig(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			c := NewSumChecker(cfg, 7)
			table := c.NewTable()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Accumulate(table, pairs)
			}
			reportPerElem(b, ablationElements)
			b.ReportMetric(float64(cfg.TableBits()), "table-bits")
		})
	}
}

// BenchmarkAblationBatchHash isolates what Hash64Batch buys over
// per-element interface dispatch: the same hash values, computed
// through a scalar Hash64 loop versus one batch call per block.
func BenchmarkAblationBatchHash(b *testing.B) {
	keys := workload.UniformU64s(ablationElements, 1<<62, 9)
	dst := make([]uint64, ablationElements)
	for _, fam := range []hashing.Family{hashing.FamilyCRC, hashing.FamilyTab, hashing.FamilyTab64, hashing.FamilyMix} {
		fam := fam
		h := fam.New(7)
		b.Run(fam.Name+"/scalar", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, k := range keys {
					dst[j] = h.Hash64(k)
				}
				sinkBench = dst[0]
			}
			reportPerElem(b, ablationElements)
		})
		b.Run(fam.Name+"/batch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h.Hash64Batch(dst, keys)
				sinkBench = dst[0]
			}
			reportPerElem(b, ablationElements)
		})
	}
}

// BenchmarkAblationParallelShards sweeps the ParallelAccumulator's
// worker count on the sum checker hot loop. On a multi-core machine
// the per-element time should fall near-linearly until the memory
// system saturates; on one core it measures the sharding overhead.
func BenchmarkAblationParallelShards(b *testing.B) {
	cfg := SumConfig{Iterations: 6, Buckets: 32, RHatLog: 9, Family: hashing.FamilyCRC}
	pairs := workload.UniformPairs(4*ablationElements, 1<<62, 1<<62, 1)
	c := NewSumChecker(cfg, 7)
	table := c.NewTable()
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			par := NewParallelAccumulator(w)
			for i := 0; i < b.N; i++ {
				par.AccumulateSum(c, table, pairs)
			}
			reportPerElem(b, 4*ablationElements)
		})
	}
}

// BenchmarkAblationGroupWidth measures the two constants of the
// accumulate kernel's plan (groupSize) by forcing the group size on the
// default 6×32 CRC m9 checker: g = 1 (192 cells, six updates per
// element), g = 2 (three tables of 1024 cells, three updates — what the
// rule picks from 8192 pairs up) and g = 3 (two tables of 32k cells,
// two updates — past maxGroupBits and past L1). Each row is one whole
// call, fold included, so the short calls show why a table must be
// small beside its input: a 256-pair stream chunk or a 2 000-pair
// stage pays the grouped tables' scan without the elements to amortise
// it.
func BenchmarkAblationGroupWidth(b *testing.B) {
	cfg := SumConfig{Iterations: 6, Buckets: 32, RHatLog: 9, Family: hashing.FamilyCRC}
	all := workload.ZipfPairs(125000, 1000000, 1<<30, 1)
	for _, n := range []int{256, 2000, 8192, len(all)} {
		pairs := all[:n]
		for _, g := range []int{1, 2, 3} {
			c := newSumChecker(cfg, 7, false, g)
			b.Run(fmt.Sprintf("n-%d/g-%d", n, g), func(b *testing.B) {
				table := c.NewTable()
				c.Accumulate(table, pairs)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Accumulate(table, pairs)
				}
				reportPerElem(b, n)
			})
		}
	}
}

var sinkBench uint64

// TestGeneralPathMatchesBitParallelSemantics guards the ablation knob:
// both paths must detect the same class of faults (they use different
// hash assignments, so tables differ, but behaviour contracts hold).
func TestGeneralPathMatchesBitParallelSemantics(t *testing.T) {
	cfg := SumConfig{Iterations: 4, Buckets: 16, RHatLog: 7, Family: hashing.FamilyTab}
	input := workload.ZipfPairs(500, 100, 100, 3)
	output := refSumAgg(input)
	for _, general := range []bool{false, true} {
		c := newSumChecker(cfg, 42, general, 0)
		tv, to := c.NewTable(), c.NewTable()
		c.Accumulate(tv, input)
		c.Accumulate(to, output)
		c.Normalize(tv)
		c.Normalize(to)
		if !tablesEq(tv, to) {
			t.Fatalf("general=%v: correct result rejected", general)
		}
		bad := data.ClonePairs(output)
		bad[0].Value += 3
		tb := c.NewTable()
		c.Accumulate(tb, bad)
		c.Normalize(tb)
		if tablesEq(tv, tb) {
			t.Fatalf("general=%v: corruption not reflected in tables", general)
		}
	}
}

func tablesEq(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
