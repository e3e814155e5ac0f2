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
			runInto(c, table, pairs, sumFeed)
		}
		reportPerElem(b, ablationElements)
	})
	b.Run("eager", func(b *testing.B) {
		c := NewSumChecker(cfg, 7)
		table := c.NewTable()
		d := cfg.Buckets
		var bs []int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range pairs {
				v := pairs[j].Value
				bs = bucketsOf(c, pairs[j].Key, bs)
				for it, bk := range bs {
					r := c.mods[it]
					idx := it*d + bk
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
			runInto(c, table, pairs, sumFeed)
		}
		reportPerElem(b, ablationElements)
	})
	b.Run("hash-per-iteration", func(b *testing.B) {
		c := newSumChecker(cfg, 7, true, 0)
		table := c.NewTable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runInto(c, table, pairs, sumFeed)
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
				runInto(c, table, pairs, sumFeed)
			}
			reportPerElem(b, ablationElements)
		})
	}
}

// BenchmarkAblationPermVariants compares the permutation checker
// mechanisms' local work: hash-sum (Lemma 4, HashSumChecker) and the
// prime-field product (Lemma 5). The hash-sum rows run one and two Tab
// iterations and one Tab64 64-bit function, the default before the
// product. The product rows run the default kernel (one offset lookup
// and one lazy 128-bit multiply an element, four lanes), a factor
// z - lo - y·hi over the element's 32-bit halves (a second multiply an
// element, four lanes), and the scalar oracle's canonical one-lane
// fold.
func BenchmarkAblationPermVariants(b *testing.B) {
	xs := workload.UniformU64s(ablationElements, 1e8, 2)
	for _, row := range []struct {
		name string
		cfg  HashSumConfig
	}{
		{"hash-sum-Tab", HashSumConfig{Family: hashing.FamilyTab, LogH: 32, Iterations: 1}},
		{"hash-sum-Tab×2", HashSumConfig{Family: hashing.FamilyTab, LogH: 32, Iterations: 2}},
		{"hash-sum-Tab64", HashSumConfig{Family: hashing.FamilyTab64, LogH: 64, Iterations: 1}},
	} {
		b.Run(row.name, func(b *testing.B) {
			c := NewHashSumChecker(row.cfg, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sums := make([]uint64, row.cfg.Iterations)
				c.AccumulateInto(sums, xs, false)
				sinkBench = sums[0]
			}
			reportPerElem(b, ablationElements)
		})
	}
	b.Run("product-offsets", func(b *testing.B) {
		c := newPermChecker(PermConfig{Iterations: 1}, 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sums := localSums(c, xs)
			sinkBench = sums[0]
		}
		reportPerElem(b, ablationElements)
	})
	b.Run("product-second-multiply", func(b *testing.B) {
		const r = hashing.Mersenne61
		z, y := uint64(123456789123456789)%r, uint64(987654321987654321)%r
		f := func(e uint64) uint64 {
			return hashing.Mod61(z + 2*r - e&0xffffffff - hashing.MulMod61(y, e>>32))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p0, p1, p2, p3 := uint64(1), uint64(1), uint64(1), uint64(1)
			for x := xs; len(x) >= 4; x = x[4:] {
				p0 = hashing.MulLazy61(p0, f(x[0]))
				p1 = hashing.MulLazy61(p1, f(x[1]))
				p2 = hashing.MulLazy61(p2, f(x[2]))
				p3 = hashing.MulLazy61(p3, f(x[3]))
			}
			sinkBench = p0 ^ p1 ^ p2 ^ p3
		}
		reportPerElem(b, ablationElements)
	})
	b.Run("product-scalar", func(b *testing.B) {
		c := newPermChecker(PermConfig{Iterations: 1}, 3)
		sums := newSums(c.cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.accumulateIntoScalar(sums, xs, false)
		}
		sinkBench = sums[0]
		reportPerElem(b, ablationElements)
	})
}

// BenchmarkPermAccumulateEngine is the root package's
// BenchmarkSumAccumulateEngine for the permutation fingerprint loop, on
// the runtime default (one iteration of Lemma 5's product, as
// DefaultOptions().Perm) and on one Tab64 64-bit hash sum, the default
// before it: one 64-bit word on the wire each. Besides 200 000
// elements, the batch rows time a service job's 2 000 elements, whole
// and in the 256-element chunks a stream stage hands a checker.
func BenchmarkPermAccumulateEngine(b *testing.B) {
	const elements, job, chunk = 200000, 2000, 256
	xs := workload.UniformU64s(elements, 1e8, 2)
	perElem := func(b *testing.B, n int) {
		b.SetBytes(int64(8 * n))
		reportPerElem(b, n)
	}
	cfg := PermConfig{Iterations: 1}
	c := newPermChecker(cfg, 3)
	tab64 := NewHashSumChecker(HashSumConfig{Family: hashing.FamilyTab64, LogH: 64, Iterations: 1}, 3)
	sums, hsums := newSums(cfg), make([]uint64, 1)
	b.Run(fmt.Sprintf("Poly61×%d/scalar", cfg.Iterations), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.accumulateIntoScalar(sums, xs, false)
		}
		perElem(b, elements)
	})
	for _, row := range []struct {
		name string
		add  func(xs []uint64)
	}{
		{fmt.Sprintf("Poly61×%d", cfg.Iterations), func(xs []uint64) { c.accumulateInto(sums, xs, false) }},
		{"Tab64 64×1", func(xs []uint64) { tab64.AccumulateInto(hsums, xs, false) }},
	} {
		b.Run(row.name+"/batch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row.add(xs)
			}
			perElem(b, elements)
		})
		b.Run(row.name+"/batch/2k", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row.add(xs[:job])
			}
			perElem(b, job)
		})
		b.Run(row.name+"/batch/2k-chunk256", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < job; lo += chunk {
					row.add(xs[lo:min(lo+chunk, job)])
				}
			}
			perElem(b, job)
		})
	}
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
				runInto(c, table, pairs, sumFeed)
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

// BenchmarkAblationGroupWidth measures the constants of the accumulate
// kernel's plan (groupSize) by forcing the group size, on a
// configuration axis: the paper's 6×32 CRC m9 — g = 1 (192 cells, six
// updates per element), g = 2 (three tables of 1024 cells, three
// updates) and g = 3 (two tables of 32k cells, past maxGroupBits and
// past L1) — the default 15×4 CRC m10, whose g = 3 and g = 5 have lane
// kernels and g = 4 does not, and 30×2 CRC m10, the same 660 bits as
// one-bit iterations. Each row is one whole run, fold included, so
// the short runs show why a table must be small beside its input: a
// 256-pair stream chunk or a 2 000-pair stage pays the grouped tables'
// scan without the elements to amortise it. ChooseSum's ranking by
// updates per element is checked against the machine here.
func BenchmarkAblationGroupWidth(b *testing.B) {
	all := workload.ZipfPairs(125000, 1000000, 1<<30, 1)
	crc := hashing.FamilyCRC
	for _, row := range []struct {
		cfg SumConfig
		gs  []int
	}{
		{SumConfig{Iterations: 6, Buckets: 32, RHatLog: 9, Family: crc}, []int{1, 2, 3}},
		{SumConfig{Iterations: 15, Buckets: 4, RHatLog: 10, Family: crc}, []int{1, 2, 3, 4, 5, 6}},
		{SumConfig{Iterations: 30, Buckets: 2, RHatLog: 10, Family: crc}, []int{3, 5, 6, 10}},
	} {
		for _, n := range []int{256, 2000, 8192, len(all)} {
			pairs := all[:n]
			for _, g := range row.gs {
				c := newSumChecker(row.cfg, 7, false, g)
				b.Run(fmt.Sprintf("%s/n-%d/g-%d", row.cfg.Name(), n, g), func(b *testing.B) {
					table := c.NewTable()
					runInto(c, table, pairs, sumFeed)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						runInto(c, table, pairs, sumFeed)
					}
					reportPerElem(b, n)
				})
			}
		}
	}
}

// BenchmarkAblationDenseFold times the fold that ends a run on dense
// cells — every cell non-zero, as a share leaves them whose output is
// reduced on other PEs — at the plans a service-sized and a bulk state
// take: the default 15×4 CRC m10 at g = 3 (five groups of 64 cells)
// and g = 5 (three of 1024), and 6×32 CRC m9 at g = 1 and g = 2. Each
// iteration copies the cells back first, since a fold zeroes them.
func BenchmarkAblationDenseFold(b *testing.B) {
	crc := hashing.FamilyCRC
	for _, row := range []struct {
		cfg SumConfig
		g   int
	}{
		{SumConfig{Iterations: 15, Buckets: 4, RHatLog: 10, Family: crc}, 3},
		{SumConfig{Iterations: 15, Buckets: 4, RHatLog: 10, Family: crc}, 5},
		{SumConfig{Iterations: 6, Buckets: 32, RHatLog: 9, Family: crc}, 1},
		{SumConfig{Iterations: 6, Buckets: 32, RHatLog: 9, Family: crc}, 2},
	} {
		c := NewSumChecker(row.cfg, 7)
		s := new(accScratch)
		c.plan(s, row.g)
		dense := make([]int64, s.cellCount())
		rng := hashing.NewMT19937_64(9)
		for i := range dense {
			dense[i] = int64(rng.Uint64n(1<<40)) - 1<<39 | 1
		}
		b.Run(fmt.Sprintf("%s/g-%d/cells-%d", row.cfg.Name(), row.g, len(dense)), func(b *testing.B) {
			table := c.NewTable()
			for i := 0; i < b.N; i++ {
				copy(s.cells, dense)
				c.fold(table, s)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e3, "us/fold")
		})
	}
}

var sinkBench uint64

// TestGeneralPathMatchesBitParallelSemantics guards the ablation knob,
// one hash evaluation per iteration: both layouts must detect the same
// class of faults (they use different hash assignments, so tables
// differ, but behaviour contracts hold).
func TestGeneralPathMatchesBitParallelSemantics(t *testing.T) {
	cfg := SumConfig{Iterations: 4, Buckets: 16, RHatLog: 7, Family: hashing.FamilyTab}
	input := workload.ZipfPairs(500, 100, 100, 3)
	output := refSumAgg(input)
	for _, perIteration := range []bool{false, true} {
		c := newSumChecker(cfg, 42, perIteration, 0)
		tv, to := runInto(c, c.NewTable(), input, sumFeed), runInto(c, c.NewTable(), output, sumFeed)
		if !tablesEq(tv, to) {
			t.Fatalf("perIteration=%v: correct result rejected", perIteration)
		}
		bad := data.ClonePairs(output)
		bad[0].Value += 3
		if tablesEq(tv, runInto(c, c.NewTable(), bad, sumFeed)) {
			t.Fatalf("perIteration=%v: corruption not reflected in tables", perIteration)
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
