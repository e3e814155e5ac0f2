// Benchmarks regenerating the paper's evaluation, one target per table
// and figure (README "Reproducing the paper's evaluation" is the
// experiment index):
//
//	BenchmarkTable2Optimizer        — Table 2 parameter search
//	BenchmarkTable5SumCheckerLocal  — Table 5 local overhead per config (builder, input, Seal)
//	BenchmarkPermCheckerLocal       — Section 7.2 overhead (CRC/Tab)
//	BenchmarkFig3AccuracySweep      — Fig. 3 accuracy harness
//	BenchmarkFig4WeakScaling        — Fig. 4 checked/unchecked pipeline
//	BenchmarkFig5PermAccuracy       — Fig. 5 accuracy harness
//	BenchmarkCommVolumeAudit        — bottleneck-volume audit
//	BenchmarkPipelineEagerVsDeferred — eager vs one batched Verify
//	BenchmarkCheckerSetup           — what a checker costs before its first element
//
// Whole checked jobs (reduce_zipf, sort_uniform, ...) are measured by
// the benchmark of record, bash benchmark/run.sh, not here.
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"testing"

	"repro"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/hashing"
	"repro/internal/ops"
	"repro/internal/workload"
)

// BenchmarkTable2Optimizer regenerates all 16 rows of Table 2.
func BenchmarkTable2Optimizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 16 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkTable5SumCheckerLocal measures the checker's local phase
// per element for every Table 5 configuration, as exp.OverheadSum
// times it: a sum builder set up, the input added, the state sealed.
// The ns/element metric is the paper's reported quantity.
func BenchmarkTable5SumCheckerLocal(b *testing.B) {
	const elements = 200000
	pairs := workload.UniformPairs(elements, 1<<62, 1<<62, 1)
	for _, cfg := range core.ScalingConfigs() {
		b.Run(cfg.Name(), func(b *testing.B) {
			b.SetBytes(int64(16 * elements))
			for i := 0; i < b.N; i++ {
				sb := core.NewSumAggBuilder("table5", cfg, 7, core.Serial, false)
				sb.AddInput(pairs)
				sinkState = sb.Seal()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elements), "ns/elem")
		})
	}
	// The reduce operation itself, the paper's ~88 ns comparison point:
	// the kernel a pipeline runs, on one PE (no message is sent at p = 1).
	b.Run("Reduce-reference", func(b *testing.B) {
		err := dist.RunConfig(dist.Config{}, 1, 1, func(w *dist.Worker) error {
			pt := ops.NewPartitioner(1, 1)
			b.SetBytes(int64(16 * elements))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ops.ReduceByKey(w, pt, pairs, ops.SumFn); err != nil {
					return err
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elements), "ns/elem")
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkSumAccumulateEngine compares the forms of the Table 5 local
// loop on the default configuration, DefaultOptions().Sum, and on the
// paper's 6×32 CRC m9 scaling configuration, the default before it: the
// element-major scalar reference (the seed implementation) and
// SumAggBuilder, the one accumulation path. Both compute identical
// residues; only wall time differs. The builder rows are what a checked
// stage pays: a builder, the share added, an output subtracted, Seal —
// per element of both sides. The uniform-200k rows add input only; their
// values are below 2^62, so their blocks are wide: each value goes in
// as two 32-bit halves, one lane pass each. The zipf-125k rows are the
// benchmark of record's reduce_zipf share (125k pairs, Zipf keys over
// 1e6, values below 2^30): heavy keys hit one cell over and over, which
// the uniform rows cannot show. The 2k rows are 2 000 of the uniform
// pairs, whole and in the 256-pair chunks a stream stage feeds. The 2k
// and zipf-125k builders subtract their own input's reduction, so their
// cells cancel and the fold reads zeros; the svc rows are a
// service_mixed claim's share (svcShare), whose output is reduced
// elsewhere and whose fold is dense.
func BenchmarkSumAccumulateEngine(b *testing.B) {
	const elements = 200000
	pairs := workload.UniformPairs(elements, 1<<62, 1<<62, 1)
	zipf := workload.ZipfPairs(125000, 1000000, 1<<30, 1)
	job := pairs[:serviceJob]
	paper := core.SumConfig{Iterations: 6, Buckets: 32, RHatLog: 9, Family: hashing.FamilyCRC}
	perElem := func(b *testing.B, n int) {
		b.SetBytes(int64(16 * n))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
	}
	reduced := func(in []data.Pair) []data.Pair { return data.MapToPairs(data.PairsToMapSum(in)) }
	svcIn, svcOut := svcShare(false)
	cntIn, cntOut := svcShare(true)
	for _, cfg := range []core.SumConfig{repro.DefaultOptions().Sum, paper} {
		c := core.NewSumChecker(cfg, 7)
		table := c.NewTable()
		builder := func(name string, in, out []data.Pair, chunk int, count bool) {
			b.Run(cfg.Name()+"/builder/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sb := core.NewSumAggBuilder("bench", cfg, 7, core.Serial, count)
					for lo := 0; lo < len(in); lo += chunk {
						sb.AddInput(in[lo:min(lo+chunk, len(in))])
					}
					for lo := 0; lo < len(out); lo += chunk {
						sb.AddOutput(out[lo:min(lo+chunk, len(out))])
					}
					sinkState = sb.Seal()
				}
				perElem(b, len(in)+len(out))
			})
		}
		b.Run(cfg.Name()+"/scalar", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.AccumulateScalar(table, pairs, false)
			}
			perElem(b, elements)
		})
		builder("uniform-200k", pairs, nil, len(pairs), false)
		builder("2k", job, reduced(job), len(job), false)
		builder("2k-chunk256", job, reduced(job), jobChunk, false)
		builder("zipf-125k", zipf, reduced(zipf), len(zipf), false)
		builder("svc-2k", svcIn, svcOut, len(svcIn), false)
		builder("svc-2k-count-chunk256", cntIn, cntOut, jobChunk, true)
	}
}

// svcShare is rank 0's share of a service_mixed sum claim, or with
// count of a count claim, at p = 4: 2 000 pairs over keys below 2 000
// with values below 2^30, and the first quarter of the reduction of
// all four ranks' pairs, by key. Input and output do not cancel in
// the cells, so the fold that ends the state is dense.
func svcShare(count bool) (in, out []data.Pair) {
	const p = 4
	all := workload.UniformPairs(p*serviceJob, serviceJob, 1<<30, 5)
	red := make(map[uint64]uint64)
	for _, pr := range all {
		if count {
			red[pr.Key]++
		} else {
			red[pr.Key] += pr.Value
		}
	}
	res := data.MapToPairs(red)
	lo, hi := data.SplitEven(len(res), p, 0)
	return all[:serviceJob], res[lo:hi]
}

// sinkState keeps the builder rows' sealed states live.
var sinkState core.CheckState

// The job size of BenchmarkSumAccumulateEngine's service rows, and
// the chunk a stream stage hands a checker.
const serviceJob, jobChunk = 2000, 256

// BenchmarkPermCheckerLocal measures permutation fingerprinting per
// element (Section 7.2: 2.0 ns CRC, 2.8 ns Tab on the paper's machine).
func BenchmarkPermCheckerLocal(b *testing.B) {
	const elements = 200000
	input := workload.UniformU64s(elements, 1e8, 2)
	output := data.CloneU64s(input)
	data.SortU64(output)
	for _, fam := range []hashing.Family{hashing.FamilyCRC, hashing.FamilyTab, hashing.FamilyTab64, hashing.FamilyMix} {
		fam := fam
		b.Run(fam.Name, func(b *testing.B) {
			c := core.NewHashSumChecker(core.HashSumConfig{Family: fam, LogH: 32, Iterations: 1}, 3)
			lambda := make([]uint64, 1)
			b.SetBytes(int64(16 * elements))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.AccumulateInto(lambda, input, false)
				c.AccumulateInto(lambda, output, true)
			}
			if lambda[0] != 0 {
				b.Fatal("a permutation's fingerprints must cancel")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*elements), "ns/elem")
		})
	}
}

// BenchmarkFig3AccuracySweep runs a reduced Fig. 3 sweep end to end.
func BenchmarkFig3AccuracySweep(b *testing.B) {
	opt := exp.AccuracyOptions{Elements: 500, KeyUniverse: 100000, MinRuns: 200, MaxRuns: 200, Seed: 4}
	for i := 0; i < b.N; i++ {
		rows, err := exp.AccuracySum(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig4WeakScaling times the checked reduce pipeline at p=8 and
// reports the overhead ratio.
func BenchmarkFig4WeakScaling(b *testing.B) {
	opt := exp.SweepOptions{
		Points:  exp.Grid([]int{8}, 5000),
		Configs: []core.SumConfig{{Iterations: 6, Buckets: 32, RHatLog: 9, Family: hashing.FamilyCRC}},
		Repeats: 1,
		Seed:    5,
	}
	var lastRatio float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Sweep(opt)
		if err != nil {
			b.Fatal(err)
		}
		lastRatio = rows[0].CheckedSec / rows[0].BaseSec
	}
	b.ReportMetric(lastRatio, "overhead-ratio")
}

// BenchmarkFig5PermAccuracy runs a reduced Fig. 5 sweep end to end.
func BenchmarkFig5PermAccuracy(b *testing.B) {
	opt := exp.AccuracyOptions{Elements: 500, MinRuns: 200, MaxRuns: 200, Seed: 6}
	for i := 0; i < b.N; i++ {
		rows, err := exp.AccuracyPerm(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkCommVolumeAudit measures the bottleneck-volume audit of the
// Section 1 claim and reports the checker's bottleneck bytes.
func BenchmarkCommVolumeAudit(b *testing.B) {
	opt := exp.DefaultCommVolume()
	opt.Points = []exp.Point{{P: 4, ItemsPerPE: 5000}}
	opt.Seed = 7
	var bytes int64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Sweep(opt)
		if err != nil {
			b.Fatal(err)
		}
		bytes = rows[0].CheckerBytes
	}
	b.ReportMetric(float64(bytes), "checker-bytes")
}

// BenchmarkModeledScaling runs the alpha-beta-model scaling sweep at
// p=1024 and reports the checked job's modeled makespan over the
// CheckOff job's.
func BenchmarkModeledScaling(b *testing.B) {
	opt := exp.DefaultModeled()
	opt.Points = exp.Grid([]int{1024}, 2000)
	opt.Seed = 10
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Sweep(opt)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[0].CheckedModelMs / rows[0].BaseModelMs
	}
	b.ReportMetric(ratio, "checked/off-modeled")
}

// BenchmarkPipelineEagerVsDeferred times the same chained three-stage
// checked pipeline (ReduceByKey, Sort, Union) with per-operation eager
// verification versus one batched deferred Verify — the round savings
// the Context API exists for.
func BenchmarkPipelineEagerVsDeferred(b *testing.B) {
	const p = 4
	pairs := workload.ZipfPairs(24000, 2000, 100, 11)
	seqA := workload.UniformU64s(16000, 1e9, 12)
	seqB := workload.UniformU64s(12000, 1e9, 13)
	for _, mode := range []repro.CheckMode{repro.CheckEager, repro.CheckDeferred} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			opts := repro.DefaultOptions()
			opts.Mode = mode
			b.SetBytes(int64(16*len(pairs) + 8*len(seqA) + 8*len(seqB)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := repro.Run(p, uint64(i), func(w *repro.Worker) error {
					ctx, err := repro.NewContext(w, opts)
					if err != nil {
						return err
					}
					r := w.Rank()
					s, e := data.SplitEven(len(pairs), p, r)
					if _, err := ctx.Pairs(pairs[s:e]).ReduceByKey(repro.SumFn).Collect(); err != nil {
						return err
					}
					as, ae := data.SplitEven(len(seqA), p, r)
					if _, err := ctx.Seq(seqA[as:ae]).Sort().Collect(); err != nil {
						return err
					}
					bs, be := data.SplitEven(len(seqB), p, r)
					if _, err := ctx.Seq(seqA[as:ae]).Union(ctx.Seq(seqB[bs:be])).Collect(); err != nil {
						return err
					}
					return ctx.Verify()
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckerSetup measures what a checker costs before it has
// seen an element — the fixed cost a 2 000-element service job pays per
// stage and per rank, which the paper's 125 000-element jobs never see:
// construct each builder of the default configuration and seal it on
// empty input, and derive a job worker whose body never draws a random
// number. Run with -benchmem: the perm and sorted rows allocate no hash
// table once the first iteration has handed its tables back.
func BenchmarkCheckerSetup(b *testing.B) {
	opts := repro.DefaultOptions()
	var sink uint64
	b.Run("sum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += core.NewSumAggBuilder("setup", opts.Sum, uint64(i), core.Serial, false).Seal().Words()[0]
		}
	})
	b.Run("perm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += core.NewPermBuilder("setup", opts.Perm, uint64(i), core.Serial).Seal().Words()[0]
		}
	})
	b.Run("sorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += core.NewSortedBuilder("setup", opts.Perm, uint64(i), core.Serial).Seal().Words()[0]
		}
	})
	b.Run("zip", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += core.NewZipState("setup", opts.Zip, uint64(i), nil, nil, nil, 0, 0, 0, true).Words()[0]
		}
	})
	b.Run("jobworker", func(b *testing.B) {
		net := comm.NewMemNetworkTimeout(1, 0)
		defer net.Close()
		ws, err := dist.NewWorkers(net, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += uint64(ws[0].JobWorker(ws[0].Coll, 7, uint64(i)).Rank())
		}
	})
	_ = sink
}
