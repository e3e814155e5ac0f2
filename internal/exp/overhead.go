package exp

import (
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/workload"
)

// OverheadRow is one row of Table 5 or Section 7.2: local processing
// time per element of a checker, or of the operation it checks.
type OverheadRow struct {
	Config       string
	Elements     int
	NsPerElement float64
}

// OverheadOptions configures the local-overhead measurements (the paper
// uses 10^6 elements and reports nanoseconds per element).
type OverheadOptions struct {
	Elements int
	Repeats  int // repetitions; the fastest wins
}

// DefaultOverhead matches the paper's element count, measured on one
// core as the paper does.
func DefaultOverhead() OverheadOptions {
	return OverheadOptions{Elements: 1_000_000, Repeats: 5}
}

// overheadSeed seeds the inputs and checkers of the overhead tables.
const overheadSeed = 0x0ead5

// sinkU64 defeats dead-code elimination in timing loops.
var sinkU64 uint64

// timedCase is one row of an overhead table before it is timed: run
// processes work elements and returns a value for the sink.
type timedCase struct {
	name string
	work int
	run  func() (uint64, error)
}

// timedRows is the one helper behind Table 5 and Section 7.2: it builds
// the table's cases over a one-PE Context with checking off — so a
// reference row can time the operation itself, the code a pipeline
// runs, and at p = 1 no message is sent — then reports each case's
// fastest of opt.Repeats runs, the conventional estimator for CPU-bound
// microbenchmarks, per element.
func timedRows(opt OverheadOptions, build func(ctx *repro.Context) []timedCase) ([]OverheadRow, error) {
	if opt.Elements < 1 {
		return nil, fmt.Errorf("exp: overhead measurement needs elements >= 1, got %d", opt.Elements)
	}
	var rows []OverheadRow
	err := dist.RunConfig(dist.Config{}, 1, overheadSeed, func(w *dist.Worker) error {
		opts := repro.DefaultOptions()
		opts.Mode = repro.CheckOff
		ctx, err := repro.NewContext(w, opts)
		if err != nil {
			return err
		}
		for _, c := range build(ctx) {
			best := time.Duration(math.MaxInt64)
			for i := 0; i < max(opt.Repeats, 1); i++ {
				start := time.Now()
				v, err := c.run()
				if err != nil {
					return fmt.Errorf("%s: %w", c.name, err)
				}
				best = min(best, time.Since(start))
				sinkU64 = v
			}
			rows = append(rows, OverheadRow{
				Config:       c.name,
				Elements:     opt.Elements,
				NsPerElement: float64(best.Nanoseconds()) / float64(c.work),
			})
		}
		return nil
	})
	return rows, err
}

// OverheadSum reproduces Table 5: ns/element of the checker's local
// phase for each scaling configuration — a sum builder set up, the
// input added and the state sealed, what a checked stage pays for its
// input — plus a "Reduce" row timing the reduction itself for the
// paper's ~88 ns/element comparison point.
func OverheadSum(opt OverheadOptions) ([]OverheadRow, error) {
	return timedRows(opt, func(ctx *repro.Context) []timedCase {
		pairs := workload.UniformPairs(opt.Elements, 1<<62, 1<<62, overheadSeed)
		var cases []timedCase
		for _, cfg := range core.ScalingConfigs() {
			cases = append(cases, timedCase{cfg.Name(), len(pairs), func() (uint64, error) {
				b := core.NewSumAggBuilder("table5", cfg, overheadSeed, core.Serial, false)
				b.AddInput(pairs)
				return b.Seal().Words()[0], nil
			}})
		}
		return append(cases, timedCase{"Reduce (reference)", len(pairs), func() (uint64, error) {
			out, err := ctx.Pairs(pairs).ReduceByKey(repro.SumFn).Collect()
			return uint64(len(out)), err
		}})
	})
}

// OverheadPerm reproduces the Section 7.2 numbers: local processing
// overhead of the permutation/sort checker with CRC-32C and tabulation
// hashing (paper: 2.0 and 2.8 ns per element on a 3.6 GHz machine),
// plus the sort itself for the "roughly 3.5% of total running time"
// comparison.
func OverheadPerm(opt OverheadOptions) ([]OverheadRow, error) {
	return timedRows(opt, func(ctx *repro.Context) []timedCase {
		input := workload.UniformU64s(opt.Elements, 1e8, overheadSeed)
		output := data.CloneU64s(input)
		data.SortU64(output)
		var cases []timedCase
		for _, fam := range []hashing.Family{hashing.FamilyCRC, hashing.FamilyTab} {
			c := core.NewHashSumChecker(core.HashSumConfig{Family: fam, LogH: 32, Iterations: 1}, overheadSeed)
			// The checker hashes input and output, 2n elements.
			cases = append(cases, timedCase{fam.Name, 2 * len(input), func() (uint64, error) {
				lambda := make([]uint64, 1)
				c.AccumulateInto(lambda, input, false)
				c.AccumulateInto(lambda, output, true)
				return lambda[0], nil
			}})
		}
		return append(cases, timedCase{"Sort (reference)", len(input), func() (uint64, error) {
			out, err := ctx.Seq(input).Sort().Collect()
			return uint64(len(out)), err
		}})
	})
}
