package exp

import (
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/workload"
)

// OverheadRow is one row of Table 5: the checker's local input
// processing time per element.
type OverheadRow struct {
	Config       string
	Elements     int
	NsPerElement float64
}

// OverheadOptions configures the Table 5 reproduction: local processing
// time of the sum checker for pairs of 64-bit integers (the paper uses
// 10^6 pairs and reports nanoseconds per element).
type OverheadOptions struct {
	Elements int
	Repeats  int
	Seed     uint64
	Configs  []core.SumConfig // defaults to core.ScalingConfigs()
	// Parallelism shards the local accumulation across n > 1
	// goroutines; values below 2 — including the zero value — keep the
	// paper-faithful serial per-core measurement. The exp harnesses
	// are timing instruments, so unlike repro.Options.Parallelism
	// there is no "all cores" sentinel: callers wanting that pass
	// runtime.GOMAXPROCS(0) explicitly.
	Parallelism int
}

// serialFloor clamps an exp-layer Parallelism value to the library's
// encoding, where serial is 1 (0 would mean GOMAXPROCS there).
func serialFloor(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// DefaultOverheadOptions matches the paper's element count, measured
// serially as the paper does.
func DefaultOverheadOptions() OverheadOptions {
	return OverheadOptions{Elements: 1_000_000, Repeats: 5, Seed: 0x0ead5, Parallelism: 1}
}

// OverheadSum reproduces Table 5: ns/element of the checker's local
// accumulation for each scaling configuration, plus a "Reduce" row
// measuring the main reduction's local work (hash-table combine) for
// the paper's ~88 ns/element comparison point.
func OverheadSum(opt OverheadOptions) []OverheadRow {
	if opt.Elements <= 0 {
		opt = DefaultOverheadOptions()
	}
	configs := opt.Configs
	if configs == nil {
		configs = core.ScalingConfigs()
	}
	pairs := workload.UniformPairs(opt.Elements, 1<<62, 1<<62, opt.Seed)
	par := core.NewParallelAccumulator(serialFloor(opt.Parallelism))
	rows := make([]OverheadRow, 0, len(configs)+1)
	for _, cfg := range configs {
		c := core.NewSumChecker(cfg, opt.Seed)
		best := minDuration(opt.Repeats, func() {
			t := core.SumCheckLocalWork(c, par, pairs)
			sinkU64 = t[0]
		})
		rows = append(rows, OverheadRow{
			Config:       cfg.Name(),
			Elements:     opt.Elements,
			NsPerElement: float64(best.Nanoseconds()) / float64(opt.Elements),
		})
	}
	// Reference: the reduce operation's own local work.
	best := minDuration(opt.Repeats, func() {
		m := make(map[uint64]uint64, 1024)
		for _, pr := range pairs {
			m[pr.Key] += pr.Value
		}
		sinkU64 = uint64(len(m))
	})
	rows = append(rows, OverheadRow{
		Config:       "Reduce (reference)",
		Elements:     opt.Elements,
		NsPerElement: float64(best.Nanoseconds()) / float64(opt.Elements),
	})
	return rows
}

// PermOverheadRow is one row of the Section 7.2 running-time
// measurement: ns/element of permutation fingerprinting.
type PermOverheadRow struct {
	Hash         string
	Elements     int
	NsPerElement float64
}

// OverheadPerm reproduces the Section 7.2 numbers: local processing
// overhead of the permutation/sort checker with CRC-32C and tabulation
// hashing (paper: 2.0 and 2.8 ns per element on a 3.6 GHz machine),
// plus the local sort itself for the "roughly 3.5% of total running
// time" comparison.
func OverheadPerm(opt OverheadOptions) []PermOverheadRow {
	if opt.Elements <= 0 {
		opt = DefaultOverheadOptions()
	}
	input := workload.UniformU64s(opt.Elements, 1e8, opt.Seed)
	output := data.CloneU64s(input)
	data.SortU64(output)
	par := core.NewParallelAccumulator(serialFloor(opt.Parallelism))
	rows := make([]PermOverheadRow, 0, 3)
	for _, fam := range []hashing.Family{hashing.FamilyCRC, hashing.FamilyTab} {
		cfg := core.PermConfig{Family: fam, LogH: 32, Iterations: 1}
		c := core.NewPermChecker(cfg, opt.Seed)
		best := minDuration(opt.Repeats, func() {
			lambda := core.PermCheckLocalWorkPar(c, par, input, output)
			sinkU64 = lambda[0]
		})
		rows = append(rows, PermOverheadRow{
			Hash:     fam.Name,
			Elements: opt.Elements,
			// The checker hashes input and output, 2n elements.
			NsPerElement: float64(best.Nanoseconds()) / float64(2*opt.Elements),
		})
	}
	// Local sort reference for the relative-overhead claim.
	best := minDuration(opt.Repeats, func() {
		tmp := data.CloneU64s(input)
		data.SortU64(tmp)
		sinkU64 = tmp[0]
	})
	rows = append(rows, PermOverheadRow{
		Hash:         "Sort (reference)",
		Elements:     opt.Elements,
		NsPerElement: float64(best.Nanoseconds()) / float64(opt.Elements),
	})
	return rows
}

// sinkU64 defeats dead-code elimination in timing loops.
var sinkU64 uint64

// minDuration runs f `repeats` times and returns the fastest run —
// the conventional estimator for CPU-bound microbenchmarks.
func minDuration(repeats int, f func()) time.Duration {
	if repeats < 1 {
		repeats = 1
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}
