// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 7) from the checkers,
// operations, manipulators and workload generators of this repository
// (README "Reproducing the paper's evaluation" is the experiment index),
// and carries the soak-and-chaos and recovery episodes behind
// `repro soak`. It measures no performance claim: that is benchmark/.
package exp

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/workload"
)

// AccuracyRow is one point of Fig. 3 or Fig. 5: the empirical failure
// rate of a checker configuration under a manipulator, normalised by
// the configuration's failure bound delta.
type AccuracyRow struct {
	Config      string
	Manipulator string
	Runs        int
	Failures    int
	Rate        float64 // Failures / Runs
	Delta       float64 // theoretical bound
	Ratio       float64 // Rate / Delta, the paper's y-axis
}

// AccuracySumOptions configures the Fig. 3 reproduction. The paper uses
// 50 000 elements over a 10^6-value power law, 4 PEs and 100 000 runs
// per point; defaults are scaled down for laptop runtimes and can be
// raised to paper scale with flags.
type AccuracySumOptions struct {
	Elements    int     // input size n (paper: 50 000)
	KeyUniverse int     // power-law universe (paper: 10^6)
	MinRuns     int     // lower bound on trials per point
	MaxRuns     int     // upper bound on trials per point
	TargetFails float64 // grow runs until delta*runs >= this many expected failures
	Seed        uint64
	Parallelism int // worker goroutines (0 = GOMAXPROCS)
	// Dist selects the transport for the per-configuration distributed
	// clean-accept confirmation (the trial loop itself is local hash
	// arithmetic — the network reduction is exact, so it cannot change
	// a trial's outcome). The zero value is the in-memory network.
	Dist dist.Config
}

// DefaultAccuracySumOptions returns laptop-scale defaults.
func DefaultAccuracySumOptions() AccuracySumOptions {
	return AccuracySumOptions{
		Elements:    2000,
		KeyUniverse: 1e6,
		MinRuns:     2000,
		MaxRuns:     60000,
		TargetFails: 20,
		Seed:        0x9a9a1,
	}
}

// runsFor picks the trial count for a failure bound delta: enough runs
// to expect TargetFails failures, clamped to [MinRuns, MaxRuns].
func runsFor(delta float64, minRuns, maxRuns int, targetFails float64) int {
	if delta <= 0 {
		return maxRuns
	}
	runs := int(math.Ceil(targetFails / delta))
	if runs < minRuns {
		runs = minRuns
	}
	if runs > maxRuns {
		runs = maxRuns
	}
	return runs
}

// parallelTrials executes trial(i) for i in [0, runs) on a worker pool
// and returns the number of trials reporting true.
func parallelTrials(runs, parallelism int, trial func(i int) bool) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	counts := make([]int, parallelism)
	chunk := (runs + parallelism - 1) / parallelism
	for wkr := 0; wkr < parallelism; wkr++ {
		wkr := wkr
		lo, hi := wkr*chunk, (wkr+1)*chunk
		if hi > runs {
			hi = runs
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if trial(i) {
					counts[wkr]++
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// AccuracySum reproduces Fig. 3: the detection accuracy of the sum
// aggregation checker for every Table 3 accuracy configuration under
// every Table 4 manipulator.
//
// A trial manipulates a fresh copy of the input and asks whether the
// condensed reductions of original and manipulated data collide under a
// fresh random seed — exactly the event in which the distributed
// checker would accept the faulty computation (the network reduction is
// exact modular addition, so it cannot change the outcome; this lets
// one trial run without spinning up PEs). Each configuration is
// additionally confirmed once end to end — a checked reduction over the
// opt.Dist transport must accept clean data — so the sweep exercises
// the same backend plumbing as every other experiment.
func AccuracySum(opt AccuracySumOptions) ([]AccuracyRow, error) {
	d := DefaultAccuracySumOptions()
	if opt.Elements <= 0 {
		opt.Elements = d.Elements
	}
	if opt.KeyUniverse <= 0 {
		opt.KeyUniverse = d.KeyUniverse
	}
	if opt.MinRuns <= 0 {
		opt.MinRuns = d.MinRuns
	}
	if opt.MaxRuns <= 0 {
		opt.MaxRuns = d.MaxRuns
	}
	if opt.TargetFails <= 0 {
		opt.TargetFails = d.TargetFails
	}
	if opt.Seed == 0 {
		opt.Seed = d.Seed
	}
	if err := confirmSumConfigs(opt.Dist, core.AccuracyConfigs(), opt.Seed); err != nil {
		return nil, err
	}
	input := workload.ZipfPairs(opt.Elements, opt.KeyUniverse, 1<<32, opt.Seed)
	var rows []AccuracyRow
	for _, cfg := range core.AccuracyConfigs() {
		for _, m := range manipulate.PairManipulators() {
			delta := cfg.AchievedDelta()
			runs := runsFor(delta, opt.MinRuns, opt.MaxRuns, opt.TargetFails)
			failures := parallelTrials(runs, opt.Parallelism, func(i int) bool {
				trialSeed := hashing.Mix64(opt.Seed ^ uint64(i)*0x9e3779b97f4a7c15 ^ 0xface)
				rng := hashing.NewMT19937_64(trialSeed)
				bad := data.ClonePairs(input)
				if !m.Apply(bad, rng, uint64(opt.KeyUniverse)) {
					return false
				}
				c := core.NewSumChecker(cfg, trialSeed)
				tv := c.NewTable()
				c.Accumulate(tv, input)
				to := c.NewTable()
				c.Accumulate(to, bad)
				c.Normalize(tv)
				c.Normalize(to)
				return tablesEqual(tv, to) // collision = checker failure
			})
			rate := float64(failures) / float64(runs)
			rows = append(rows, AccuracyRow{
				Config:      cfg.Name(),
				Manipulator: m.Name,
				Runs:        runs,
				Failures:    failures,
				Rate:        rate,
				Delta:       delta,
				Ratio:       rate / delta,
			})
		}
	}
	return rows, nil
}

func tablesEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AccuracyPermOptions configures the Fig. 5 reproduction (Appendix A).
// The paper uses 10^6 uniform elements over 10^8 values, 4 PEs, 100 000
// runs per point.
type AccuracyPermOptions struct {
	Elements    int
	Universe    uint64
	MinRuns     int
	MaxRuns     int
	TargetFails float64
	Seed        uint64
	Parallelism int
	// Dist selects the transport for the per-configuration distributed
	// clean-accept confirmation; see AccuracySumOptions.Dist.
	Dist dist.Config
}

// DefaultAccuracyPermOptions returns laptop-scale defaults.
func DefaultAccuracyPermOptions() AccuracyPermOptions {
	return AccuracyPermOptions{
		Elements:    5000,
		Universe:    1e8,
		MinRuns:     2000,
		MaxRuns:     60000,
		TargetFails: 20,
		Seed:        0x5e5e5,
	}
}

// PermLogHs are the truncation widths of Fig. 5's x-axis.
var PermLogHs = []int{1, 2, 3, 4, 6, 8, 12}

// AccuracyPerm reproduces Fig. 5: the permutation/sort checker's
// detection accuracy for CRC-32C and tabulation hashing truncated to
// logH bits, under the Table 6 manipulators. This is where the paper
// observes CRC-32C's weakness against the Increment manipulator. As in
// AccuracySum, every swept configuration is confirmed once end to end
// over the opt.Dist transport.
func AccuracyPerm(opt AccuracyPermOptions) ([]AccuracyRow, error) {
	d := DefaultAccuracyPermOptions()
	if opt.Elements <= 0 {
		opt.Elements = d.Elements
	}
	if opt.Universe == 0 {
		opt.Universe = d.Universe
	}
	if opt.MinRuns <= 0 {
		opt.MinRuns = d.MinRuns
	}
	if opt.MaxRuns <= 0 {
		opt.MaxRuns = d.MaxRuns
	}
	if opt.TargetFails <= 0 {
		opt.TargetFails = d.TargetFails
	}
	if opt.Seed == 0 {
		opt.Seed = d.Seed
	}
	if err := confirmPermConfigs(opt.Dist, opt.Seed); err != nil {
		return nil, err
	}
	input := workload.UniformU64s(opt.Elements, opt.Universe, opt.Seed)
	var rows []AccuracyRow
	for _, fam := range []hashing.Family{hashing.FamilyCRC, hashing.FamilyTab} {
		for _, logH := range PermLogHs {
			cfg := core.PermConfig{Family: fam, LogH: logH, Iterations: 1}
			delta := cfg.Delta()
			runs := runsFor(delta, opt.MinRuns, opt.MaxRuns, opt.TargetFails)
			for _, m := range manipulate.SeqManipulators() {
				m := m
				failures := parallelTrials(runs, opt.Parallelism, func(i int) bool {
					trialSeed := hashing.Mix64(opt.Seed ^ uint64(i)*0x9e3779b97f4a7c15 ^ 0xbeef)
					rng := hashing.NewMT19937_64(trialSeed)
					bad := data.CloneU64s(input)
					if !m.Apply(bad, rng, opt.Universe) {
						return false
					}
					c := core.NewPermChecker(cfg, trialSeed)
					lambda := core.PermCheckLocalWork(c, input, bad)
					mask := uint64(1)<<logH - 1
					for _, v := range lambda {
						if v&mask != 0 {
							return false // detected
						}
					}
					return true // collision = checker failure
				})
				rate := float64(failures) / float64(runs)
				rows = append(rows, AccuracyRow{
					Config:      cfg.Name(),
					Manipulator: m.Name,
					Runs:        runs,
					Failures:    failures,
					Rate:        rate,
					Delta:       delta,
					Ratio:       rate / delta,
				})
			}
		}
	}
	return rows, nil
}

// Confirmation runs depend only on (transport, config, seed); repeated
// sweeps — notably benchmarks calling AccuracySum in a loop — must not
// pay a distributed run per invocation, so outcomes are memoized.
var (
	confirmMu   sync.Mutex
	confirmDone = map[string]bool{}
)

func confirmOnce(key string, run func() error) error {
	confirmMu.Lock()
	done := confirmDone[key]
	confirmMu.Unlock()
	if done {
		return nil
	}
	// The lock is not held across the distributed run: concurrent first
	// callers may confirm the same key twice (idempotent), but
	// confirmations for unrelated keys never serialize behind each
	// other's network setup.
	if err := run(); err != nil {
		return err
	}
	confirmMu.Lock()
	confirmDone[key] = true
	confirmMu.Unlock()
	return nil
}

// confirmSumConfigs runs one tiny checked reduction per configuration
// over the selected transport: clean data must be accepted (one-sided
// error). This ties the accuracy sweeps into the same dist.Config
// plumbing as the distributed experiments.
func confirmSumConfigs(cfg dist.Config, sumCfgs []core.SumConfig, seed uint64) error {
	const p = 2
	for _, sc := range sumCfgs {
		sc := sc
		key := fmt.Sprintf("sum/%s/%s/%d", cfg.Transport, sc.Name(), seed)
		err := confirmOnce(key, func() error {
			input := workload.ZipfPairs(400, 1000, 1<<20, seed)
			return dist.RunConfig(cfg, p, seed, func(w *dist.Worker) error {
				opts := repro.DefaultOptions()
				opts.Sum = sc
				ctx, err := repro.NewContext(w, opts)
				if err != nil {
					return err
				}
				s, e := data.SplitEven(len(input), p, w.Rank())
				_, err = ctx.Pairs(input[s:e]).ReduceByKey(repro.SumFn).Collect()
				return err
			})
		})
		if err != nil {
			return fmt.Errorf("exp: config %s failed the clean-accept confirmation over %q: %w",
				sc.Name(), cfg.Transport, err)
		}
	}
	return nil
}

// confirmPermConfigs is confirmSumConfigs for the Fig. 5 permutation
// configurations: a checked sort per hash family and truncation width.
func confirmPermConfigs(cfg dist.Config, seed uint64) error {
	const p = 2
	for _, fam := range []hashing.Family{hashing.FamilyCRC, hashing.FamilyTab} {
		for _, logH := range PermLogHs {
			pc := core.PermConfig{Family: fam, LogH: logH, Iterations: 1}
			key := fmt.Sprintf("perm/%s/%s/%d", cfg.Transport, pc.Name(), seed)
			err := confirmOnce(key, func() error {
				input := workload.UniformU64s(400, 1e8, seed)
				return dist.RunConfig(cfg, p, seed, func(w *dist.Worker) error {
					opts := repro.DefaultOptions()
					opts.Perm = pc
					ctx, err := repro.NewContext(w, opts)
					if err != nil {
						return err
					}
					s, e := data.SplitEven(len(input), p, w.Rank())
					_, err = ctx.Seq(input[s:e]).Sort().Collect()
					return err
				})
			})
			if err != nil {
				return fmt.Errorf("exp: config %s failed the clean-accept confirmation over %q: %w",
					pc.Name(), cfg.Transport, err)
			}
		}
	}
	return nil
}
