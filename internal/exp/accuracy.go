// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 7) from the checkers,
// operations, manipulators and workload generators of this repository
// (README "Reproducing the paper's evaluation" is the experiment index),
// and carries the chaos runner behind `repro soak` (chaos.go: one fault
// schedule whose phases are rows, one checker per phase and op kind, a
// gate of named violations). It measures no performance claim: that is
// benchmark/.
//
// The paper half is three mechanisms, each used by every experiment of
// its kind: one trial loop (accuracy.go: Fig. 3 and Fig. 5 are two
// generators of points over it), one pipeline sweep (sweep.go: fig4,
// commvolume and modeled are three column lists over the Row it fills
// from one checked Context job), and one timed-rows helper
// (overhead.go: Table 5 and Section 7.2).
package exp

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/data"
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

// AccuracyOptions configures a detection-accuracy sweep. The paper runs
// 100 000 trials per point on 4 PEs — 50 000 power-law elements for
// Fig. 3, 10^6 uniform ones for Fig. 5; the defaults are scaled down
// for laptop runtimes and can be raised to paper scale with flags.
type AccuracyOptions struct {
	Elements    int // input size n per trial
	KeyUniverse int // Fig. 3's power-law key universe (paper: 10^6); Fig. 5 draws from permUniverse
	MinRuns     int // lower bound on trials per point
	MaxRuns     int // upper bound on trials per point
	Seed        uint64
}

// DefaultAccuracySum returns Fig. 3's laptop-scale defaults.
func DefaultAccuracySum() AccuracyOptions {
	return AccuracyOptions{Elements: 2000, KeyUniverse: 1e6, MinRuns: 2000, MaxRuns: 60000, Seed: 0x9a9a1}
}

// DefaultAccuracyPerm returns Fig. 5's laptop-scale defaults.
func DefaultAccuracyPerm() AccuracyOptions {
	return AccuracyOptions{Elements: 5000, MinRuns: 2000, MaxRuns: 60000, Seed: 0x5e5e5}
}

const (
	// targetFails is how many failures a point should expect to see:
	// runs grow until delta*runs reaches it, within [MinRuns, MaxRuns].
	targetFails = 20
	// permUniverse is the value range of Fig. 5's uniform input (paper: 10^8).
	permUniverse = 1e8
)

// accuracyPoint is one (configuration, manipulator) cell of an accuracy
// figure. escaped runs one trial — manipulate a fresh copy of the
// input, fingerprint original and copy under trialSeed — and reports
// whether the checker would have accepted the faulty result. A
// manipulator that declines to apply leaves the data correct, so that
// trial counts as not escaped.
//
// A trial is local hash arithmetic: the checkers' network reduction is
// exact modular addition and cannot change the outcome, so no PEs are
// spun up (that every configuration accepts clean data distributed is
// held by core's Test{Sum,Perm}CheckerAcceptsAllConfigs).
type accuracyPoint struct {
	config      string
	manipulator string
	delta       float64
	escaped     func(trialSeed uint64) bool
}

// runTrials is the trial loop of both accuracy figures: per point, pick
// the trial count from delta, run the trials on all cores, and build
// the row. salt separates the figures' trial-seed streams.
func runTrials(opt AccuracyOptions, salt uint64, points []accuracyPoint) []AccuracyRow {
	rows := make([]AccuracyRow, 0, len(points))
	for _, pt := range points {
		runs := runsFor(pt.delta, opt.MinRuns, opt.MaxRuns)
		failures := parallelTrials(runs, func(i int) bool {
			return pt.escaped(hashing.Mix64(opt.Seed ^ uint64(i)*0x9e3779b97f4a7c15 ^ salt))
		})
		rate := float64(failures) / float64(runs)
		rows = append(rows, AccuracyRow{
			Config:      pt.config,
			Manipulator: pt.manipulator,
			Runs:        runs,
			Failures:    failures,
			Rate:        rate,
			Delta:       pt.delta,
			Ratio:       rate / pt.delta,
		})
	}
	return rows
}

// runsFor picks the trial count for a failure bound delta: enough runs
// to expect targetFails failures, clamped to [minRuns, maxRuns].
func runsFor(delta float64, minRuns, maxRuns int) int {
	if delta <= 0 {
		return maxRuns
	}
	return min(max(int(math.Ceil(targetFails/delta)), minRuns), maxRuns)
}

// parallelTrials executes trial(i) for i in [0, runs) on GOMAXPROCS
// goroutines and returns the number of trials reporting true.
func parallelTrials(runs int, trial func(i int) bool) int {
	var total atomic.Int64
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for first := 0; first < workers; first++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			count := 0
			for i := first; i < runs; i += workers {
				if trial(i) {
					count++
				}
			}
			total.Add(int64(count))
		}()
	}
	wg.Wait()
	return int(total.Load())
}

func (opt AccuracyOptions) validate(universe int) error {
	if opt.Elements < 1 || universe < 1 || opt.MinRuns < 1 || opt.MaxRuns < opt.MinRuns {
		return fmt.Errorf("exp: accuracy sweep needs elements, universe >= 1 and 1 <= min-runs <= max-runs, got %d, %d, %d, %d",
			opt.Elements, universe, opt.MinRuns, opt.MaxRuns)
	}
	return nil
}

// AccuracySum reproduces Fig. 3: the detection accuracy of the sum
// aggregation checker for every Table 3 accuracy configuration under
// every Table 4 manipulator. A faulty result escapes when the condensed
// reductions of original and manipulated data collide.
func AccuracySum(opt AccuracyOptions) ([]AccuracyRow, error) {
	if err := opt.validate(opt.KeyUniverse); err != nil {
		return nil, err
	}
	input := workload.ZipfPairs(opt.Elements, opt.KeyUniverse, 1<<32, opt.Seed)
	var points []accuracyPoint
	for _, m := range manipulate.PairManipulators() {
		for _, cfg := range core.AccuracyConfigs() {
			points = append(points, accuracyPoint{cfg.Name(), m.Name, cfg.AchievedDelta(), func(trialSeed uint64) bool {
				bad := data.ClonePairs(input)
				if !m.Apply(bad, hashing.NewMT19937_64(trialSeed), uint64(opt.KeyUniverse)) {
					return false
				}
				c := core.NewSumChecker(cfg, trialSeed)
				tv, to := c.NewTable(), c.NewTable()
				c.Accumulate(tv, input)
				c.Accumulate(to, bad)
				c.Normalize(tv)
				c.Normalize(to)
				return slices.Equal(tv, to)
			}})
		}
	}
	return runTrials(opt, 0xface, points), nil
}

// AccuracyPerm reproduces Fig. 5: the permutation/sort checker's
// detection accuracy for CRC-32C and tabulation hashing truncated to
// logH bits, under the Table 6 manipulators. This is where the paper
// observes CRC-32C's weakness against the Increment manipulator. A
// faulty result escapes when the hash sums of original and manipulated
// data agree in their low logH bits.
func AccuracyPerm(opt AccuracyOptions) ([]AccuracyRow, error) {
	if err := opt.validate(permUniverse); err != nil {
		return nil, err
	}
	input := workload.UniformU64s(opt.Elements, permUniverse, opt.Seed)
	var points []accuracyPoint
	for _, m := range manipulate.SeqManipulators() {
		for _, cfg := range core.PermAccuracyConfigs() {
			points = append(points, accuracyPoint{cfg.Name(), m.Name, cfg.Delta(), func(trialSeed uint64) bool {
				bad := data.CloneU64s(input)
				if !m.Apply(bad, hashing.NewMT19937_64(trialSeed), permUniverse) {
					return false
				}
				return core.NewHashSumChecker(cfg, trialSeed).Check(input, bad)
			}})
		}
	}
	return runTrials(opt, 0xbeef, points), nil
}
