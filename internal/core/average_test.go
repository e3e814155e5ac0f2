package core

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/workload"
)

// buildAvgReference computes exact (sum, count) assertions in lowest
// terms from a global input.
func buildAvgReference(global []data.Pair) []AvgAssertion {
	sums := make(map[uint64]uint64)
	counts := make(map[uint64]uint64)
	for _, pr := range global {
		sums[pr.Key] += pr.Value
		counts[pr.Key]++
	}
	out := make([]AvgAssertion, 0, len(sums))
	for _, k := range slices.Sorted(maps.Keys(sums)) {
		s, c := sums[k], counts[k]
		g := gcd(s, c)
		if g == 0 {
			g = 1
		}
		out = append(out, AvgAssertion{Key: k, AvgNum: s / g, AvgDen: c / g, Count: c})
	}
	return out
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func shardAvg(as []AvgAssertion, p, r int) []AvgAssertion {
	s, e := data.SplitEven(len(as), p, r)
	return as[s:e]
}

func TestAvgCheckerAcceptsCorrect(t *testing.T) {
	global := workload.UniformPairs(2000, 30, 1000, 1)
	asserted := buildAvgReference(global)
	for _, p := range []int{1, 2, 4} {
		err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewAvgAggState("AvgAgg", smallCfg, seed, shardPairs(global, p, w.Rank()), shardAvg(asserted, p, w.Rank()))
			})
			if err != nil {
				return err
			}
			if !ok {
				t.Errorf("p=%d: correct averages rejected", p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAvgCheckerAcceptsTripleForm(t *testing.T) {
	// The (key, sum, count) triples the AverageByKey operation emits
	// adapt directly.
	global := workload.UniformPairs(1000, 20, 500, 2)
	sums := make(map[uint64]uint64)
	counts := make(map[uint64]uint64)
	for _, pr := range global {
		sums[pr.Key] += pr.Value
		counts[pr.Key]++
	}
	var triples []data.Triple
	for _, k := range slices.Sorted(maps.Keys(sums)) {
		triples = append(triples, data.Triple{Key: k, Value: sums[k], Count: counts[k]})
	}
	asserted := AvgAssertionsFromTriples(triples)
	err := dist.RunConfig(dist.Config{}, 3, 1, func(w *dist.Worker) error {
		s, e := data.SplitEven(len(asserted), 3, w.Rank())
		ok, err := check(w, func(seed uint64) CheckState {
			return NewAvgAggState("AvgAgg", smallCfg, seed, shardPairs(global, 3, w.Rank()), asserted[s:e])
		})
		if err != nil {
			return err
		}
		if !ok {
			t.Error("triple-form assertions rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAvgCheckerDetectsWrongAverage(t *testing.T) {
	global := workload.UniformPairs(1500, 20, 1000, 3)
	asserted := buildAvgReference(global)
	detected := 0
	const trials = 60
	for seed := uint64(0); seed < trials; seed++ {
		bad := append([]AvgAssertion(nil), asserted...)
		i := int(seed) % len(bad)
		bad[i].AvgNum++ // average off by 1/Den
		err := dist.RunConfig(dist.Config{}, 3, seed, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewAvgAggState("AvgAgg", smallCfg, seed, shardPairs(global, 3, w.Rank()), shardAvg(bad, 3, w.Rank()))
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 && !ok {
				detected++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if detected < trials-3 {
		t.Fatalf("wrong average detected only %d of %d times", detected, trials)
	}
}

func TestAvgCheckerDetectsScaledPair(t *testing.T) {
	// The attack Corollary 8 calls out: double the average and halve
	// the count so the reconstructed sums still match. The count lane
	// must catch it.
	global := make([]data.Pair, 0, 64)
	for i := 0; i < 64; i++ {
		global = append(global, data.Pair{Key: 7, Value: 10})
	}
	// Correct: avg 10, count 64. Forged: avg 20, count 32 — same
	// reconstructed sum 640.
	forged := []AvgAssertion{{Key: 7, AvgNum: 20, AvgDen: 1, Count: 32}}
	detected := 0
	const trials = 40
	for seed := uint64(0); seed < trials; seed++ {
		err := dist.RunConfig(dist.Config{}, 2, seed, func(w *dist.Worker) error {
			var mine []AvgAssertion
			if w.Rank() == 0 {
				mine = forged
			}
			ok, err := check(w, func(seed uint64) CheckState {
				return NewAvgAggState("AvgAgg", smallCfg, seed, shardPairs(global, 2, w.Rank()), mine)
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 && !ok {
				detected++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if detected < trials-2 {
		t.Fatalf("scaled forgery detected only %d of %d times", detected, trials)
	}
}

func TestAvgCheckerRejectsIndivisibleCertificate(t *testing.T) {
	// AvgDen must divide Count for a correct result; indivisibility is
	// a deterministic reject.
	global := []data.Pair{{Key: 1, Value: 3}, {Key: 1, Value: 4}}
	bad := []AvgAssertion{{Key: 1, AvgNum: 7, AvgDen: 3, Count: 2}}
	err := dist.RunConfig(dist.Config{}, 2, 1, func(w *dist.Worker) error {
		var mine []AvgAssertion
		if w.Rank() == 0 {
			mine = bad
		}
		ok, err := check(w, func(seed uint64) CheckState {
			return NewAvgAggState("AvgAgg", smallCfg, seed, shardPairs(global, 2, w.Rank()), mine)
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("indivisible certificate accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAvgCheckerRejectsZeroCount: an invented row with count 0 adds
// nothing to either lane, so it passed both; no correct result asserts a
// key without input elements, so a zero count is a deterministic reject.
func TestAvgCheckerRejectsZeroCount(t *testing.T) {
	global := workload.UniformPairs(600, 10, 100, 5)
	asserted := buildAvgReference(global)
	invented := AvgAssertion{Key: 1 << 40, AvgNum: 7, AvgDen: 1, Count: 0}
	err := dist.RunConfig(dist.Config{}, 2, 1, func(w *dist.Worker) error {
		mine := shardAvg(asserted, 2, w.Rank())
		if w.Rank() == 0 {
			mine = append(append([]AvgAssertion(nil), mine...), invented)
		}
		ok, err := check(w, func(seed uint64) CheckState {
			return NewAvgAggState("AvgAgg", smallCfg, seed, shardPairs(global, 2, w.Rank()), mine)
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("zero-count row accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAvgCheckerDetectsWrongCount(t *testing.T) {
	global := workload.UniformPairs(800, 10, 100, 4)
	asserted := buildAvgReference(global)
	bad := append([]AvgAssertion(nil), asserted...)
	// Keep the reconstructed sum identical but mutate count in a way
	// consistent with divisibility: multiply count and halve... use an
	// integer-average key if available; otherwise just bump the count.
	bad[0].Count += bad[0].AvgDen // reconstructed sum changes too; both lanes fire
	detected := 0
	const trials = 30
	for seed := uint64(0); seed < trials; seed++ {
		err := dist.RunConfig(dist.Config{}, 2, seed, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewAvgAggState("AvgAgg", smallCfg, seed, shardPairs(global, 2, w.Rank()), shardAvg(bad, 2, w.Rank()))
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 && !ok {
				detected++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if detected < trials-2 {
		t.Fatalf("wrong count detected only %d of %d times", detected, trials)
	}
}
