package core

import (
	"repro/internal/data"
	"repro/internal/dist"
)

// AvgAssertion is one key of an asserted average aggregation result:
// the average as an exact rational AvgNum/AvgDen plus the per-key
// element count certificate (Section 6.1 — the count "naturally arises
// during computation anyway").
type AvgAssertion struct {
	Key    uint64
	AvgNum uint64
	AvgDen uint64
	Count  uint64
}

// AvgAssertionsFromTriples adapts the output of ops.AverageByKey-style
// (key, sum, count) triples into assertions with average sum/count.
func AvgAssertionsFromTriples(ts []data.Triple) []AvgAssertion {
	out := make([]AvgAssertion, len(ts))
	for i, t := range ts {
		den := t.Count
		if den == 0 {
			den = 1
		}
		out[i] = AvgAssertion{Key: t.Key, AvgNum: t.Value, AvgDen: den, Count: t.Count}
	}
	return out
}

// CheckAvgAgg checks average aggregation (Corollary 8): the asserted
// averages are undone into sums by multiplying with the certified
// counts, and a two-lane sum/count check runs against the input — the
// (key, value, count) triple trick, which also catches matched
// avg/count rescalings. Both the assertions and the input may be
// distributed arbitrarily. One-sided error with probability at most
// cfg.AchievedDelta() per lane pair.
func CheckAvgAgg(w *dist.Worker, cfg SumConfig, input []data.Pair, asserted []AvgAssertion) (bool, error) {
	seed, err := w.CommonSeed()
	if err != nil {
		return false, err
	}
	return resolveOne(w, NewAvgAggState("AvgAgg", cfg, seed, Serial, input, asserted))
}
