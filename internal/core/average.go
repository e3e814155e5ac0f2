package core

import "repro/internal/data"

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

// NewAvgAggState accumulates the average checker's local phase
// (Corollary 8): the asserted averages are undone into sums by
// multiplying with the certified counts, and two table segments — the
// sum lane (reconstructed sums vs input values) and the count lane
// (certified counts vs input multiplicities) — check them against the
// input: the (key, value, count) triple trick, which also catches
// matched avg/count rescalings. Both lanes are sharded across par.
// Assertions and input may be distributed arbitrarily. No
// communication.
func NewAvgAggState(stage string, cfg SumConfig, seed uint64, par ParallelAccumulator, input []data.Pair, asserted []AvgAssertion) CheckState {
	c := NewSumChecker(cfg, seed)
	// Certificate sanity is deterministic: a correct result asserts only
	// keys that occur in the input, so every count is positive, and an
	// average in lowest terms divides its count. A row that breaks
	// either cannot belong to a correct result — a zero-count row would
	// add nothing to either lane — so rejecting keeps one-sided error
	// intact.
	localOK := true
	sums := make([]data.Pair, 0, len(asserted))
	counts := make([]data.Pair, 0, len(asserted))
	for _, a := range asserted {
		if a.Count == 0 || a.AvgDen == 0 || a.Count%a.AvgDen != 0 {
			localOK = false
			continue
		}
		reconstructed := a.AvgNum * (a.Count / a.AvgDen) // mod 2^64, consistent with input sums
		sums = append(sums, data.Pair{Key: a.Key, Value: reconstructed})
		counts = append(counts, data.Pair{Key: a.Key, Value: a.Count})
	}

	tvSum, toSum := c.NewTable(), c.NewTable()
	par.AccumulateSum(c, tvSum, input)
	par.AccumulateSum(c, toSum, sums)
	tvCnt, toCnt := c.NewTable(), c.NewTable()
	par.AccumulateCount(c, tvCnt, input)
	par.AccumulateSum(c, toCnt, counts)
	words := append(c.diff(tvSum, toSum), c.diff(tvCnt, toCnt)...)
	return newState(stage, words, localOK, c, tableSeg(c), tableSeg(c))
}
