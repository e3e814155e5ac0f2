package ops

import (
	"cmp"
	"slices"

	"repro/internal/data"
	"repro/internal/dist"
)

// JoinRow is one match of an inner join: a key present in both inputs
// with one value from each side.
type JoinRow struct {
	Key   uint64
	Left  uint64
	Right uint64
}

// JoinPairs is the local step of the inner hash join (Section 6.5.4):
// once both relations are hash partitioned by key with the same
// partitioner (RedistributeByKey), every match is local. It returns this
// PE's share of the result sorted by (key, left, right), so identical
// runs produce identical output.
func JoinPairs(left, right []data.Pair) []JoinRow {
	build := make(map[uint64][]uint64, len(left))
	for _, p := range left {
		build[p.Key] = append(build[p.Key], p.Value)
	}
	var out []JoinRow
	for _, p := range right {
		for _, lv := range build[p.Key] {
			out = append(out, JoinRow{Key: p.Key, Left: lv, Right: p.Value})
		}
	}
	slices.SortFunc(out, func(a, b JoinRow) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Left, b.Left), cmp.Compare(a.Right, b.Right))
	})
	return out
}

// RedistInputs captures the redistribution phase of a key-partitioned
// operation (GroupBy, Join) for the invasive checkers of Section 6.5:
// the pairs a PE held before the exchange and the pairs it holds after.
type RedistInputs struct {
	Before []data.Pair
	After  []data.Pair
}

// RedistributeByKey performs only the redistribution phase of
// GroupBy/Join and reports before/after, so invasive checkers can verify
// the data movement while the caller applies the local step (GroupPairs,
// JoinPairs) afterwards.
func RedistributeByKey(w *dist.Worker, pt Partitioner, local []data.Pair) (RedistInputs, error) {
	after, err := exchangePairsByKey(w, pt, local)
	if err != nil {
		return RedistInputs{}, err
	}
	return RedistInputs{Before: local, After: after}, nil
}
