package ops

import (
	"cmp"
	"slices"

	"repro/internal/data"
	"repro/internal/dist"
)

// MinMaxResult is the output of minimum/maximum aggregation. Per
// Section 6.2 the checker needs the asserted output and a certificate —
// which PE holds an optimum element for each key — available at all
// PEs, so both fields are replicated everywhere.
type MinMaxResult struct {
	// Result holds one (key, optimum) pair per key, sorted by key.
	Result []data.Pair
	// Witness maps each key to the rank of a PE whose local input
	// contains an element equal to the optimum.
	Witness map[uint64]int
}

// MinByKey computes the per-key minimum; see MinMaxResult for the
// replication contract.
func MinByKey(w *dist.Worker, pt Partitioner, local []data.Pair) (MinMaxResult, error) {
	return optByKey(w, pt, local, true)
}

// MaxByKey computes the per-key maximum.
func MaxByKey(w *dist.Worker, pt Partitioner, local []data.Pair) (MinMaxResult, error) {
	return optByKey(w, pt, local, false)
}

func optByKey(w *dist.Worker, pt Partitioner, local []data.Pair, wantMin bool) (MinMaxResult, error) {
	better := func(a, b uint64) bool {
		if wantMin {
			return a < b
		}
		return a > b
	}
	// Local optimum per key: a combine under min or max.
	tbl := getKernel()
	defer tbl.release()
	if err := tbl.reset(len(local)); err != nil {
		return MinMaxResult{}, err
	}
	tbl.fold(local, func(a, b uint64) uint64 {
		if better(b, a) {
			return b
		}
		return a
	})
	// Route (key, localOpt, myRank) candidates to the partition PE.
	p := w.Size()
	parts := make([][]uint64, p)
	for _, pr := range tbl.pairs {
		dst := pt.PE(pr.Key)
		parts[dst] = append(parts[dst], pr.Key, pr.Value, uint64(w.Rank()))
	}
	got, err := w.Coll.AllToAll(parts)
	if err != nil {
		return MinMaxResult{}, err
	}
	type cand struct {
		val  uint64
		rank int
	}
	best := make(map[uint64]cand)
	for _, ws := range got {
		for i := 0; i+3 <= len(ws); i += 3 {
			k, v, r := ws[i], ws[i+1], int(ws[i+2])
			if c, ok := best[k]; !ok || better(v, c.val) {
				best[k] = cand{val: v, rank: r}
			}
		}
	}
	// Replicate result and certificate at every PE (the checker needs
	// them in full everywhere).
	flat := make([]uint64, 0, 3*len(best))
	for k, c := range best {
		flat = append(flat, k, c.val, uint64(c.rank))
	}
	all, err := w.Coll.AllGather(flat)
	if err != nil {
		return MinMaxResult{}, err
	}
	res := MinMaxResult{Witness: make(map[uint64]int)}
	for _, ws := range all {
		for i := 0; i+3 <= len(ws); i += 3 {
			res.Result = append(res.Result, data.Pair{Key: ws[i], Value: ws[i+1]})
			res.Witness[ws[i]] = int(ws[i+2])
		}
	}
	data.SortPairsByKey(res.Result)
	return res, nil
}

// MedianOfSorted2 returns twice the median of a sorted value slice —
// doubled so that the even-count "mean of the two middle elements" case
// stays integral. Per-key medians come from GroupByKey (the paper's
// Section 2 "GroupBy" enables "more powerful operators such as computing
// median") followed by this on every group's values.
func MedianOfSorted2(vs []uint64) uint64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return 2 * vs[n/2]
	}
	return vs[n/2-1] + vs[n/2]
}

// AverageByKey computes per-key averages with the (key, value, count)
// triple trick of Section 6.1: a scalar reduction over (sum, count)
// lanes. The result stays distributed (hash partitioned); the Count
// field is exactly the certificate the average checker requires, and it
// "naturally arises during computation anyway".
func AverageByKey(w *dist.Worker, pt Partitioner, local []data.Pair) ([]data.Triple, error) {
	// Local combine.
	type sc struct{ sum, count uint64 }
	m := make(map[uint64]sc, len(local))
	for _, pr := range local {
		c := m[pr.Key]
		c.sum += pr.Value
		c.count++
		m[pr.Key] = c
	}
	p := w.Size()
	parts := make([][]uint64, p)
	for k, c := range m {
		dst := pt.PE(k)
		parts[dst] = append(parts[dst], k, c.sum, c.count)
	}
	got, err := w.Coll.AllToAll(parts)
	if err != nil {
		return nil, err
	}
	final := make(map[uint64]sc)
	for _, ws := range got {
		for i := 0; i+3 <= len(ws); i += 3 {
			c := final[ws[i]]
			c.sum += ws[i+1]
			c.count += ws[i+2]
			final[ws[i]] = c
		}
	}
	out := make([]data.Triple, 0, len(final))
	for k, c := range final {
		out = append(out, data.Triple{Key: k, Value: c.sum, Count: c.count})
	}
	slices.SortFunc(out, func(a, b data.Triple) int { return cmp.Compare(a.Key, b.Key) })
	return out, nil
}
