package ops

import (
	"cmp"
	"slices"

	"repro/internal/data"
	"repro/internal/dist"
)

// ReduceFn combines two values of the same key. It must be associative
// and commutative (Section 4).
type ReduceFn func(a, b uint64) uint64

// SumFn adds with wraparound in Z/2^64Z.
func SumFn(a, b uint64) uint64 { return a + b }

// ReduceByKey aggregates all (key, value) pairs with the same key using
// fn, as in Section 2 "Reduction": local hash-table combine, hash
// partition all-to-all, final local combine. The result is hash
// partitioned over the PEs; each PE returns its share sorted by key.
//
// The received payloads are folded into the table as they are, and the
// distinct keys are radix sorted into the returned slice — the one
// allocation of a warmed call.
func ReduceByKey(w *dist.Worker, pt Partitioner, local []data.Pair, fn ReduceFn) ([]data.Pair, error) {
	k := getKernel()
	defer k.release()
	if err := k.reset(len(local)); err != nil {
		return nil, err
	}
	k.fold(local, fn)
	got, n, err := k.exchange(w, pt, k.pairs)
	if err != nil {
		return nil, err
	}
	if err := k.reset(n); err != nil {
		return nil, err
	}
	for _, b := range got {
		k.foldPayload(b, fn)
	}
	putPayloads(got)
	out := make([]data.Pair, len(k.pairs))
	k.tmp = grow(k.tmp, len(out))
	data.RadixSortPairsByKey(out, k.pairs, k.tmp)
	return out, nil
}

// Group is one key with all of its values collected.
type Group struct {
	Key    uint64
	Values []uint64
}

// GroupByKey routes all pairs of a key to one PE (Section 2 "GroupBy")
// and returns this PE's groups: the exchange, then GroupPairs.
func GroupByKey(w *dist.Worker, pt Partitioner, local []data.Pair) ([]Group, error) {
	received, err := exchangePairsByKey(w, pt, local)
	if err != nil {
		return nil, err
	}
	return GroupPairs(received), nil
}

// GroupPairs is the local step of GroupBy: the groups of the pairs a PE
// holds after the exchange, sorted by key. Values within a group are
// sorted, which fixes a deterministic processing order for the group
// function.
func GroupPairs(received []data.Pair) []Group {
	m := make(map[uint64][]uint64)
	for _, p := range received {
		m[p.Key] = append(m[p.Key], p.Value)
	}
	out := make([]Group, 0, len(m))
	for k, vs := range m {
		data.SortU64(vs)
		out = append(out, Group{Key: k, Values: vs})
	}
	slices.SortFunc(out, func(a, b Group) int { return cmp.Compare(a.Key, b.Key) })
	return out
}
