package core

import (
	"repro/internal/data"
	"repro/internal/hashing"
)

// DigestU64s computes a position-sensitive keyed digest of a word
// sequence: sum of Mix64(seed, position, word) terms. Position
// sensitivity matters — replicas must agree on order, not just content.
// A state carries it twice as its replica segment (Section 2, "Result
// Integrity"): all PEs hold the same copy iff the reduced minimum equals
// the reduced maximum, two words of the batched reduction instead of a
// broadcast-and-compare.
func DigestU64s(words []uint64, seed uint64) uint64 {
	key := hashing.Mix64(seed ^ 0x1d1d1d1d1d1d1d1d)
	var acc uint64
	for i, wd := range words {
		acc += hashing.Mix64(wd ^ key ^ hashing.Mix64(uint64(i)+key))
	}
	return acc
}

// NewMinAggState accumulates the deterministic minimum aggregation
// checker's local phase (Theorem 9); rank and size identify this PE.
// Any error is noticed with certainty. As the paper requires, the
// asserted result and the witness certificate (which PE holds a minimum
// element for each key) are replicated in full at every PE; the state
// is one replica segment over both, and its local predicate is the
// scan of optAggLocalOK. No communication.
func NewMinAggState(stage string, seed uint64, rank, size int, input, result []data.Pair, witness map[uint64]int) CheckState {
	return newOptAggState(stage, seed, rank, size, input, result, witness, true)
}

// NewMaxAggState is NewMinAggState for maximum aggregation.
func NewMaxAggState(stage string, seed uint64, rank, size int, input, result []data.Pair, witness map[uint64]int) CheckState {
	return newOptAggState(stage, seed, rank, size, input, result, witness, false)
}

func newOptAggState(stage string, seed uint64, rank, size int, input, result []data.Pair, witness map[uint64]int, wantMin bool) CheckState {
	// Replication digest over result + certificate in key order, so the
	// digest ignores the caller's slice ordering.
	sorted := data.ClonePairs(result)
	data.SortPairsByKey(sorted)
	flat := make([]uint64, 0, 3*len(sorted))
	for _, pr := range sorted {
		flat = append(flat, pr.Key, pr.Value, uint64(witness[pr.Key]))
	}
	d := DigestU64s(flat, seed)
	return newState(stage, []uint64{d, d}, optAggLocalOK(rank, size, input, result, witness, wantMin), nil, replicaSeg)
}

// optAggLocalOK is the deterministic local scan of Theorem 9:
//
//	(a) no local element beats the asserted optimum of its key, and
//	    every local key appears in the result (nothing was dropped);
//	(b) every asserted optimum whose witness certificate points at this
//	    PE is present locally (nothing was invented or inflated);
//	(c) the certificate covers exactly the result's key set, and the
//	    result asserts every key once.
func optAggLocalOK(rank, size int, input, result []data.Pair, witness map[uint64]int, wantMin bool) bool {
	beats := func(a, b uint64) bool {
		if wantMin {
			return a < b
		}
		return a > b
	}
	ok := true
	asserted := make(map[uint64]uint64, len(result))
	for _, pr := range result {
		if _, dup := asserted[pr.Key]; dup {
			ok = false
		}
		asserted[pr.Key] = pr.Value
	}

	// (c) certificate covers exactly the result keys.
	if len(witness) != len(asserted) {
		ok = false
	}
	for k := range witness {
		if _, exists := asserted[k]; !exists {
			ok = false
		}
	}
	for _, r := range witness {
		if r < 0 || r >= size {
			ok = false
		}
	}

	// (a) local scan: no element beats the optimum, no missing keys.
	for _, pr := range input {
		m, exists := asserted[pr.Key]
		if !exists || beats(pr.Value, m) {
			ok = false
			break
		}
	}

	// (b) witnesses assigned to this PE must be present locally.
	mine := make(map[data.Pair]bool)
	for k, r := range witness {
		if r == rank {
			if m, exists := asserted[k]; exists {
				mine[data.Pair{Key: k, Value: m}] = true
			}
		}
	}
	if len(mine) > 0 {
		for _, pr := range input {
			delete(mine, pr)
			if len(mine) == 0 {
				break
			}
		}
		if len(mine) > 0 {
			ok = false
		}
	}
	return ok
}
