package core

import (
	"sort"

	"repro/internal/data"
)

// TieCert is the tie-breaking certificate of Theorem 10 for one key:
// among the input elements whose value equals the asserted median,
// EqLow are ranked below the median slot(s), EqHigh above them, and
// AtSlot occupy the slot(s) themselves. AtSlot is 1 for odd element
// counts, 0 or 2 for even ones — the checker rejects anything larger,
// which bounds how much imbalance a forged certificate can absorb.
type TieCert struct {
	EqLow  uint64
	EqHigh uint64
	AtSlot uint64
}

// ComputeTieCert derives the reference certificate for one key from its
// sorted values and the asserted doubled median. Median algorithms use
// it to emit certificates alongside their result.
func ComputeTieCert(sortedValues []uint64, median2 uint64) TieCert {
	n := len(sortedValues)
	// Median slot ranks (0-based): odd n -> {n/2}; even -> {n/2-1, n/2}.
	loSlot, hiSlot := n/2, n/2
	if n%2 == 0 && n > 0 {
		loSlot = n/2 - 1
	}
	var cert TieCert
	for i, v := range sortedValues {
		if 2*v != median2 {
			continue
		}
		switch {
		case i < loSlot:
			cert.EqLow++
		case i > hiSlot:
			cert.EqHigh++
		default:
			cert.AtSlot++
		}
	}
	return cert
}

// NewMedianAggState accumulates the median checker's local phase
// (Theorem 10, Algorithm 2). medians2 must hold, for every key, twice
// the asserted median — the doubling keeps the even-count "mean of the
// two middle elements" case integral — replicated identically at every
// PE, which the state's replica digest verifies. rank identifies this
// PE. No communication.
//
// The reduction: an asserted median is correct iff the number of
// smaller elements equals the number of larger elements. Each local
// element contributes -1 (smaller) or +1 (larger), equal elements
// contribute nothing, and one table segment verifies the per-key sums
// are zero (the asserted side is the all-zero vector, so it costs
// nothing to accumulate). This needs the paper's uniqueness assumption:
// within each key, values occur at most once, except the asserted
// median value itself.
//
// For duplicated values pass the tie-breaking certificates ties (nil:
// the unique-values variant), replicated like the medians. The balance
// condition becomes
//
//	#smaller + EqLow == #larger + EqHigh,
//
// and a second table segment verifies the certificate itself:
//
//	#equal == EqLow + EqHigh + AtSlot,
//
// with the local deterministic check AtSlot <= 2. Local deterministic
// rejects also cover input keys missing from the asserted result and a
// result that asserts a key twice.
func NewMedianAggState(stage string, cfg SumConfig, seed uint64, rank int, input, medians2 []data.Pair, ties map[uint64]TieCert) CheckState {
	c := NewSumChecker(cfg, seed)

	localOK := true
	m2 := make(map[uint64]uint64, len(medians2))
	for _, pr := range medians2 {
		if _, dup := m2[pr.Key]; dup {
			localOK = false
		}
		m2[pr.Key] = pr.Value
	}

	// Partition the input by its side of its key's median: larger elements
	// from the front of side, smaller ones from its back, and equal ones,
	// which only the certificate's lane reads, into equal.
	side := make([]data.Pair, len(input))
	larger, smaller := 0, len(side)
	var equal []data.Pair
	for _, pr := range input {
		m, exists := m2[pr.Key]
		if !exists {
			// Key dropped from the result: deterministic reject.
			localOK = false
			break
		}
		switch v2 := 2 * pr.Value; {
		case v2 > m:
			side[larger] = pr
			larger++
		case v2 < m:
			smaller--
			side[smaller] = pr
		case ties != nil:
			equal = append(equal, pr)
		}
	}

	// Balance lane, shifted by the certificate where present:
	// #larger - #smaller + EqHigh - EqLow must be zero for every key.
	tv := c.NewTable()
	c.accumulate(tv, side[:larger], countFeed)
	c.accumulate(tv, side[smaller:], countOutFeed)
	segs := []segment{tableSeg(c)}
	var te []uint64
	if ties != nil {
		// The certificate is replicated at every PE but must enter the
		// global sum exactly once: only PE 0 folds it in. The AtSlot
		// bound is a local deterministic check everywhere.
		for _, tc := range ties {
			if tc.AtSlot > 2 {
				localOK = false
			}
		}
		// Equality lane: #equal - (EqLow+EqHigh+AtSlot) must be zero.
		te = c.NewTable()
		c.accumulate(te, equal, countFeed)
		if rank == 0 {
			// Each key's EqHigh, EqLow and AtSlot, in thirds of cert.
			n := len(ties)
			cert := make([]data.Pair, 3*n)
			i := 0
			for k, tc := range ties {
				cert[i] = data.Pair{Key: k, Value: tc.EqHigh}
				cert[n+i] = data.Pair{Key: k, Value: tc.EqLow}
				cert[2*n+i] = data.Pair{Key: k, Value: tc.AtSlot}
				i++
			}
			c.accumulate(tv, cert[:n], sumFeed)
			c.accumulate(tv, cert[n:2*n], outFeed)
			c.accumulate(te, cert, outFeed)
		}
		c.Normalize(te)
		segs = append(segs, tableSeg(c))
	}
	c.Normalize(tv)

	d := DigestU64s(flattenMedianAssertion(medians2, ties), seed)
	return newState(stage, append(append(tv, te...), d, d), localOK, c, append(segs, replicaSeg)...)
}

// flattenMedianAssertion encodes medians and tie certificates in key
// order for the replication digest.
func flattenMedianAssertion(medians2 []data.Pair, ties map[uint64]TieCert) []uint64 {
	ms := data.ClonePairs(medians2)
	data.SortPairsByKey(ms)
	flat := make([]uint64, 0, 2*len(ms)+4*len(ties))
	for _, pr := range ms {
		flat = append(flat, pr.Key, pr.Value)
	}
	if len(ties) > 0 {
		keys := make([]uint64, 0, len(ties))
		for k := range ties {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			tc := ties[k]
			flat = append(flat, k, tc.EqLow, tc.EqHigh, tc.AtSlot)
		}
	}
	return flat
}
