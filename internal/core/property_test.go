package core

import (
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/hashing"
)

// Property: the condensed reduction is order-invariant — accumulating
// pairs in any order yields the same table (the homomorphism that makes
// the distributed reduction exact).
func TestSumTableOrderInvarianceQuick(t *testing.T) {
	f := func(keys []uint8, vals []uint16, seed uint16, shuffleSeed uint16) bool {
		n := min(len(keys), len(vals))
		pairs := make([]data.Pair, n)
		for i := 0; i < n; i++ {
			pairs[i] = data.Pair{Key: uint64(keys[i]), Value: uint64(vals[i])}
		}
		c := NewSumChecker(smallCfg, uint64(seed))
		t1 := runInto(c, c.NewTable(), pairs, sumFeed)
		shuffled := data.ClonePairs(pairs)
		rng := hashing.NewMT19937_64(uint64(shuffleSeed))
		for i := len(shuffled) - 1; i > 0; i-- {
			j := int(rng.Uint64n(uint64(i + 1)))
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		return tablesEq(t1, runInto(c, c.NewTable(), shuffled, sumFeed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a pre-aggregated input equals its own aggregation, so the
// checker table of the output always matches the input's (one-sided
// error in the purely local view, for every config and seed).
func TestSumTableAggregationFixpointQuick(t *testing.T) {
	f := func(keys []uint8, vals []uint16, seed uint32) bool {
		n := min(len(keys), len(vals))
		pairs := make([]data.Pair, n)
		for i := 0; i < n; i++ {
			pairs[i] = data.Pair{Key: uint64(keys[i]), Value: uint64(vals[i])}
		}
		agg := refSumAgg(pairs)
		c := NewSumChecker(smallCfg, uint64(seed))
		return tablesEq(runInto(c, c.NewTable(), pairs, sumFeed), runInto(c, c.NewTable(), agg, sumFeed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: permutation fingerprints are order-invariant and sensitive
// to single-element changes.
func TestPermFingerprintPropertiesQuick(t *testing.T) {
	cfg := PermConfig{Iterations: 1}
	f := func(xs []uint32, seed uint16, shuffleSeed uint16) bool {
		if len(xs) == 0 {
			return true
		}
		elems := make([]uint64, len(xs))
		for i, x := range xs {
			elems[i] = uint64(x)
		}
		c := newPermChecker(cfg, uint64(seed))
		s1 := localSums(c, elems)
		shuf := data.CloneU64s(elems)
		rng := hashing.NewMT19937_64(uint64(shuffleSeed))
		for i := len(shuf) - 1; i > 0; i-- {
			j := int(rng.Uint64n(uint64(i + 1)))
			shuf[i], shuf[j] = shuf[j], shuf[i]
		}
		s2 := localSums(c, shuf)
		if s1[0] != s2[0] {
			return false // permutation changed the fingerprint
		}
		// A changed element must change the fingerprint except with
		// probability about n/2^61; treat a collision as failure.
		shuf[0] ^= 1
		s3 := localSums(c, shuf)
		return s1[0] != s3[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the replication digest is order- and content-sensitive but
// deterministic.
func TestDigestPropertiesQuick(t *testing.T) {
	f := func(words []uint64, seed uint64) bool {
		d1 := DigestU64s(words, seed)
		d2 := DigestU64s(words, seed)
		if d1 != d2 {
			return false
		}
		if len(words) >= 2 && words[0] != words[1] {
			swapped := data.CloneU64s(words)
			swapped[0], swapped[1] = swapped[1], swapped[0]
			if DigestU64s(swapped, seed) == d1 {
				return false // order insensitivity would be a bug
			}
		}
		if len(words) >= 1 {
			changed := data.CloneU64s(words)
			changed[0] ^= 1
			if DigestU64s(changed, seed) == d1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ComputeTieCert certificates always satisfy the relations
// the median checker verifies, for arbitrary sorted value slices.
func TestTieCertInvariantsQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vs := make([]uint64, len(raw))
		for i, r := range raw {
			vs[i] = uint64(r % 8) // heavy ties
		}
		data.SortU64(vs)
		m2 := medianOfSorted2(vs)
		cert := ComputeTieCert(vs, m2)
		if cert.AtSlot > 2 {
			return false
		}
		var smaller, larger, equal int64
		for _, v := range vs {
			switch {
			case 2*v < m2:
				smaller++
			case 2*v > m2:
				larger++
			default:
				equal++
			}
		}
		if smaller+int64(cert.EqLow) != larger+int64(cert.EqHigh) {
			return false
		}
		return equal == int64(cert.EqLow+cert.EqHigh+cert.AtSlot)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// medianOfSorted2 mirrors ops.MedianOfSorted2 without importing ops
// (core must stay independent of the operations layer).
func medianOfSorted2(vs []uint64) uint64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return 2 * vs[n/2]
	}
	return vs[n/2-1] + vs[n/2]
}
