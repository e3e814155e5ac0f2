package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/workload"
)

// zipOracle is the sum over i of term_i·z^(start+i) mod r, written from
// the construction alone: element e's term is a + y·q, a = e mod 2^61
// and q = e >> 61, or a = 0 and q + 8 for a = 2^61 - 1; position
// start+i's weight is z^(start+i), a running power from a
// square-and-multiply of its own.
func zipOracle(z, y uint64, xs []uint64, start uint64) uint64 {
	const r = hashing.Mersenne61
	pw := uint64(1)
	for b, sq := start, z; b != 0; b >>= 1 {
		if b&1 != 0 {
			pw = hashing.MulMod61(pw, sq)
		}
		sq = hashing.MulMod61(sq, sq)
	}
	var acc uint64
	for _, e := range xs {
		a, q := e&r, e>>61
		if a == r {
			a, q = 0, q+8
		}
		term := hashing.AddMod61(a, hashing.MulMod61(y, q))
		acc = hashing.AddMod61(acc, hashing.MulMod61(term, pw))
		pw = hashing.MulMod61(pw, z)
	}
	return acc
}

// zipFirstPoint returns the point (z, y, w) of a checker's first
// iteration under seed, drawn as the checker draws it.
func zipFirstPoint(seed uint64) (z, y, w uint64) {
	s := seed ^ zipSeedDomain
	return drawField(&s), drawField(&s), drawField(&s)
}

// FuzzZipFingerprint: bytes → a zip checker's point (seed), a sequence
// of 64-bit elements of any length, so that every lane tail 0–3 comes
// up, a start below 2^61 and a split k. The lane kernel must equal the
// direct sum zipOracle at that start; the fingerprints of xs[:k] at
// start and of xs[k:] at start+k must add up to that of xs, which is
// what lets shares on different PEs sum; the pair kernel must equal the
// oracle on both components; and NewZipState's word must be the
// oracle's (F(s1) - F(keys)) + w·(F(s2) - F(values)).
func FuzzZipFingerprint(f *testing.F) {
	const r = hashing.Mersenne61
	edges := []uint64{0, 1, r - 1, r, r + 1, ^uint64(0)}
	for q := uint64(0); q < 8; q++ {
		edges = append(edges, q<<61, (q+1)<<61-1)
	}
	raw := make([]byte, 8*len(edges))
	for i, e := range edges {
		binary.LittleEndian.PutUint64(raw[8*i:], e)
	}
	f.Add(uint64(0x5eed), raw, uint64(0), uint16(7))
	f.Add(uint64(1), raw, uint64(1<<28), uint16(0))
	f.Add(uint64(42), raw[:8*9], r-1, uint16(5))
	f.Add(uint64(7), []byte{}, uint64(3), uint16(0))
	f.Add(uint64(9), []byte("eight byteseight bytes"), uint64(1<<61-1), uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte, start uint64, cut uint16) {
		start &= 1<<61 - 1
		xs := make([]uint64, 0, len(raw)/8)
		for ; len(raw) >= 8; raw = raw[8:] {
			xs = append(xs, binary.LittleEndian.Uint64(raw))
		}
		z, y, w := zipFirstPoint(seed)
		var pt zipPoint
		s := seed ^ zipSeedDomain
		pt.draw(&s)

		want := zipOracle(z, y, xs, start)
		if got := pt.poly(xs, start); got != want {
			t.Fatalf("%d elements at %d: kernel %#x, oracle %#x", len(xs), start, got, want)
		}
		k := int(cut) % (len(xs) + 1)
		if sum := hashing.AddMod61(pt.poly(xs[:k], start), pt.poly(xs[k:], start+uint64(k))); sum != want {
			t.Fatalf("%d elements at %d split at %d: shares sum to %#x, whole %#x", len(xs), start, k, sum, want)
		}

		rev := slices.Clone(xs)
		slices.Reverse(rev)
		out := zipPairsOf(rev, xs)
		keys, vals := pt.pairPoly(out, start)
		if wk, wv := zipOracle(z, y, rev, start), want; keys != wk || vals != wv {
			t.Fatalf("%d pairs at %d: pair kernel (%#x, %#x), oracle (%#x, %#x)", len(out), start, keys, vals, wk, wv)
		}
		word := NewZipState("fuzz", ZipConfig{Iterations: 1}, seed, xs, rev, out, start, start, start, true).Words()[0]
		d1 := hashing.SubMod61(want, keys)
		d2 := hashing.SubMod61(zipOracle(z, y, rev, start), vals)
		if oracle := hashing.AddMod61(d1, hashing.MulMod61(w, d2)); word != oracle {
			t.Fatalf("%d positions at %d: sealed %#x, oracle %#x", len(xs), start, word, oracle)
		}
	})
}

// weakZip reports whether the zip checker at point (z, y, w) of
// F_weakR accepts out as the zip of s1 and s2: the construction of
// NewZipState with 13 in place of 61 — a = e & r, q = e >> 13, and a =
// r sent to (0, q+8); F(x) the sum over i of (a_i + y·q_i)·z^i — and
// its accept test, (F(s1) - F(keys)) + w·(F(s2) - F(values)) = 0.
func weakZip(z, y, w uint64, s1, s2 []uint64, out []data.Pair) bool {
	fp := func(n int, at func(int) uint64) uint64 {
		var acc uint64
		pw := uint64(1)
		for i := range n {
			e := at(i)
			a, q := e&weakR, e>>13
			if a == weakR {
				a, q = 0, q+8
			}
			acc = (acc + (a+y*q%weakR)%weakR*pw) % weakR
			pw = pw * z % weakR
		}
		return acc
	}
	d1 := fp(len(s1), func(i int) uint64 { return s1[i] }) + weakR - fp(len(out), func(i int) uint64 { return out[i].Key })
	d2 := fp(len(s2), func(i int) uint64 { return s2[i] }) + weakR - fp(len(out), func(i int) uint64 { return out[i].Value })
	return (d1+w*(d2%weakR))%weakR == 0
}

// TestZipCheckerEscapeRateWithinDelta holds the zip construction, at
// the weak field of the permutation gate (r = 2^13 - 1, elements below
// 2^16) through the test-only weakZip, to its bound (n+1)/r for every
// fixed wrong output: an adjacent swap of two output pairs, one pair's
// key and value crossed, the output rotated by one, and each Table 6
// sequence manipulator applied to the keys or to the values alone.
// Escapes are judged by an exact binomial test against the bound.
func TestZipCheckerEscapeRateWithinDelta(t *testing.T) {
	const (
		n      = 512
		trials = 200
	)
	s1 := workload.UniformU64s(n, weakUniverse, 0x21b1)
	s2 := workload.UniformU64s(n, weakUniverse, 0x21b2)
	bound := float64(n+1) / weakR
	type fault struct {
		name  string
		apply func(out []data.Pair, rng *hashing.MT19937_64) bool
	}
	faults := []fault{
		{"AdjacentSwap", func(out []data.Pair, rng *hashing.MT19937_64) bool {
			i := int(rng.Uint64n(n - 1))
			out[i], out[i+1] = out[i+1], out[i]
			return true
		}},
		{"KeyValueCrossed", func(out []data.Pair, rng *hashing.MT19937_64) bool {
			i := int(rng.Uint64n(n))
			out[i].Key, out[i].Value = out[i].Value, out[i].Key
			return true
		}},
		{"RotateByOne", func(out []data.Pair, _ *hashing.MT19937_64) bool {
			first := out[0]
			copy(out, out[1:])
			out[n-1] = first
			return true
		}},
	}
	for _, m := range manipulate.SeqManipulators() {
		for _, side := range []string{"keys", "values"} {
			faults = append(faults, fault{side + "/" + m.Name, func(out []data.Pair, rng *hashing.MT19937_64) bool {
				comp := make([]uint64, n)
				for i, pr := range out {
					comp[i] = pr.Key
					if side == "values" {
						comp[i] = pr.Value
					}
				}
				if !m.Apply(comp, rng, weakUniverse) {
					return false
				}
				for i, e := range comp {
					e %= weakUniverse // the weak encoding's universe
					if side == "keys" {
						out[i].Key = e
					} else {
						out[i].Value = e
					}
				}
				return true
			}})
		}
	}
	clean := zipPairsOf(s1, s2)
	out := make([]data.Pair, n)
	for fi, fl := range faults {
		escapes, ran := 0, 0
		for trial := 0; ran < trials && trial < 20*trials; trial++ {
			seed := hashing.Mix64(uint64(trial)*0x9e3779b97f4a7c15 ^ uint64(fi)<<32 ^ 0x21b0)
			copy(out, clean)
			if !fl.apply(out, hashing.NewMT19937_64(seed)) || slices.Equal(out, clean) {
				continue
			}
			ran++
			rng := hashing.NewMT19937_64(seed ^ 0x9e37)
			z, y, w := rng.Uint64n(weakR), rng.Uint64n(weakR), rng.Uint64n(weakR)
			if !weakZip(z, y, w, s1, s2, clean) {
				t.Fatalf("weak zip, %s seed %#x: correct zip rejected", fl.name, seed)
			}
			if weakZip(z, y, w, s1, s2, out) {
				escapes++
			}
		}
		if ran < trials {
			t.Fatalf("weak zip %s: only %d faults injected", fl.name, ran)
		}
		t.Logf("weak zip %s: %d of %d escaped, (n+1)/r %.4f", fl.name, escapes, ran, bound)
		if pval := binomTailGE(ran, escapes, bound); pval < 0.001 {
			t.Errorf("weak zip %s: %d of %d faults escaped (%.3f), not consistent with (n+1)/r = %.4f (p = %.2g)",
				fl.name, escapes, ran, float64(escapes)/float64(ran), bound, pval)
		}
	}
}

// BenchmarkZipAccumulateEngine times the zip checker's local phase,
// NewZipState on one PE whose three shares — both inputs and the
// zipped output — are n positions each, in ns per position: a
// service-sized 2 000 positions at start 0 and at start 2^28 - 2 000,
// whose power z^start is 28 squarings, and a 125 000-position share.
func BenchmarkZipAccumulateEngine(b *testing.B) {
	cfg := ZipConfig{Iterations: 1}
	for _, row := range []struct {
		n     int
		start uint64
	}{{2000, 0}, {2000, 1<<28 - 2000}, {125000, 0}} {
		s1 := workload.UniformU64s(row.n, 1e8, 1)
		s2 := workload.UniformU64s(row.n, 1e8, 2)
		out := zipPairsOf(s1, s2)
		name := fmt.Sprintf("%dk", row.n/1000)
		if row.start != 0 {
			name += "-at-2^28"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += NewZipState("bench", cfg, uint64(i), s1, s2, out, row.start, row.start, row.start, true).Words()[0]
			}
			sinkBench = sink
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(row.n), "ns/position")
		})
	}
}
