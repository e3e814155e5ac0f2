package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/hashing"
	"repro/internal/workload"
)

// unpackLanes is packLanes' inverse: lane i of src into dst[i].
func unpackLanes(dst, src []uint64, width uint) {
	for i := range dst {
		dst[i] = lane(src, i, width)
	}
}

// packed returns xs packed at width into a fresh slice.
func packed(xs []uint64, width uint) []uint64 {
	out := make([]uint64, (len(xs)*int(width)+63)/64)
	if n := packLanes(out, xs, width); n != len(out) {
		panic(fmt.Sprintf("packLanes wrote %d words, want %d", n, len(out)))
	}
	return out
}

// FuzzPackedLanes: a lane width 2…64, a lane count 1…2 100 and a seed
// for the lanes. Without table set (or at width 64, which no table
// has) the lanes are hash sums, any 64-bit values, which add mod
// 2^width; with it they are a table of its iterations, each lane a
// residue below its iteration's r in (2^(width-1), 2^width], which add
// as addMod adds them unpacked. Packing round-trips, in place too; the
// packed combine is the unpacked one, so no lane's carry reaches a
// neighbour; and packed words are all zero exactly when every lane is.
func FuzzPackedLanes(f *testing.F) {
	f.Add(uint8(8), uint16(191), uint8(5), uint64(1), true)   // 6×32 m9: 192 10-bit lanes
	f.Add(uint8(14), uint16(2047), uint8(7), uint64(2), true) // 8×256 m15: 2 048 16-bit lanes
	f.Add(uint8(30), uint16(1), uint8(0), uint64(3), false)   // one Tab 32 hash sum
	f.Add(uint8(62), uint16(99), uint8(0), uint64(7), false)  // 100 Tab64 hash sums
	f.Add(uint8(1), uint16(6), uint8(2), uint64(4), true)
	f.Add(uint8(5), uint16(2099), uint8(1), uint64(5), false)
	f.Add(uint8(61), uint16(12), uint8(3), uint64(6), true) // width 63
	f.Fuzz(func(t *testing.T, w uint8, n uint16, its uint8, seed uint64, table bool) {
		width := 2 + uint(w)%63
		lanes := 1 + int(n)%2100
		mask := uint64(1)<<width - 1
		table = table && width < 64
		var mods []uint64
		if table {
			k := 1 + int(its)%8
			lanes = k * max(1, lanes/k)
			mods = make([]uint64, k)
			half := uint64(1) << (width - 1)
			for i := range mods {
				mods[i] = half + 1 + hashing.SplitMix64(&seed)&(half-1)
			}
		}
		// draw returns lanes of the fuzzed kind; extreme ones are the
		// largest each lane can hold, so every lane of a sum carries.
		draw := func(extreme bool) []uint64 {
			xs := make([]uint64, lanes)
			d := lanes / max(1, len(mods))
			for i := range xs {
				v := hashing.SplitMix64(&seed)
				switch {
				case table && extreme:
					v = mods[i/d] - 1
				case table:
					v %= mods[i/d]
				case extreme:
					v = mask
				}
				xs[i] = v
			}
			return xs
		}
		what := fmt.Sprintf("width %d lanes %d table %v", width, lanes, table)
		for _, extreme := range []bool{false, true} {
			a, b := draw(extreme), draw(extreme)
			pa, pb := packed(a, width), packed(b, width)

			got := make([]uint64, lanes)
			unpackLanes(got, pa, width)
			for i, v := range a {
				if got[i] != v&mask {
					t.Fatalf("%s: lane %d unpacks to %#x, packed %#x", what, i, got[i], v&mask)
				}
			}
			// In place, the packed words written from where the lanes start
			// and from up to two words before them.
			for gap := 0; gap <= 2; gap++ {
				buf := make([]uint64, gap+lanes)
				copy(buf[gap:], a)
				if k := packLanes(buf, buf[gap:], width); !slices.Equal(buf[:k], pa) {
					t.Fatalf("%s: packing in place %d words ahead gives %#x, want %#x", what, gap, buf[:k], pa)
				}
			}

			addLanes(pa, pb, lanes, width, mods)
			want := slices.Clone(a)
			if table {
				addMod(want, b, mods)
			} else {
				for i := range want {
					want[i] = (want[i] + b[i]) & mask
				}
			}
			unpackLanes(got, pa, width)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s extreme %v: packed combine gives lane %d = %#x, want %#x", what, extreme, i, got[i], want[i])
				}
			}
			if tail := uint(lanes) * width % 64; tail != 0 && pa[len(pa)-1]>>tail != 0 {
				t.Fatalf("%s: the combine carried into the bits past the last lane: %#x", what, pa[len(pa)-1])
			}
			if zero := !slices.ContainsFunc(want, func(v uint64) bool { return v != 0 }); allZero(pa) != zero {
				t.Fatalf("%s: packed words all zero = %v, every lane zero = %v", what, allZero(pa), zero)
			}
		}
		// One non-zero lane among zeros is seen, wherever it lies.
		one := make([]uint64, lanes)
		i := int(seed % uint64(lanes))
		one[i] = 1 + seed>>32%min(mask, 1<<20)
		if table {
			one[i] %= mods[i/(lanes/len(mods))]
		}
		if allZero(packed(one, width)) != (one[i] == 0) {
			t.Fatalf("%s: lane %d = %d, yet the packed words are all zero = %v", what, i, one[i], allZero(packed(one, width)))
		}
	})
}

// BenchmarkPackedCombine prices the combine of the default 6×32 m9
// table at one tree edge of a resolve: packed, lane by lane, against
// addMod on the same residues unpacked.
func BenchmarkPackedCombine(b *testing.B) {
	st := packedSumState()
	words := st.Words()
	dst, src := slices.Clone(words), slices.Clone(words)
	b.Run("packed", func(b *testing.B) {
		for b.Loop() {
			st.Combine(dst, src)
		}
	})
	c := st.(*state).sum
	udst, usrc := make([]uint64, c.TableWords()), make([]uint64, c.TableWords())
	unpackLanes(udst, words, uint(c.cfg.RHatLog+1))
	copy(usrc, udst)
	b.Run("addMod", func(b *testing.B) {
		for b.Loop() {
			addMod(udst, usrc, c.mods)
		}
	})
}

// packedSumState seals a 6×32 m9 sum state over a corrupted result, so
// its table is not all zero.
func packedSumState() CheckState {
	cfg := SumConfig{Iterations: 6, Buckets: 32, RHatLog: 9, Family: hashing.FamilyCRC}
	input := workload.ZipfPairs(2000, 1000, 1<<30, 1)
	output := refSumAgg(input)
	output[0].Value++
	return NewSumAggState("packed", cfg, 7, input, output)
}

// addMod adds src into dst entry-wise, each iteration's row of d
// counters modulo that iteration's r (mods): the combine of normalized
// tables, unpacked — the reference addLanes is tested against.
func addMod(dst, src, mods []uint64) {
	d := len(dst) / len(mods)
	for it, r := range mods {
		for i := it * d; i < (it+1)*d; i++ {
			s := dst[i] + src[i] // both < r <= 2^63: no overflow
			if s >= r {
				s -= r
			}
			dst[i] = s
		}
	}
}
