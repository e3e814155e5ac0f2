package core

import (
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/workload"
)

// buildMedianReference computes per-key doubled medians and tie
// certificates from a global input.
func buildMedianReference(global []data.Pair) ([]data.Pair, map[uint64]TieCert) {
	byKey := make(map[uint64][]uint64)
	for _, pr := range global {
		byKey[pr.Key] = append(byKey[pr.Key], pr.Value)
	}
	medians := make([]data.Pair, 0, len(byKey))
	ties := make(map[uint64]TieCert, len(byKey))
	for k, vs := range byKey {
		data.SortU64(vs)
		n := len(vs)
		var m2 uint64
		if n%2 == 1 {
			m2 = 2 * vs[n/2]
		} else {
			m2 = vs[n/2-1] + vs[n/2]
		}
		medians = append(medians, data.Pair{Key: k, Value: m2})
		ties[k] = ComputeTieCert(vs, m2)
	}
	data.SortPairsByKey(medians)
	return medians, ties
}

// distinctPairs produces pairs with unique values per key.
func distinctPairs(n, keys int, seed uint64) []data.Pair {
	rng := hashing.NewMT19937_64(seed)
	used := make(map[data.Pair]bool)
	out := make([]data.Pair, 0, n)
	for len(out) < n {
		pr := data.Pair{Key: rng.Uint64n(uint64(keys)), Value: rng.Uint64n(1 << 40)}
		probe := data.Pair{Key: pr.Key, Value: pr.Value}
		if used[probe] {
			continue
		}
		used[probe] = true
		out = append(out, pr)
	}
	return out
}

func TestMedianCheckerAcceptsUniqueValues(t *testing.T) {
	global := distinctPairs(2000, 25, 1)
	medians, _ := buildMedianReference(global)
	for _, p := range []int{1, 2, 4} {
		err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewMedianAggState("MedianAgg", smallCfg, seed, w.Rank(), shardPairs(global, p, w.Rank()), medians, nil)
			})
			if err != nil {
				return err
			}
			if !ok {
				t.Errorf("p=%d: correct medians rejected", p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestMedianCheckerDetectsWrongMedian(t *testing.T) {
	global := distinctPairs(1500, 15, 2)
	medians, _ := buildMedianReference(global)
	detected := 0
	const trials = 60
	for seed := uint64(0); seed < trials; seed++ {
		bad := data.ClonePairs(medians)
		// Shift one median enough to unbalance at least one element.
		bad[int(seed)%len(bad)].Value += 1 << 41
		err := dist.RunConfig(dist.Config{}, 3, seed, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewMedianAggState("MedianAgg", smallCfg, seed, w.Rank(), shardPairs(global, 3, w.Rank()), bad, nil)
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 && !ok {
				detected++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if detected < trials-3 {
		t.Fatalf("wrong median detected only %d of %d times", detected, trials)
	}
}

func TestMedianCheckerDetectsDroppedKey(t *testing.T) {
	global := distinctPairs(800, 10, 3)
	medians, _ := buildMedianReference(global)
	bad := medians[1:]
	err := dist.RunConfig(dist.Config{}, 3, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewMedianAggState("MedianAgg", smallCfg, seed, w.Rank(), shardPairs(global, 3, w.Rank()), bad, nil)
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("dropped key accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMedianCheckerDetectsRepeatedKey is TestMinCheckerDetectsRepeatedKey
// for the replicated medians: a spurious row ahead of the correct one
// passed while the balance scan read only the last row of each key.
func TestMedianCheckerDetectsRepeatedKey(t *testing.T) {
	global := distinctPairs(800, 10, 10)
	medians, _ := buildMedianReference(global)
	bad := append([]data.Pair{{Key: medians[0].Key, Value: medians[0].Value + 12345}}, medians...)
	err := dist.RunConfig(dist.Config{}, 3, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewMedianAggState("MedianAgg", smallCfg, seed, w.Rank(), shardPairs(global, 3, w.Rank()), bad, nil)
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("repeated key accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMedianCheckerTiesAcceptCorrect(t *testing.T) {
	// Heavy duplication: values drawn from a tiny range.
	global := workload.UniformPairs(2000, 10, 7, 4)
	medians, ties := buildMedianReference(global)
	for _, p := range []int{1, 3, 5} {
		err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewMedianAggState("MedianAgg", smallCfg, seed, w.Rank(), shardPairs(global, p, w.Rank()), medians, ties)
			})
			if err != nil {
				return err
			}
			if !ok {
				t.Errorf("p=%d: correct tied medians rejected", p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestMedianCheckerTiesDetectWrongMedian(t *testing.T) {
	global := workload.UniformPairs(1000, 8, 7, 5)
	medians, ties := buildMedianReference(global)
	detected := 0
	const trials = 40
	for seed := uint64(0); seed < trials; seed++ {
		bad := data.ClonePairs(medians)
		i := int(seed) % len(bad)
		bad[i].Value += 2 // move the median by a full value step
		err := dist.RunConfig(dist.Config{}, 3, seed, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewMedianAggState("MedianAgg", smallCfg, seed, w.Rank(), shardPairs(global, 3, w.Rank()), bad, ties)
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 && !ok {
				detected++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if detected < trials-2 {
		t.Fatalf("tied wrong median detected only %d of %d times", detected, trials)
	}
}

func TestMedianCheckerTiesDetectForgedCertificate(t *testing.T) {
	// A certificate that moves equal elements around to absorb an
	// imbalanced (wrong) median must be caught by the equality lane or
	// the AtSlot bound.
	global := []data.Pair{
		{Key: 1, Value: 5}, {Key: 1, Value: 5}, {Key: 1, Value: 5},
		{Key: 1, Value: 9}, {Key: 1, Value: 9},
	}
	// True median of [5 5 5 9 9] is 5 (m2=10). Assert 9 instead.
	badMedians := []data.Pair{{Key: 1, Value: 18}}
	// Balance for m=9: smaller=3, larger=0, equal=2. Forged cert must
	// satisfy 3 + L == 0 + H with L+H+AtSlot == 2 and AtSlot <= 2 —
	// impossible, but try the nearest forgeries.
	forgeries := []TieCert{
		{EqLow: 0, EqHigh: 2, AtSlot: 0},
		{EqLow: 0, EqHigh: 1, AtSlot: 1},
		{EqLow: 0, EqHigh: 3, AtSlot: 0}, // lies about equal count
	}
	for i, cert := range forgeries {
		err := dist.RunConfig(dist.Config{}, 2, uint64(i), func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewMedianAggState("MedianAgg", smallCfg, seed, w.Rank(), shardPairs(global, 2, w.Rank()), badMedians, map[uint64]TieCert{1: cert})
			})
			if err != nil {
				return err
			}
			if ok {
				t.Errorf("forgery %d accepted", i)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestMedianCheckerTiesRejectOversizedAtSlot(t *testing.T) {
	global := []data.Pair{{Key: 1, Value: 5}, {Key: 1, Value: 5}, {Key: 1, Value: 5}}
	medians := []data.Pair{{Key: 1, Value: 10}}
	bad := map[uint64]TieCert{1: {EqLow: 0, EqHigh: 0, AtSlot: 3}}
	err := dist.RunConfig(dist.Config{}, 2, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewMedianAggState("MedianAgg", smallCfg, seed, w.Rank(), shardPairs(global, 2, w.Rank()), medians, bad)
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("AtSlot > 2 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeTieCert(t *testing.T) {
	cases := []struct {
		vs   []uint64
		m2   uint64
		want TieCert
	}{
		// Odd count, unique values: the median element sits at the slot.
		{[]uint64{1, 2, 3}, 4, TieCert{0, 0, 1}},
		// Even count, distinct middles: no equal elements at all.
		{[]uint64{1, 2, 3, 10}, 5, TieCert{0, 0, 0}},
		// Even count, equal middles.
		{[]uint64{1, 3, 3, 5}, 6, TieCert{0, 0, 2}},
		// Ties spilling around the slots.
		{[]uint64{5, 5, 5, 9, 9}, 10, TieCert{EqLow: 2, EqHigh: 0, AtSlot: 1}},
		{[]uint64{5, 5, 5, 5}, 10, TieCert{EqLow: 1, EqHigh: 1, AtSlot: 2}},
	}
	for _, c := range cases {
		if got := ComputeTieCert(c.vs, c.m2); got != c.want {
			t.Errorf("ComputeTieCert(%v, %d) = %+v, want %+v", c.vs, c.m2, got, c.want)
		}
	}
}

func TestMedianCheckerBalancePropertyHolds(t *testing.T) {
	// Internal consistency: for correct medians with ties and certs,
	// the balance and equality relations hold per key. This guards the
	// reduction the checker relies on.
	global := workload.UniformPairs(3000, 12, 5, 6)
	medians, ties := buildMedianReference(global)
	m2 := make(map[uint64]uint64)
	for _, pr := range medians {
		m2[pr.Key] = pr.Value
	}
	smaller := make(map[uint64]int64)
	larger := make(map[uint64]int64)
	equal := make(map[uint64]int64)
	for _, pr := range global {
		v2 := 2 * pr.Value
		switch {
		case v2 < m2[pr.Key]:
			smaller[pr.Key]++
		case v2 > m2[pr.Key]:
			larger[pr.Key]++
		default:
			equal[pr.Key]++
		}
	}
	for k, tc := range ties {
		if smaller[k]+int64(tc.EqLow) != larger[k]+int64(tc.EqHigh) {
			t.Errorf("key %d: balance violated: %d+%d != %d+%d", k, smaller[k], tc.EqLow, larger[k], tc.EqHigh)
		}
		if equal[k] != int64(tc.EqLow+tc.EqHigh+tc.AtSlot) {
			t.Errorf("key %d: equality violated: %d != %d", k, equal[k], tc.EqLow+tc.EqHigh+tc.AtSlot)
		}
		if tc.AtSlot > 2 {
			t.Errorf("key %d: AtSlot %d", k, tc.AtSlot)
		}
	}
}

// medianReference is NewMedianAggState the way it filled its tables
// before they went through the sum kernel: per-key signed counts in
// maps, each added into its bucket of every iteration on its own,
// reduced mod r first. FuzzMedianAggState holds the kernel path to it.
func medianReference(cfg SumConfig, seed uint64, rank int, input, medians2 []data.Pair, ties map[uint64]TieCert) CheckState {
	c := NewSumChecker(cfg, seed)
	addSigned := func(table []uint64, key uint64, count int64) {
		d := c.cfg.Buckets
		c.prepare(key)
		for it := 0; it < c.cfg.Iterations; it++ {
			r := c.mods[it]
			v := uint64(count) % r
			if count < 0 {
				v = (r - uint64(-count)%r) % r
			}
			idx := it*d + c.bucketOf(key, it)
			table[idx] = (table[idx]%r + v) % r
		}
	}
	localOK := true
	m2 := make(map[uint64]uint64, len(medians2))
	for _, pr := range medians2 {
		if _, dup := m2[pr.Key]; dup {
			localOK = false
		}
		m2[pr.Key] = pr.Value
	}
	s := make(map[uint64]int64) // balance: #larger - #smaller
	e := make(map[uint64]int64) // equality: #equal to median
	for _, pr := range input {
		m, exists := m2[pr.Key]
		if !exists {
			localOK = false
			break
		}
		switch v2 := 2 * pr.Value; {
		case v2 < m:
			s[pr.Key]--
		case v2 > m:
			s[pr.Key]++
		default:
			e[pr.Key]++
		}
	}
	tv := c.NewTable()
	for k, cnt := range s {
		addSigned(tv, k, cnt)
	}
	segs := []segment{tableSeg(c)}
	var te []uint64
	if ties != nil {
		for _, tc := range ties {
			if tc.AtSlot > 2 {
				localOK = false
			}
		}
		te = c.NewTable()
		for k, cnt := range e {
			addSigned(te, k, cnt)
		}
		if rank == 0 {
			for k, tc := range ties {
				addSigned(tv, k, int64(tc.EqHigh)-int64(tc.EqLow))
				addSigned(te, k, -int64(tc.EqLow+tc.EqHigh+tc.AtSlot))
			}
		}
		segs = append(segs, tableSeg(c))
	}
	d := DigestU64s(flattenMedianAssertion(medians2, ties), seed)
	return newState("Median", append(append(tv, te...), d, d), localOK, c, append(segs, replicaSeg)...)
}

// FuzzMedianAggState holds NewMedianAggState's words and local
// predicate to medianReference's on every PE's share. The first byte
// picks p in {1, 2, 3}, tied values with tie certificates or unique
// ones without, the configuration (4×8 Tab, the default 15×4 CRC, a
// general d) and a lie: none, a shifted median, a dropped key, or a
// forged certificate whose counts are wide enough to take the kernel's
// high halves. Every further two bytes are a pair; with few of them
// some PEs' shares are empty.
func FuzzMedianAggState(f *testing.F) {
	f.Add([]byte{0}, uint64(1))
	f.Add([]byte{2, 1, 5, 1, 7, 2, 9, 1, 5}, uint64(2))
	f.Add([]byte{0x06, 1, 1, 1, 1, 1, 2, 2, 3, 2, 3, 2, 3, 3, 0, 1, 1}, uint64(3))
	f.Add([]byte{0x1e, 4, 1, 4, 1, 4, 2, 5, 0, 5, 3, 6, 1, 6, 1}, uint64(4))
	f.Add([]byte{0x25, 1, 9, 2, 8, 3, 7, 4, 6, 5, 5, 6, 4}, uint64(5))
	f.Add([]byte{0x4c, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2}, uint64(6))
	cfgs := []SumConfig{smallCfg, {Iterations: 15, Buckets: 4, RHatLog: 10, Family: hashing.FamilyCRC}, {Iterations: 3, Buckets: 5, RHatLog: 9, Family: hashing.FamilyMix}}
	f.Fuzz(func(t *testing.T, in []byte, seed uint64) {
		if len(in) == 0 {
			return
		}
		h, body := in[0], in[1:]
		p, tied, lie, cfg := 1+int(h%3), h>>2&1 == 1, h>>3&3, cfgs[int(h>>5)%len(cfgs)]
		global := make([]data.Pair, 0, len(body)/2)
		for i := 0; i+1 < len(body); i += 2 {
			v := uint64(body[i+1])
			if tied {
				v %= 4
			} else {
				v |= uint64(body[i]) << 8
			}
			global = append(global, data.Pair{Key: uint64(body[i] % 8), Value: v})
		}
		medians, ties := buildMedianReference(global)
		if !tied {
			ties = nil
		}
		switch {
		case len(medians) == 0:
		case lie == 1:
			medians[0].Value += 2
		case lie == 2:
			medians = medians[1:]
		case lie == 3 && tied:
			k := medians[0].Key
			ties[k] = TieCert{EqLow: ties[k].EqLow + 1<<45, EqHigh: 3 << 50, AtSlot: ties[k].AtSlot}
		}
		for rank := 0; rank < p; rank++ {
			share := shardPairs(global, p, rank)
			got := NewMedianAggState("Median", cfg, seed, rank, share, medians, ties)
			want := medianReference(cfg, seed, rank, share, medians, ties)
			if !slices.Equal(got.Words(), want.Words()) || got.LocalOK() != want.LocalOK() {
				t.Fatalf("%s p=%d rank %d tied=%v lie=%d: words %x ok=%v, reference %x ok=%v",
					cfg.Name(), p, rank, tied, lie, got.Words(), got.LocalOK(), want.Words(), want.LocalOK())
			}
		}
	})
}
