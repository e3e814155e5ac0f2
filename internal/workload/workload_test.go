package workload

import (
	"math"
	"slices"
	"testing"

	"repro/internal/hashing"
)

func TestZipfFrequenciesMatchTheory(t *testing.T) {
	// With N=100 and many samples, the empirical frequency of rank k
	// should approximate 1/(k*H_N).
	const n, samples = 100, 400000
	rng := hashing.NewMT19937_64(1)
	z := NewZipf(n, rng)
	counts := make([]int, n+1)
	for i := 0; i < samples; i++ {
		r := z.Sample()
		if r < 1 || r > n {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	var h float64
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	for _, k := range []int{1, 2, 5, 10, 50} {
		want := 1 / (float64(k) * h)
		got := float64(counts[k]) / samples
		if math.Abs(got-want) > 0.15*want+0.002 {
			t.Errorf("rank %d: empirical %f, theoretical %f", k, got, want)
		}
	}
	// Monotonicity of the head.
	if counts[1] <= counts[2] || counts[2] <= counts[5] {
		t.Errorf("head frequencies not decreasing: %d %d %d", counts[1], counts[2], counts[5])
	}
}

func TestZipfDeterministic(t *testing.T) {
	a := NewZipf(1000, hashing.NewMT19937_64(7))
	b := NewZipf(1000, hashing.NewMT19937_64(7))
	for i := 0; i < 1000; i++ {
		if a.Sample() != b.Sample() {
			t.Fatal("Zipf sampling not deterministic for equal seeds")
		}
	}
}

func TestZipfSingleRank(t *testing.T) {
	z := NewZipf(1, hashing.NewMT19937_64(3))
	for i := 0; i < 100; i++ {
		if z.Sample() != 1 {
			t.Fatal("N=1 must always sample rank 1")
		}
	}
}

func TestZipfPairsShape(t *testing.T) {
	ps := ZipfPairs(5000, 1000, 0, 42)
	if len(ps) != 5000 {
		t.Fatalf("got %d pairs", len(ps))
	}
	for _, p := range ps {
		if p.Key < 1 || p.Key > 1000 {
			t.Fatalf("key %d out of universe", p.Key)
		}
		if p.Value != 1 {
			t.Fatalf("count workload must have value 1, got %d", p.Value)
		}
	}
	vs := ZipfPairs(100, 10, 50, 42)
	for _, p := range vs {
		if p.Value >= 50 {
			t.Fatalf("value %d out of range", p.Value)
		}
	}
}

func TestUniformU64sRange(t *testing.T) {
	xs := UniformU64s(10000, 1e8, 9)
	for _, x := range xs {
		if x >= 1e8 {
			t.Fatalf("value %d out of range", x)
		}
	}
	// Crude uniformity: mean should be near max/2.
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	mean := sum / float64(len(xs))
	if mean < 4.5e7 || mean > 5.5e7 {
		t.Fatalf("mean %f far from 5e7", mean)
	}
}

func TestWords(t *testing.T) {
	ws := Words(1000, 50, 21)
	if len(ws) != 1000 {
		t.Fatalf("got %d words", len(ws))
	}
	distinct := make(map[string]bool)
	for _, w := range ws {
		if w == "" {
			t.Fatal("empty word")
		}
		distinct[w] = true
	}
	if len(distinct) > 50 {
		t.Fatalf("vocabulary overflow: %d distinct words", len(distinct))
	}
	if len(distinct) < 10 {
		t.Fatalf("suspiciously small vocabulary: %d", len(distinct))
	}
}

func TestWordNameInjectiveOnSmallRanks(t *testing.T) {
	seen := make(map[string]uint64)
	for r := uint64(1); r <= 10000; r++ {
		w := wordName(r)
		if prev, ok := seen[w]; ok {
			t.Fatalf("wordName collision: ranks %d and %d both map to %q", prev, r, w)
		}
		seen[w] = r
	}
}

func TestEdgeSeqShares(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		byName := make(map[string][][]uint64)
		for _, s := range EdgeSeqShares(p, 7) {
			if len(s.Shares) != p {
				t.Fatalf("p=%d %s: %d shares", p, s.Name, len(s.Shares))
			}
			if _, dup := byName[s.Name]; dup {
				t.Fatalf("p=%d: shape %s appears twice", p, s.Name)
			}
			byName[s.Name] = s.Shares
		}
		var presorted []uint64
		for _, share := range byName["presorted"] {
			presorted = append(presorted, share...)
		}
		if !slices.IsSorted(presorted) {
			t.Errorf("p=%d: presorted is not globally ascending", p)
		}
		for r, share := range byName["periodic"] {
			step := len(share) / 16
			if step == 0 || !slices.Equal(share[step:], share[:len(share)-step]) {
				t.Errorf("p=%d: periodic share %d does not repeat every 1/16 of its length", p, r)
			}
		}
		if slices.Index(byName["extremes"][0], 0) < 0 || slices.Index(byName["extremes"][0], ^uint64(0)) < 0 {
			t.Errorf("p=%d: extremes lacks 0 or MaxUint64 on PE 0", p)
		}
	}
}
