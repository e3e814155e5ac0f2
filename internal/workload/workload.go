// Package workload generates the synthetic inputs of the paper's
// experiments: power-law (Zipf) distributed keys — "this distribution
// naturally models many workloads, e.g. wordcount over natural
// languages" (Section 7.1) — and uniform integers (Section 7.2).
package workload

import (
	"repro/internal/data"
	"repro/internal/hashing"
)

// Zipf samples ranks 1..N with probability f(k;N) = 1/(k*H_N), the
// distribution of Section 7.1. Sampling uses Walker/Vose alias tables:
// O(N) setup, O(1) per sample.
type Zipf struct {
	n     int
	prob  []float64 // scaled acceptance probabilities
	alias []int32
	rng   *hashing.MT19937_64
}

// NewZipf builds a sampler for ranks 1..n driven by rng.
func NewZipf(n int, rng *hashing.MT19937_64) *Zipf {
	if n < 1 {
		panic("workload: NewZipf requires n >= 1")
	}
	weights := make([]float64, n)
	var h float64
	for k := 1; k <= n; k++ {
		w := 1 / float64(k)
		weights[k-1] = w
		h += w
	}
	z := &Zipf{n: n, prob: make([]float64, n), alias: make([]int32, n), rng: rng}
	// Vose's alias method over probabilities weights[i]/h.
	scaled := weights
	for i := range scaled {
		scaled[i] = scaled[i] / h * float64(n)
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, s := range scaled {
		if s < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		z.prob[s] = scaled[s]
		z.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, l := range large {
		z.prob[l] = 1
		z.alias[l] = l
	}
	for _, s := range small {
		z.prob[s] = 1
		z.alias[s] = s
	}
	return z
}

// Sample draws one rank in 1..N.
func (z *Zipf) Sample() uint64 { return z.SampleR(z.rng) }

// SampleR draws one rank using the provided generator. The alias tables
// are read-only after construction, so a single Zipf may be shared by
// many goroutines as long as each supplies its own rng.
func (z *Zipf) SampleR(rng *hashing.MT19937_64) uint64 {
	i := int(rng.Uint64n(uint64(z.n)))
	if rng.Float64() < z.prob[i] {
		return uint64(i) + 1
	}
	return uint64(z.alias[i]) + 1
}

// ZipfPairs generates n (key, value) pairs whose keys are Zipf ranks over
// universe 1..universe and whose values are uniform in [0, valueMax)
// (valueMax 0 means "value = 1", i.e. a count workload).
func ZipfPairs(n, universe int, valueMax uint64, seed uint64) []data.Pair {
	rng := hashing.NewMT19937_64(seed)
	z := NewZipf(universe, rng)
	out := make([]data.Pair, n)
	for i := range out {
		v := uint64(1)
		if valueMax > 0 {
			v = rng.Uint64n(valueMax)
		}
		out[i] = data.Pair{Key: z.Sample(), Value: v}
	}
	return out
}

// UniformU64s generates n values uniform in [0, max).
func UniformU64s(n int, max uint64, seed uint64) []uint64 {
	rng := hashing.NewMT19937_64(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64n(max)
	}
	return out
}

// UniformPairs generates n pairs with keys uniform in [0, keyMax) and
// values uniform in [0, valueMax).
func UniformPairs(n int, keyMax, valueMax uint64, seed uint64) []data.Pair {
	rng := hashing.NewMT19937_64(seed)
	out := make([]data.Pair, n)
	for i := range out {
		out[i] = data.Pair{Key: rng.Uint64n(keyMax), Value: rng.Uint64n(valueMax)}
	}
	return out
}

// Words returns n synthetic words following the Zipf distribution over a
// vocabulary of the given size, for the wordcount example.
func Words(n, vocabulary int, seed uint64) []string {
	rng := hashing.NewMT19937_64(seed)
	z := NewZipf(vocabulary, rng)
	out := make([]string, n)
	for i := range out {
		out[i] = wordName(z.Sample())
	}
	return out
}

func wordName(rank uint64) string {
	// Deterministic pseudo-words: base-26 encoding of the rank.
	const letters = "abcdefghijklmnopqrstuvwxyz"
	buf := make([]byte, 0, 8)
	for {
		buf = append(buf, letters[rank%26])
		rank /= 26
		if rank == 0 {
			break
		}
	}
	return string(buf)
}

// PairShares is a named distributed pair input: Shares[r] is PE r's
// local share.
type PairShares struct {
	Name   string
	Shares [][]data.Pair
}

// EdgePairShares returns the degenerate and skewed pair inputs the
// one-sidedness and differential gates run over, laid out for p PEs:
// no input anywhere, input on every other PE only, one key, one pair
// repeated, the extreme keys 0 and MaxUint64 side by side, values of
// MaxUint64 on distinct keys, the same on repeated keys (so sums wrap
// around 2^64), Zipf skew, and a single pair. Only "wraparound" has a
// key whose values sum past 2^64.
func EdgePairShares(p int, seed uint64) []PairShares {
	const maxU64 = ^uint64(0)
	rng := hashing.NewMT19937_64(seed)
	fill := func(n int, gen func(r, i int) data.Pair) [][]data.Pair {
		shares := make([][]data.Pair, p)
		for r := range shares {
			shares[r] = make([]data.Pair, n)
			for i := range shares[r] {
				shares[r][i] = gen(r, i)
			}
		}
		return shares
	}
	zipf := NewZipf(100, rng)
	zipfPair := func(r, i int) data.Pair { return data.Pair{Key: zipf.Sample(), Value: rng.Uint64n(1000)} }
	someEmpty := fill(200, zipfPair)
	for r := 1; r < p; r += 2 {
		someEmpty[r] = nil
	}
	extremes := []uint64{0, maxU64, 1, maxU64 - 1}
	onePair := make([][]data.Pair, p)
	onePair[p-1] = []data.Pair{{Key: rng.Uint64(), Value: rng.Uint64()}}
	return []PairShares{
		{"all-empty", make([][]data.Pair, p)},
		{"some-empty", someEmpty},
		{"single-key", fill(50, func(r, i int) data.Pair { return data.Pair{Key: 7, Value: rng.Uint64n(1 << 32)} })},
		{"all-duplicate", fill(64, func(r, i int) data.Pair { return data.Pair{Key: 5, Value: 9} })},
		{"extreme-keys", fill(40, func(r, i int) data.Pair { return data.Pair{Key: extremes[(r+i)%4], Value: rng.Uint64n(1 << 32)} })},
		{"max-values", fill(30, func(r, i int) data.Pair { return data.Pair{Key: uint64(1000*r + i), Value: maxU64} })},
		{"wraparound", fill(60, func(r, i int) data.Pair { return data.Pair{Key: uint64(i % 6), Value: maxU64} })},
		{"zipf", fill(150, zipfPair)},
		{"one-pair", onePair},
	}
}

// SeqShares is a named distributed sequence input: Shares[r] is PE r's
// local share.
type SeqShares struct {
	Name   string
	Shares [][]uint64
}

// EdgeSeqShares returns the degenerate and skewed sequence inputs the
// one-sidedness and differential gates run over, laid out for p PEs:
// no input anywhere, input on every other PE only, everything on one
// PE, a single element, one value repeated, uniform 64-bit values, a
// globally ascending and a globally descending sequence, shares that
// repeat with a period of one sixteenth of their length (in step with
// any sample taken at regular positions), Zipf skew, and the extreme
// values 0 and MaxUint64 among others. The "uniform", "presorted" and
// "periodic" shapes hold 320 elements per PE and are the ones a sample
// sort is expected to balance.
func EdgeSeqShares(p int, seed uint64) []SeqShares {
	const (
		maxU64 = ^uint64(0)
		n      = 320
	)
	rng := hashing.NewMT19937_64(seed)
	fill := func(n int, gen func(r, i int) uint64) [][]uint64 {
		shares := make([][]uint64, p)
		for r := range shares {
			shares[r] = make([]uint64, n)
			for i := range shares[r] {
				shares[r][i] = gen(r, i)
			}
		}
		return shares
	}
	uniform := func(r, i int) uint64 { return rng.Uint64() }
	someEmpty := fill(200, uniform)
	for r := 1; r < p; r += 2 {
		someEmpty[r] = nil
	}
	onePE := make([][]uint64, p)
	onePE[0] = fill(500, uniform)[0]
	oneElement := make([][]uint64, p)
	oneElement[p-1] = []uint64{rng.Uint64()}
	period := make([]uint64, n/16)
	for i := range period {
		period[i] = rng.Uint64()
	}
	zipf := NewZipf(100, rng)
	extremes := []uint64{0, maxU64, 1, maxU64 - 1}
	return []SeqShares{
		{"all-empty", make([][]uint64, p)},
		{"some-empty", someEmpty},
		{"one-pe", onePE},
		{"one-element", oneElement},
		{"all-duplicate", fill(64, func(r, i int) uint64 { return 5 })},
		{"uniform", fill(n, uniform)},
		{"presorted", fill(n, func(r, i int) uint64 { return uint64(1000 * (r*n + i)) })},
		{"reversed", fill(n, func(r, i int) uint64 { return uint64(1000 * (p*n - r*n - i)) })},
		{"periodic", fill(n, func(r, i int) uint64 { return period[i%len(period)] + uint64(r) })},
		{"zipf", fill(150, func(r, i int) uint64 { return zipf.Sample() })},
		{"extremes", fill(40, func(r, i int) uint64 {
			if i%2 == 0 {
				return extremes[(r+i/2)%4]
			}
			return rng.Uint64()
		})},
	}
}
