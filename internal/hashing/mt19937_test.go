package hashing

import "testing"

// Reference outputs of the canonical C implementation seeded with 5489
// (the default seed of std::mt19937_64).
var mt64Known = []uint64{
	14514284786278117030,
	4620546740167642908,
	13109570281517897720,
	17462938647148434322,
	355488278567739596,
}

func TestMT19937_64KnownAnswer(t *testing.T) {
	m := NewMT19937_64(5489)
	for i, want := range mt64Known {
		if got := m.Uint64(); got != want {
			t.Fatalf("MT19937-64 output %d: got %d, want %d", i, got, want)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	m := NewMT19937_64(7)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 40, 1<<63 + 11} {
		for i := 0; i < 200; i++ {
			if v := m.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) returned %d", n, v)
			}
		}
	}
}

func TestUint64nUniformSmall(t *testing.T) {
	// Chi-square style sanity check: each residue of a small modulus
	// should appear with roughly equal frequency.
	m := NewMT19937_64(99)
	const n, trials = 8, 80000
	var counts [n]int
	for i := 0; i < trials; i++ {
		counts[m.Uint64n(n)]++
	}
	want := trials / n
	for r, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("residue %d count %d deviates from expectation %d", r, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	m := NewMT19937_64(3)
	for i := 0; i < 1000; i++ {
		f := m.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

// eagerMT64 is the reference mt19937-64 with init_genrand64 run by the
// constructor, as this package's generator did before it deferred it.
type eagerMT64 struct {
	state [mt64N]uint64
	index int
}

func newEagerMT64(seed uint64) *eagerMT64 {
	m := &eagerMT64{index: mt64N}
	m.state[0] = seed
	for i := uint64(1); i < mt64N; i++ {
		prev := m.state[i-1]
		m.state[i] = 6364136223846793005*(prev^(prev>>62)) + i
	}
	return m
}

func (m *eagerMT64) Uint64() uint64 {
	if m.index >= mt64N {
		for i := 0; i < mt64N; i++ {
			y := (m.state[i] & mt64UpperMask) | (m.state[(i+1)%mt64N] & mt64LowerMask)
			m.state[i] = m.state[(i+mt64M)%mt64N] ^ (y >> 1) ^ (y&1)*mt64MatrixA
		}
		m.index = 0
	}
	y := m.state[m.index]
	m.index++
	y ^= (y >> 29) & 0x5555555555555555
	y ^= (y << 17) & 0x71D67FFFEDA60000
	y ^= (y << 37) & 0xFFF7EEE000000000
	y ^= y >> 43
	return y
}

// TestMT19937_64DeferredStateSameStream: building the state on the
// first draw changes no output, across several refills of the block,
// and a generator nobody draws from holds no state.
func TestMT19937_64DeferredStateSameStream(t *testing.T) {
	for _, seed := range []uint64{0, 1, 5489, 0xdeadbeefcafef00d, ^uint64(0)} {
		m, ref := NewMT19937_64(seed), newEagerMT64(seed)
		if m.state != nil {
			t.Fatalf("seed %#x: state built before the first draw", seed)
		}
		for i := 0; i < 3*mt64N+17; i++ {
			if got, want := m.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %#x output %d: got %d, want %d", seed, i, got, want)
			}
		}
	}
}
