package hashing

// MT19937_64 is the 64-bit Mersenne Twister (mt19937-64) of Matsumoto
// and Nishimura, the generator the paper draws pseudo-random numbers
// from (reference [29]). It is not safe for concurrent use; every PE
// owns its own instance.
//
// The 312-word state is built on the first draw, not by the
// constructor or by Seed: a generator that is handed out but never
// drawn from — the private Rng of a service job whose body needs no
// randomness — costs one small allocation instead of 2.5 KB and 312
// multiplies. The stream is the reference implementation's
// (init_genrand64), bit for bit.
type MT19937_64 struct {
	seed  uint64
	state *[mt64N]uint64 // nil until the first draw; kept across Seed
	built bool           // state holds seed's stream
	index int
}

const (
	mt64N         = 312
	mt64M         = 156
	mt64MatrixA   = 0xB5026F5AA96619E9
	mt64UpperMask = 0xFFFFFFFF80000000
	mt64LowerMask = 0x7FFFFFFF
)

// NewMT19937_64 returns a 64-bit generator whose stream is the
// reference implementation's for seed.
func NewMT19937_64(seed uint64) *MT19937_64 {
	return &MT19937_64{seed: seed, index: mt64N}
}

// Seed restarts the generator on seed's stream, as NewMT19937_64(seed)
// would, keeping the state storage of earlier draws.
func (m *MT19937_64) Seed(seed uint64) {
	m.seed, m.built, m.index = seed, false, mt64N
}

// generate refills the state block; the first call after a seed also
// builds the state from it, so Uint64's hot path has the one index
// check it always had.
func (m *MT19937_64) generate() {
	if !m.built {
		if m.state == nil {
			m.state = new([mt64N]uint64)
		}
		st := m.state
		st[0] = m.seed
		for i := uint64(1); i < mt64N; i++ {
			prev := st[i-1]
			st[i] = 6364136223846793005*(prev^(prev>>62)) + i
		}
		m.built = true
	}
	st := m.state
	for i := 0; i < mt64N; i++ {
		y := (st[i] & mt64UpperMask) | (st[(i+1)%mt64N] & mt64LowerMask)
		next := st[(i+mt64M)%mt64N] ^ (y >> 1)
		if y&1 != 0 {
			next ^= mt64MatrixA
		}
		st[i] = next
	}
	m.index = 0
}

// Uint64 returns the next tempered 64-bit output.
func (m *MT19937_64) Uint64() uint64 {
	if m.index >= mt64N {
		m.generate()
	}
	y := m.state[m.index]
	m.index++
	y ^= (y >> 29) & 0x5555555555555555
	y ^= (y << 17) & 0x71D67FFFEDA60000
	y ^= (y << 37) & 0xFFF7EEE000000000
	y ^= y >> 43
	return y
}

// Uint64n returns a uniform value in [0, n) via rejection sampling.
func (m *MT19937_64) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("hashing: Uint64n with n == 0")
	}
	limit := ^uint64(0) - ^uint64(0)%n
	for {
		v := m.Uint64()
		if v < limit {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (m *MT19937_64) Float64() float64 {
	return float64(m.Uint64()>>11) / (1 << 53)
}
