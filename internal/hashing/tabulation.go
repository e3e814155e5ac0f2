package hashing

import "sync"

// Tabulation32 is simple tabulation hashing over the 8 bytes of a uint64
// with 32-bit output: h(x) = T_0[b_0] xor ... xor T_7[b_7], the paper's
// "Tab" configuration with 256-entry tables. Simple tabulation is
// 3-independent and, per Pătraşcu and Thorup (reference [28]), behaves
// like a fully random function for many applications.
//
// The paper fills the tables from a Mersenne Twister. This reproduction
// fills them from the SplitMix64 stream that already expands every
// checker seed (SubSeeds), for two measured reasons: seeding and
// stepping a Mersenne Twister made one table cost 18 µs, twice the
// hashing of a 2 000-element job it was built for, against under 2 µs
// for the block fill; and the 32-bit twister takes a 32-bit seed, so
// two of the 64-bit sub-seeds that agree on those bits gave the same
// function. The stream is keyed by all 64 bits. What the checkers need
// of the table entries — independent uniform words — both generators
// supply; TestHashUniformityCoarse and the checker delta gates in
// internal/core hold the new fill to it.
type Tabulation32 struct {
	tables [8][256]uint32
}

// The tables of recycled hashers, see Recycle. A fill overwrites every
// entry, so a pooled table needs no clearing.
var (
	tab32Pool = sync.Pool{New: func() any { return new(Tabulation32) }}
	tab64Pool = sync.Pool{New: func() any { return new(Tabulation64) }}
)

// NewTabulation32 returns the tabulation hasher keyed by seed: one block
// loop over the SplitMix64 stream started at Mix64(seed) — a bijection
// of the whole seed, so distinct seeds give distinct streams, and seeds
// one stream increment apart do not give shifted copies of one table —
// two entries per output.
func NewTabulation32(seed uint64) *Tabulation32 {
	t := tab32Pool.Get().(*Tabulation32)
	s := Mix64(seed)
	for i := range t.tables {
		row := &t.tables[i]
		for j := 0; j < len(row); j += 2 {
			z := SplitMix64(&s)
			row[j], row[j+1] = uint32(z), uint32(z>>32)
		}
	}
	return t
}

// Recycle hands the tables of a hasher made by Family.New back for the
// next New to fill, so building a checker per small job allocates no
// table in the steady state. The caller must be h's only holder and
// must not use h afterwards: the next hasher built shares its memory.
// Hashers without tables (CRC, Mix) need no recycling and are ignored.
func Recycle(h Hasher) {
	switch t := h.(type) {
	case *Tabulation32:
		tab32Pool.Put(t)
	case *Tabulation64:
		tab64Pool.Put(t)
	}
}

// Hash64 hashes x byte-wise through the tables.
func (t *Tabulation32) Hash64(x uint64) uint64 {
	h := t.tables[0][byte(x)] ^
		t.tables[1][byte(x>>8)] ^
		t.tables[2][byte(x>>16)] ^
		t.tables[3][byte(x>>24)] ^
		t.tables[4][byte(x>>32)] ^
		t.tables[5][byte(x>>40)] ^
		t.tables[6][byte(x>>48)] ^
		t.tables[7][byte(x>>56)]
	return uint64(h)
}

// Hash64Batch hashes a block of keys through the tables. Hoisting the
// table pointer out of the loop lets consecutive keys' (independent)
// lookups overlap instead of re-deriving the receiver per call.
func (t *Tabulation32) Hash64Batch(dst, keys []uint64) {
	tb := &t.tables
	dst = dst[:len(keys)]
	for i, x := range keys {
		dst[i] = uint64(tb[0][byte(x)] ^
			tb[1][byte(x>>8)] ^
			tb[2][byte(x>>16)] ^
			tb[3][byte(x>>24)] ^
			tb[4][byte(x>>32)] ^
			tb[5][byte(x>>40)] ^
			tb[6][byte(x>>48)] ^
			tb[7][byte(x>>56)])
	}
}

// Tabulation64 is simple tabulation hashing with 64-bit output (the
// paper's "Tab64": eight 256-entry tables of 64-bit words).
type Tabulation64 struct {
	tables [8][256]uint64
}

// NewTabulation64 returns the 64-bit tabulation hasher keyed by seed,
// filled like NewTabulation32's tables, one entry per output.
func NewTabulation64(seed uint64) *Tabulation64 {
	t := tab64Pool.Get().(*Tabulation64)
	s := Mix64(seed)
	for i := range t.tables {
		row := &t.tables[i]
		for j := range row {
			row[j] = SplitMix64(&s)
		}
	}
	return t
}

// Hash64 hashes x byte-wise through the tables.
func (t *Tabulation64) Hash64(x uint64) uint64 {
	return t.tables[0][byte(x)] ^
		t.tables[1][byte(x>>8)] ^
		t.tables[2][byte(x>>16)] ^
		t.tables[3][byte(x>>24)] ^
		t.tables[4][byte(x>>32)] ^
		t.tables[5][byte(x>>40)] ^
		t.tables[6][byte(x>>48)] ^
		t.tables[7][byte(x>>56)]
}

// Hash64Batch hashes a block of keys through the tables; see
// Tabulation32.Hash64Batch.
func (t *Tabulation64) Hash64Batch(dst, keys []uint64) {
	tb := &t.tables
	dst = dst[:len(keys)]
	for i, x := range keys {
		dst[i] = tb[0][byte(x)] ^
			tb[1][byte(x>>8)] ^
			tb[2][byte(x>>16)] ^
			tb[3][byte(x>>24)] ^
			tb[4][byte(x>>32)] ^
			tb[5][byte(x>>40)] ^
			tb[6][byte(x>>48)] ^
			tb[7][byte(x>>56)]
	}
}
