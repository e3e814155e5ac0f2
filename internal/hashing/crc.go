package hashing

import "hash/crc32"

// castagnoli is the CRC-32C table. The paper's implementation uses the
// SSE 4.2 hardware instruction; the software implementation here
// computes the identical polynomial, so accuracy behaviour (including the
// weaknesses Fig. 5 exposes) is reproduced bit-for-bit.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// castagnoli8 holds slicing-by-8 tables: table t maps a byte b to the
// CRC contribution of b positioned t bytes before the end of the
// message. Slicing breaks the byte-at-a-time dependency chain — the
// closest portable equivalent of the hardware CRC32 instruction the
// paper relies on for its few-ns-per-element overhead.
var castagnoli8 = func() (t [8][256]uint32) {
	t[0] = *castagnoli
	for k := 1; k < 8; k++ {
		for i := 0; i < 256; i++ {
			c := t[k-1][i]
			t[k][i] = t[0][byte(c)] ^ (c >> 8)
		}
	}
	return t
}()

// CRC32C is a keyed CRC-32C hasher. The seed becomes the initial CRC
// register value, which corresponds to prepending a fixed 4-byte prefix
// to every message, giving a cheap per-instance key. Output is 32 bits.
//
// Values are encoded in their minimal power-of-two width: 4 bytes when
// they fit in 32 bits, 8 bytes otherwise. The paper's experiments hash
// 32-bit elements, and CRC-32C's documented weaknesses there (Fig. 5's
// Increment anomaly, Fig. 3's IncDec1 anomaly) are properties of the
// 4-byte-message difference constants — the linearity of CRC makes
// crc(x+1) xor crc(x) a fixed constant per carry-chain length, and for
// 4-byte messages the even-x constant has three trailing zero bits, so
// truncations to few bits miss every such increment. The minimal-width
// encoding preserves that behaviour for 32-bit data while still
// supporting the full 64-bit domain.
type CRC32C struct {
	init uint32
}

// NewCRC32C returns a CRC-32C hasher keyed by seed.
func NewCRC32C(seed uint64) *CRC32C {
	return &CRC32C{init: uint32(Mix64(seed))}
}

// Hash64 hashes the little-endian bytes of x (4 bytes if x < 2^32,
// otherwise 8) with slicing-by-4/8. The result is bit-identical to
// crc32.Update(init, crc32.MakeTable(crc32.Castagnoli), bytes) —
// verified by tests — but allocation free and without a serial
// per-byte dependency chain.
func (c *CRC32C) Hash64(x uint64) uint64 {
	if x <= 0xFFFFFFFF {
		crc := ^c.init ^ uint32(x)
		crc = castagnoli8[3][byte(crc)] ^
			castagnoli8[2][byte(crc>>8)] ^
			castagnoli8[1][byte(crc>>16)] ^
			castagnoli8[0][byte(crc>>24)]
		return uint64(^crc)
	}
	lo := ^c.init ^ uint32(x)
	hi := uint32(x >> 32)
	crc := castagnoli8[7][byte(lo)] ^
		castagnoli8[6][byte(lo>>8)] ^
		castagnoli8[5][byte(lo>>16)] ^
		castagnoli8[4][byte(lo>>24)] ^
		castagnoli8[3][byte(hi)] ^
		castagnoli8[2][byte(hi>>8)] ^
		castagnoli8[1][byte(hi>>16)] ^
		castagnoli8[0][byte(hi>>24)]
	return uint64(^crc)
}

// Hash64Batch hashes a block of keys with the slicing tables. The
// scalar path pays a width branch and an interface call per element;
// here the branch predicts from the block's actual distribution and the
// table lookups of neighbouring keys are independent, so they overlap.
// Output is bit-identical to element-wise Hash64.
func (c *CRC32C) Hash64Batch(dst, keys []uint64) {
	t := &castagnoli8
	pre := ^c.init
	dst = dst[:len(keys)]
	for i, x := range keys {
		if x <= 0xFFFFFFFF {
			crc := pre ^ uint32(x)
			dst[i] = uint64(^(t[3][byte(crc)] ^
				t[2][byte(crc>>8)] ^
				t[1][byte(crc>>16)] ^
				t[0][byte(crc>>24)]))
			continue
		}
		lo := pre ^ uint32(x)
		hi := uint32(x >> 32)
		dst[i] = uint64(^(t[7][byte(lo)] ^
			t[6][byte(lo>>8)] ^
			t[5][byte(lo>>16)] ^
			t[4][byte(lo>>24)] ^
			t[3][byte(hi)] ^
			t[2][byte(hi>>8)] ^
			t[1][byte(hi>>16)] ^
			t[0][byte(hi>>24)]))
	}
}
