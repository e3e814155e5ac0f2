package hashing

import "math/bits"

// The sum-aggregation checker runs several independent instances per
// element. Section 7.1 describes the bit-parallel optimisation: compute
// one wide hash value and partition it into c groups of ceil(log d) bits,
// treating each group as the output of a separate hash function. Splitter
// implements that partition for power-of-two bucket counts (all of the
// paper's Table 3 configurations); for general d the checker falls back
// to one hash evaluation per instance.

// Splitter partitions hash values into fixed-width bit groups.
type Splitter struct {
	width     int // bits per group
	mask      uint64
	perHash   int // groups extractable from one hash value
	hashBits  int
	instances int
}

// NewSplitter returns a splitter for `instances` groups of log2(d) bits
// taken from hash values with hashBits significant bits. d must be a
// power of two and at least 2.
func NewSplitter(d, instances, hashBits int) Splitter {
	if d < 2 || d&(d-1) != 0 {
		panic("hashing: NewSplitter requires a power-of-two bucket count >= 2")
	}
	width := bits.TrailingZeros(uint(d))
	return Splitter{
		width:     width,
		mask:      uint64(d - 1),
		perHash:   hashBits / width,
		hashBits:  hashBits,
		instances: instances,
	}
}

// HashesNeeded reports how many hash evaluations cover all instances.
func (s Splitter) HashesNeeded() int {
	return (s.instances + s.perHash - 1) / s.perHash
}

// Group extracts the bucket index of instance i from the hash values in
// hs (one uint64 per needed hash evaluation, in order).
func (s Splitter) Group(hs []uint64, i int) uint64 {
	h := hs[i/s.perHash]
	shift := (i % s.perHash) * s.width
	return (h >> shift) & s.mask
}

// PerHash returns how many groups fit in one hash value.
func (s Splitter) PerHash() int { return s.perHash }

// IsPow2 reports whether d is a power of two (and >= 2), i.e. whether the
// bit-parallel path applies.
func IsPow2(d int) bool { return d >= 2 && d&(d-1) == 0 }
