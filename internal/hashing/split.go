package hashing

import "math/bits"

// The sum-aggregation checker runs several independent instances per
// element. Section 7.1 describes the bit-parallel optimisation: compute
// one wide hash value and partition it into c groups of ceil(log d) bits,
// treating each group as the output of a separate hash function. Splitter
// implements that partition for power-of-two bucket counts (all of the
// paper's Table 3 configurations); for general d the checker falls back
// to one hash evaluation per instance.

// Splitter partitions hash values into fixed-width bit groups: the
// layout the sum checker's bucket indices take (core's bucketOf and the
// kernel's lane shifts read the bits themselves).
type Splitter struct {
	perHash   int // groups extractable from one hash value
	instances int
}

// NewSplitter returns a splitter for `instances` groups of log2(d) bits
// taken from hash values with hashBits significant bits. d must be a
// power of two and at least 2.
func NewSplitter(d, instances, hashBits int) Splitter {
	if d < 2 || d&(d-1) != 0 {
		panic("hashing: NewSplitter requires a power-of-two bucket count >= 2")
	}
	return Splitter{perHash: hashBits / bits.TrailingZeros(uint(d)), instances: instances}
}

// HashesNeeded reports how many hash evaluations cover all instances.
func (s Splitter) HashesNeeded() int {
	return (s.instances + s.perHash - 1) / s.perHash
}

// PerHash returns how many groups fit in one hash value.
func (s Splitter) PerHash() int { return s.perHash }

// IsPow2 reports whether d is a power of two (and >= 2), i.e. whether the
// bit-parallel path applies.
func IsPow2(d int) bool { return d >= 2 && d&(d-1) == 0 }
