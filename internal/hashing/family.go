package hashing

import "fmt"

// Hasher is one concrete hash function drawn from a Family.
type Hasher interface {
	// Hash64 maps a 64-bit input to a hash value. Only the low
	// Family.Bits bits are significant; higher bits are zero for 32-bit
	// families.
	Hash64(x uint64) uint64
	// Hash64Batch hashes keys element-wise into dst (dst[i] =
	// Hash64(keys[i])); len(dst) must be >= len(keys). Implementations
	// specialise the inner loop — no per-element interface dispatch,
	// hoisted table pointers, unrolling — so the checker hot loops
	// consume blocks of keys at a fraction of the scalar cost.
	Hash64Batch(dst, keys []uint64)
}

// Family is a keyed family of hash functions. Checker iterations draw
// independent members via New with distinct seeds.
type Family struct {
	// Name is the identifier used in the paper's plots (CRC, Tab, Tab64,
	// Mix).
	Name string
	// New returns the family member keyed by seed.
	New func(seed uint64) Hasher
	// Bits is the output width of members of this family.
	Bits int
}

// mixHasher is the ideal "random hash function" model of Section 2:
// a strong keyed mixer whose outputs we treat as uniform. It is also the
// cheapest family, so it doubles as the default for the framework's own
// hash partitioning.
type mixHasher struct {
	key uint64
}

func (m mixHasher) Hash64(x uint64) uint64 { return Mix64(x ^ m.key) }

// Hash64Batch mixes a block of keys. The loop is 4-way unrolled: each
// Mix64 is a short multiply/shift dependency chain, so independent
// lanes keep the multiplier busy.
func (m mixHasher) Hash64Batch(dst, keys []uint64) {
	k := m.key
	dst = dst[:len(keys)]
	i := 0
	for ; i+4 <= len(keys); i += 4 {
		dst[i] = Mix64(keys[i] ^ k)
		dst[i+1] = Mix64(keys[i+1] ^ k)
		dst[i+2] = Mix64(keys[i+2] ^ k)
		dst[i+3] = Mix64(keys[i+3] ^ k)
	}
	for ; i < len(keys); i++ {
		dst[i] = Mix64(keys[i] ^ k)
	}
}

// Families indexed by name. CRC: hardware-polynomial CRC-32C; Tab:
// byte-wise tabulation with 32-bit output; Tab64: tabulation with 64-bit
// output; Mix: ideal keyed mixer.
var (
	FamilyCRC = Family{
		Name: "CRC",
		New:  func(seed uint64) Hasher { return NewCRC32C(seed) },
		Bits: 32,
	}
	FamilyTab = Family{
		Name: "Tab",
		New:  func(seed uint64) Hasher { return NewTabulation32(seed) },
		Bits: 32,
	}
	FamilyTab64 = Family{
		Name: "Tab64",
		New:  func(seed uint64) Hasher { return NewTabulation64(seed) },
		Bits: 64,
	}
	FamilyMix = Family{
		Name: "Mix",
		New:  func(seed uint64) Hasher { return mixHasher{key: Mix64(seed)} },
		Bits: 64,
	}
)

// FamilyByName resolves the plot names used throughout the experiments.
func FamilyByName(name string) (Family, error) {
	switch name {
	case "CRC":
		return FamilyCRC, nil
	case "Tab":
		return FamilyTab, nil
	case "Tab64":
		return FamilyTab64, nil
	case "Mix":
		return FamilyMix, nil
	}
	return Family{}, fmt.Errorf("hashing: unknown hash family %q", name)
}
