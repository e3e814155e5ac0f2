// Package manipulate implements the fault injectors of the paper's
// experiments: the sum-aggregation manipulators of Table 4 and the
// permutation/sort manipulators of Table 6. "Manipulators are a flexible
// way to introduce a wide variety of classes of faults … our
// manipulators focus on [subtle changes] in the data" (Section 7).
//
// Every manipulator guarantees that the manipulated data actually
// differs — in a way that changes the checked operation's result — from
// the original, so measured acceptance really is a checker failure and
// not a vacuous no-op fault. Manipulators retry a bounded number of
// times to achieve this and report whether they succeeded.
package manipulate

import (
	"repro/internal/data"
	"repro/internal/hashing"
)

// maxAttempts bounds the retries used to find an effective fault.
const maxAttempts = 64

// PairManipulator corrupts a (key, value) input in place.
type PairManipulator struct {
	// Name and Desc as listed in Table 4.
	Name, Desc string
	// Apply injects one fault. keyUniverse is the key domain 1..U used
	// by RandKey. It reports whether an effective fault was injected.
	Apply func(ps []data.Pair, rng *hashing.MT19937_64, keyUniverse uint64) bool
}

// SeqManipulator corrupts a plain element sequence in place.
type SeqManipulator struct {
	// Name and Desc as listed in Table 6.
	Name, Desc string
	// Apply injects one fault; valueUniverse is the element domain
	// 0..U-1 used by Randomize. It reports success.
	Apply func(xs []uint64, rng *hashing.MT19937_64, valueUniverse uint64) bool
}

// PairManipulators returns the Table 4 set. IncDec is instantiated for
// n = 1 and n = 2 as in the paper (IncDec1, IncDec2).
func PairManipulators() []PairManipulator {
	return []PairManipulator{
		{"Bitflip", "flips a random bit in the input", pairBitflip},
		{"RandKey", "randomises the key of a random element", pairRandKey},
		{"SwitchValues", "switches the values of two random elements", pairSwitchValues},
		{"IncKey", "increments the key of a random element", pairIncKey},
		{"IncDec1", "increments one key, decrements another (n=1)", incDecN(1)},
		{"IncDec2", "increments two keys, decrements two others (n=2)", incDecN(2)},
	}
}

// SeqManipulators returns the Table 6 set.
func SeqManipulators() []SeqManipulator {
	return []SeqManipulator{
		{"Bitflip", "flips a random bit in the input", seqBitflip},
		{"Increment", "increments some element's value", seqIncrement},
		{"Randomize", "sets some element to a random value", seqRandomize},
		{"Reset", "resets some element to the default value (0)", seqReset},
		{"SetEqual", "sets some element equal to a different one", seqSetEqual},
	}
}

// Rectangle, a structured fault outside Table 6, swaps one byte
// position between two elements: {a1b1, a2b2} becomes {a1b2, a2b1}, as
// in a radix sort that takes one element's digit from another. Simple
// tabulation hashes the four values to an XOR of zero under every
// table, so a hash sum lets it through far above its delta.
var Rectangle = SeqManipulator{"Rectangle", "swaps one byte position between two elements", seqRectangle}

// pairBitflip flips a random bit of a random element. A flipped key bit
// moves a value between keys; a flipped value bit changes a sum — both
// change the aggregation provided the element's value is nonzero (for
// key bits) or trivially (for value bits).
func pairBitflip(ps []data.Pair, rng *hashing.MT19937_64, _ uint64) bool {
	if len(ps) == 0 {
		return false
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		i := int(rng.Uint64n(uint64(len(ps))))
		bit := rng.Uint64n(128)
		if bit < 64 {
			if ps[i].Value == 0 {
				continue // moving a zero between keys changes no sum
			}
			ps[i].Key ^= 1 << bit
		} else {
			ps[i].Value ^= 1 << (bit - 64)
		}
		return true
	}
	return false
}

// pairRandKey assigns a random (different) key from the universe to a
// random element with nonzero value.
func pairRandKey(ps []data.Pair, rng *hashing.MT19937_64, keyUniverse uint64) bool {
	if len(ps) == 0 || keyUniverse < 2 {
		return false
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		i := int(rng.Uint64n(uint64(len(ps))))
		if ps[i].Value == 0 {
			continue
		}
		k := 1 + rng.Uint64n(keyUniverse)
		if k == ps[i].Key {
			continue
		}
		ps[i].Key = k
		return true
	}
	return false
}

// pairSwitchValues swaps the values of two random elements with
// different keys and different values.
func pairSwitchValues(ps []data.Pair, rng *hashing.MT19937_64, _ uint64) bool {
	if len(ps) < 2 {
		return false
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		i := int(rng.Uint64n(uint64(len(ps))))
		j := int(rng.Uint64n(uint64(len(ps))))
		if i == j || ps[i].Key == ps[j].Key || ps[i].Value == ps[j].Value {
			continue
		}
		ps[i].Value, ps[j].Value = ps[j].Value, ps[i].Value
		return true
	}
	return false
}

// pairIncKey increments the key of a random element with nonzero value.
func pairIncKey(ps []data.Pair, rng *hashing.MT19937_64, _ uint64) bool {
	if len(ps) == 0 {
		return false
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		i := int(rng.Uint64n(uint64(len(ps))))
		if ps[i].Value == 0 {
			continue
		}
		ps[i].Key++
		return true
	}
	return false
}

// incDecN acts on 2n elements with distinct keys and nonzero values,
// incrementing the keys of n of them and decrementing the keys of the
// other n (Table 4, IncDec_n) — a fault crafted so that per-key count
// sums shift between neighbouring keys in compensating pairs, the
// hardest case for weak hash functions.
func incDecN(n int) func(ps []data.Pair, rng *hashing.MT19937_64, _ uint64) bool {
	return func(ps []data.Pair, rng *hashing.MT19937_64, _ uint64) bool {
		if len(ps) < 2*n {
			return false
		}
		for attempt := 0; attempt < maxAttempts; attempt++ {
			chosen := make(map[uint64]int, 2*n) // key -> element index
			idx := make([]int, 0, 2*n)
			tries := 0
			for len(idx) < 2*n && tries < 16*n+64 {
				tries++
				i := int(rng.Uint64n(uint64(len(ps))))
				if ps[i].Value == 0 {
					continue
				}
				if _, dup := chosen[ps[i].Key]; dup {
					continue
				}
				chosen[ps[i].Key] = i
				idx = append(idx, i)
			}
			if len(idx) < 2*n {
				continue
			}
			for j := 0; j < n; j++ {
				ps[idx[j]].Key++
			}
			for j := n; j < 2*n; j++ {
				ps[idx[j]].Key--
			}
			return true
		}
		return false
	}
}

// seqBitflip flips a random bit of a random element.
func seqBitflip(xs []uint64, rng *hashing.MT19937_64, _ uint64) bool {
	if len(xs) == 0 {
		return false
	}
	i := int(rng.Uint64n(uint64(len(xs))))
	xs[i] ^= 1 << rng.Uint64n(64)
	return true
}

// seqIncrement increments a random element by one — the off-by-one
// fault the paper found CRC-32C to miss disproportionately often.
func seqIncrement(xs []uint64, rng *hashing.MT19937_64, _ uint64) bool {
	if len(xs) == 0 {
		return false
	}
	i := int(rng.Uint64n(uint64(len(xs))))
	xs[i]++
	return true
}

// seqRandomize sets a random element to a random (different) value of
// the universe.
func seqRandomize(xs []uint64, rng *hashing.MT19937_64, universe uint64) bool {
	if len(xs) == 0 || universe < 2 {
		return false
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		i := int(rng.Uint64n(uint64(len(xs))))
		v := rng.Uint64n(universe)
		if v == xs[i] {
			continue
		}
		xs[i] = v
		return true
	}
	return false
}

// seqReset sets a random nonzero element to the default value 0.
func seqReset(xs []uint64, rng *hashing.MT19937_64, _ uint64) bool {
	if len(xs) == 0 {
		return false
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		i := int(rng.Uint64n(uint64(len(xs))))
		if xs[i] == 0 {
			continue
		}
		xs[i] = 0
		return true
	}
	return false
}

// seqSetEqual sets a random element equal to a different element with a
// different value.
func seqSetEqual(xs []uint64, rng *hashing.MT19937_64, _ uint64) bool {
	if len(xs) < 2 {
		return false
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		i := int(rng.Uint64n(uint64(len(xs))))
		j := int(rng.Uint64n(uint64(len(xs))))
		if i == j || xs[i] == xs[j] {
			continue
		}
		xs[i] = xs[j]
		return true
	}
	return false
}

// seqRectangle swaps a random byte position between two elements that
// differ in it and elsewhere: otherwise the multiset would not change.
func seqRectangle(xs []uint64, rng *hashing.MT19937_64, _ uint64) bool {
	if len(xs) < 2 {
		return false
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		i := int(rng.Uint64n(uint64(len(xs))))
		j := int(rng.Uint64n(uint64(len(xs))))
		byteMask := uint64(0xff) << (8 * rng.Uint64n(8))
		if d := xs[i] ^ xs[j]; d&byteMask == 0 || d&^byteMask == 0 {
			continue
		}
		xs[i], xs[j] = xs[i]&^byteMask|xs[j]&byteMask, xs[j]&^byteMask|xs[i]&byteMask
		return true
	}
	return false
}

// ChangesAggregation reports whether the manipulated pairs produce a
// different sum aggregation than the original — the effectiveness
// criterion for Table 4 faults (used by tests and the harness to audit
// manipulators).
func ChangesAggregation(original, manipulated []data.Pair) bool {
	a := data.PairsToMapSum(original)
	b := data.PairsToMapSum(manipulated)
	if len(a) != len(b) {
		return true
	}
	for k, v := range a {
		if b[k] != v {
			return true
		}
	}
	return false
}

// ChangesMultiset reports whether the manipulated sequence differs from
// the original as a multiset — the effectiveness criterion for Table 6
// faults.
func ChangesMultiset(original, manipulated []uint64) bool {
	counts := make(map[uint64]int, len(original))
	for _, x := range original {
		counts[x]++
	}
	for _, x := range manipulated {
		counts[x]--
	}
	for _, c := range counts {
		if c != 0 {
			return true
		}
	}
	return false
}
