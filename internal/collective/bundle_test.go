package collective

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"
)

// encodeParts is the bundle a subtree holding parts sends: appendPart
// over them in rank order.
func encodeParts(parts ...[]uint64) []uint64 {
	var flat []uint64
	for _, part := range parts {
		flat = appendPart(flat, part)
	}
	return flat
}

// A gather bundle's words come off the wire. Each case is a bundle a
// faulty or hostile peer could send to a parent expecting a two-rank
// subtree; the reproducer of the slice-bounds panic (a length word
// ≥ 2^63 went negative as an int and passed the bounds check) is the
// first.
func TestDecodeBundleRejectsMalformed(t *testing.T) {
	for name, flat := range map[string][]uint64{
		"length wraps negative":   {0, ^uint64(0)},
		"part longer than bundle": {0, 2, 7},
		"truncated second part":   {1, 7, 3, 1},
		"one part too few":        {1, 7},
		"one part too many":       {1, 7, 0, 0},
		"trailing word is a part": {0, 0, 9},
		"empty":                   {},
	} {
		if _, err := decodeBundle(flat, 2); !errors.Is(err, ErrBadBundle) {
			t.Errorf("%s: decodeBundle(%v, 2) = %v, want ErrBadBundle", name, flat, err)
		}
	}
	got, err := decodeBundle([]uint64{1, 7, 0, 2, 8, 9}, 3)
	if err != nil {
		t.Fatalf("well-formed bundle rejected: %v", err)
	}
	if want := [][]uint64{{7}, {}, {8, 9}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
	if got, err := decodeBundle(nil, 0); err != nil || len(got) != 0 {
		t.Fatalf("empty bundle of an empty subtree: %v, %v", got, err)
	}
}

// FuzzDecodeBundle: any words and any expected entry count either fail
// with ErrBadBundle or decode to exactly that many parts whose encoding
// is the input, word for word — the format has one encoding per list of
// parts. Never a panic.
func FuzzDecodeBundle(f *testing.F) {
	f.Add(U64sToBytes([]uint64{0, ^uint64(0)}), uint8(2))
	f.Add(U64sToBytes([]uint64{1, 7, 0, 2, 8, 9}), uint8(3))
	f.Add(U64sToBytes(encodeParts([]uint64{1, 2}, nil, []uint64{9})), uint8(8)) // wrong entry count
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, want uint8) {
		flat, err := BytesToU64s(raw[:len(raw)&^7])
		if err != nil {
			t.Fatal(err)
		}
		parts, err := decodeBundle(flat, int(want))
		if err != nil {
			if !errors.Is(err, ErrBadBundle) {
				t.Fatalf("decodeBundle failed with an unnamed error: %v", err)
			}
			return
		}
		if len(parts) != int(want) {
			t.Fatalf("decoded %d parts, want %d", len(parts), want)
		}
		if again := encodeParts(parts...); !slices.Equal(again, flat) {
			t.Fatalf("round trip changed the bundle: %v -> %v", flat, again)
		}
	})
}

// FuzzBytesToU64s: a payload is rejected exactly when it is not whole
// words, and otherwise round-trips. Never a panic.
func FuzzBytesToU64s(f *testing.F) {
	f.Add(U64sToBytes([]uint64{1, 0, ^uint64(0)}))
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		words, err := BytesToU64s(raw)
		if (err != nil) != (len(raw)%8 != 0) {
			t.Fatalf("BytesToU64s(%d bytes) error = %v", len(raw), err)
		}
		if err == nil && !bytes.Equal(U64sToBytes(words), raw) {
			t.Fatalf("round trip changed the payload: % x -> %v", raw, words)
		}
	})
}
