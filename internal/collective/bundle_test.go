package collective

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// A gather bundle's words come off the wire. Each case is a bundle a
// faulty or hostile peer could send; the reproducer of the slice-bounds
// panic (a length word ≥ 2^63 went negative as an int and passed the
// bounds check) is the first.
func TestDecodeBundleRejectsMalformed(t *testing.T) {
	for name, flat := range map[string][]uint64{
		"length wraps negative":   {1, 0, ^uint64(0)},
		"rank out of range":       {1, 4, 0},
		"rank wraps negative":     {1, ^uint64(0), 0},
		"count beyond the words":  {3, 0, 0},
		"count wraps negative":    {^uint64(0), 0, 0},
		"truncated header":        {2, 0, 1, 7, 1},
		"part longer than bundle": {1, 0, 2, 7},
		"rank twice":              {2, 1, 0, 1, 0},
		"rank already gathered":   {1, 3, 0},
		"trailing words":          {1, 0, 0, 9},
		"empty":                   {},
	} {
		into := map[int][]uint64{3: {42}}
		if err := decodeBundle(flat, 4, into); !errors.Is(err, ErrBadBundle) {
			t.Errorf("%s: decodeBundle(%v) = %v, want ErrBadBundle", name, flat, err)
		}
	}
	into := map[int][]uint64{}
	if err := decodeBundle([]uint64{2, 2, 1, 7, 0, 0}, 4, into); err != nil {
		t.Fatalf("well-formed bundle rejected: %v", err)
	}
	if want := (map[int][]uint64{2: {7}, 0: nil}); !reflect.DeepEqual(into, want) {
		t.Fatalf("decoded %v, want %v", into, want)
	}
}

// FuzzDecodeBundle: any words either fail with ErrBadBundle or decode to
// parts with ranks in [0, p) that survive an encode/decode round trip.
// Never a panic.
func FuzzDecodeBundle(f *testing.F) {
	f.Add(U64sToBytes([]uint64{1, 0, ^uint64(0)}), uint8(4))
	f.Add(U64sToBytes([]uint64{2, 2, 1, 7, 0, 0}), uint8(4))
	f.Add(U64sToBytes(encodeBundle(map[int][]uint64{0: {1, 2}, 5: nil, 6: {9}})), uint8(8))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, p uint8) {
		flat, err := BytesToU64s(raw[:len(raw)&^7])
		if err != nil {
			t.Fatal(err)
		}
		got := map[int][]uint64{}
		if err := decodeBundle(flat, int(p), got); err != nil {
			if !errors.Is(err, ErrBadBundle) {
				t.Fatalf("decodeBundle failed with an unnamed error: %v", err)
			}
			return
		}
		for r := range got {
			if r < 0 || r >= int(p) {
				t.Fatalf("decoded rank %d outside [0, %d)", r, p)
			}
		}
		again := map[int][]uint64{}
		if err := decodeBundle(encodeBundle(got), int(p), again); err != nil {
			t.Fatalf("re-encoded bundle does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip changed the bundle: %v -> %v", got, again)
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
