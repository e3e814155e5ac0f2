package dist

import (
	"testing"

	"repro/internal/obs"
)

// TestSpanPartsHugeLengthWord feeds the span decoder a part whose
// leading length word is 2^63: read as an int it would turn negative,
// pass the bounds check and panic at the slice. It must be an error.
func TestSpanPartsHugeLengthWord(t *testing.T) {
	if _, err := decodeSpanParts([][]uint64{{1 << 63, 0}}); err == nil {
		t.Error("a span part claiming 2^63 bytes decoded")
	}
}

// TestSpanPartsRoundTrip: parts packed as GatherSpans packs them decode
// to every rank's spans, merged in start order.
func TestSpanPartsRoundTrip(t *testing.T) {
	in := [][]obs.Span{
		{{Rank: 0, Kind: obs.KindStage, Name: "sort#0", StartNs: 10, EndNs: 20}},
		nil,
		{{Rank: 2, Kind: obs.KindResolve, Name: "resolve", StartNs: 5, EndNs: 30}},
	}
	parts := make([][]uint64, len(in))
	for r, spans := range in {
		parts[r] = spanWords(spans)
	}
	got, err := decodeSpanParts(parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Rank != 2 || got[1].Rank != 0 {
		t.Errorf("decoded %+v, want rank 2's span then rank 0's", got)
	}
}
