package obs

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestDecodeSpansLyingCountStaysSmall feeds DecodeSpans a 4-byte blob
// that claims 2^28-1 spans and holds none. Span blobs reach the decoder
// from peers (dist.GatherSpans), so it must fail without allocating for
// the claim. Measured on one P with the collector held off, like a
// warmed call.
func TestDecodeSpansLyingCountStaysSmall(t *testing.T) {
	blob := binary.LittleEndian.AppendUint32(nil, 0x0fffffff)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeSpans(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a blob claiming 2^28-1 spans in 4 bytes decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 4<<10 {
		t.Errorf("DecodeSpans allocated %d bytes for a 4-byte blob claiming 2^28-1 spans, want < 4 KiB", n)
	}
}

// TestDecodeSpansRejectsTrailingBytes: a blob holds exactly the spans
// its count names; more bytes are an error, not silently dropped.
func TestDecodeSpansRejectsTrailingBytes(t *testing.T) {
	blob := append(EncodeSpans([]Span{{Rank: 1, Name: "x"}}), 0)
	if _, err := DecodeSpans(blob); err == nil {
		t.Error("a blob with a byte after its last span decoded")
	}
}

// FuzzDecodeSpans: every blob either errors or decodes to spans that
// EncodeSpans turns back into the same bytes, and none panics.
func FuzzDecodeSpans(f *testing.F) {
	f.Add(EncodeSpans(nil))
	f.Add(EncodeSpans([]Span{
		{Rank: 3, Kind: KindRecvWait, Job: -1, Tag: 1 << 40, Name: "recv", StartNs: -5, EndNs: 5},
		{Rank: 0, Kind: KindStage, Name: ""},
	}))
	f.Add(binary.LittleEndian.AppendUint32(nil, 0x0fffffff))
	f.Fuzz(func(t *testing.T, blob []byte) {
		spans, err := DecodeSpans(blob)
		if err != nil {
			return
		}
		if got := EncodeSpans(spans); !bytes.Equal(got, blob) {
			t.Fatalf("blob %x decodes to %+v, which encodes to %x", blob, spans, got)
		}
	})
}
