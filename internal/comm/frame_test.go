package comm

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestFrameRoundTrip property-tests the codec: random (src, tag,
// payload) triples — including negative tags, the collectives' high
// user-tag space, empty and multi-buffer payloads — must decode to
// exactly what was encoded, streamed back to back.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sizes := []int{0, 1, 7, 8, 255, 4096, tcpBufSize - 1, tcpBufSize, tcpBufSize + 1, 3 * tcpBufSize}
	var msgs []Message
	for trial := 0; trial < 200; trial++ {
		var payload []byte
		if n := sizes[trial%len(sizes)]; n > 0 {
			payload = make([]byte, n)
			rng.Read(payload)
		}
		tag := int(rng.Int63()) - (1 << 62)
		if trial%5 == 0 {
			tag = 1<<30 + rng.Intn(1000) // user-tag space
		}
		msgs = append(msgs, Message{Src: rng.Intn(1 << 20), Tag: tag, Payload: payload})
	}

	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, tcpBufSize)
	for _, m := range msgs {
		if err := writeFrame(bw, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(&buf, tcpBufSize)
	for i, want := range msgs {
		got, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Src != want.Src || got.Tag != want.Tag || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch: src %d/%d tag %d/%d len %d/%d",
				i, got.Src, want.Src, got.Tag, want.Tag, len(got.Payload), len(want.Payload))
		}
	}
	if _, err := readFrame(br); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

// TestFrameAppendMatchesWrite pins appendFrame and writeFrame to the
// same wire bytes.
func TestFrameAppendMatchesWrite(t *testing.T) {
	m := Message{Src: 3, Tag: -42, Payload: []byte("payload")}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrame(bw, m); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if got := appendFrame(nil, m); !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("appendFrame %x != writeFrame %x", got, buf.Bytes())
	}
}

// TestFrameNilPayload checks that a zero-length payload survives as nil
// (the barrier sends nil payloads).
func TestFrameNilPayload(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrame(bw, Message{Src: 1, Tag: 2}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	got, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload != nil {
		t.Fatalf("nil payload decoded as %v", got.Payload)
	}
}

// TestFrameRejectsOversizedLength feeds a corrupted length prefix and
// expects a framing error before any payload allocation.
func TestFrameRejectsOversizedLength(t *testing.T) {
	huge := appendFrame(nil, Message{Src: 0, Tag: 0})
	// Rewrite the length varint: src=0, tag=0, then a length far past
	// maxFramePayload.
	huge = huge[:2]
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
}

// TestFrameLyingLengthStaysSmall feeds a frame whose length prefix
// claims 1 GiB but which carries 10 payload bytes before the stream
// ends: readFrame must fail without allocating for the claim. Measured
// on one P with the collector held off, like a warmed call.
func TestFrameLyingLengthStaysSmall(t *testing.T) {
	frame := appendHeader(nil, Message{Src: 1, Tag: 2, Payload: make([]byte, 1<<30)})
	frame = append(frame, make([]byte, 10)...)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("1 GiB claim with 10 bytes: got %v, want io.ErrUnexpectedEOF", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 4<<20 {
		t.Errorf("readFrame allocated %d bytes for a 10-byte payload claiming 1 GiB, want < 4 MiB", n)
	}
}

// TestFrameTruncatedStream checks that a frame cut off mid-payload
// reports an error rather than blocking or fabricating data.
func TestFrameTruncatedStream(t *testing.T) {
	full := appendFrame(nil, Message{Src: 1, Tag: 9, Payload: make([]byte, 100)})
	_, err := readFrame(bufio.NewReader(bytes.NewReader(full[:len(full)-10])))
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// FuzzFrameRoundTrip fuzzes the codec over arbitrary header values and
// payload contents.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(0, 0, []byte(nil))
	f.Add(7, -3, []byte("abc"))
	f.Add(1<<20, 1<<30, bytes.Repeat([]byte{0xee}, 5000))
	f.Fuzz(func(t *testing.T, src, tag int, payload []byte) {
		if src < 0 {
			src = -src
		}
		m := Message{Src: src, Tag: tag, Payload: payload}
		br := bufio.NewReader(bytes.NewReader(appendFrame(nil, m)))
		got, err := readFrame(br)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Src != m.Src || got.Tag != m.Tag || !bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
		}
	})
}
