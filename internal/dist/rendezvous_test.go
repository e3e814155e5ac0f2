package dist

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestRendezvousLyingBookStaysSmall feeds decodeBook a 4-byte BOOK
// payload that claims 2^32-1 entries and holds none. Any process that
// reaches the port can send one — the frame checksum is unkeyed — so
// the decoder must fail without allocating for the claim. Measured on
// one P with the collector held off, like a warmed call.
func TestRendezvousLyingBookStaysSmall(t *testing.T) {
	payload := binary.LittleEndian.AppendUint32(nil, 1<<32-1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeBook(payload)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a BOOK claiming 2^32-1 entries in 4 bytes decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 4<<10 {
		t.Errorf("decodeBook allocated %d bytes for a 4-byte payload claiming 2^32-1 entries, want < 4 KiB", n)
	}
}

// FuzzRendezvousDecoders feeds the same bytes to both decoders of the
// bootstrap plane: a REGISTER and a BOOK payload. Each either errors or
// decodes to what its encoder turns back into the same bytes, and
// neither panics.
func FuzzRendezvousDecoders(f *testing.F) {
	f.Add(encodeRegister(3, 8, "10.0.0.3:9000"))
	f.Add(encodeBook([]string{"a:1", "", "host.example:65535"}))
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<32-1))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if rank, p, addr, err := decodeRegister(payload); err == nil {
			if got := encodeRegister(rank, p, addr); !bytes.Equal(got, payload) {
				t.Fatalf("REGISTER %x decodes to (%d, %d, %q), which encodes to %x", payload, rank, p, addr, got)
			}
		}
		if addrs, err := decodeBook(payload); err == nil {
			if got := encodeBook(addrs); !bytes.Equal(got, payload) {
				t.Fatalf("BOOK %x decodes to %q, which encodes to %x", payload, addrs, got)
			}
		}
	})
}
