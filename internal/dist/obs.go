package dist

import (
	"encoding/binary"
	"fmt"

	"repro/internal/obs"
)

// GatherSpans collects every rank's recorded spans at rank 0 over the
// existing collectives and returns them merged in start order (nil on
// non-root ranks). In-process transports share one tracer, so rank 0
// could read everything locally; the gather is what makes traces work
// across processes (comm.TCPNode), where each process's tracer holds
// only its own rank's rings. Like any collective, all PEs must call
// it at the same point of their program; a worker without a tracer
// contributes an empty ring.
func GatherSpans(w *Worker) ([]obs.Span, error) {
	local := w.tr.SpansOf(w.Endpoint().Rank())
	blob := obs.EncodeSpans(local)
	// Pack the byte blob into the word payloads the collectives carry:
	// the leading word holds the exact byte length under the padding.
	words := make([]uint64, 1+(len(blob)+7)/8)
	words[0] = uint64(len(blob))
	var chunk [8]byte
	for i := range words[1:] {
		n := copy(chunk[:], blob[i*8:])
		for j := n; j < 8; j++ {
			chunk[j] = 0
		}
		words[1+i] = binary.LittleEndian.Uint64(chunk[:])
	}
	parts, err := w.Coll.Gather(words)
	if err != nil {
		return nil, fmt.Errorf("dist: span gather: %w", err)
	}
	if parts == nil {
		return nil, nil
	}
	var groups [][]obs.Span
	for r, ws := range parts {
		if len(ws) == 0 {
			continue
		}
		n := int(ws[0])
		buf := make([]byte, 8*(len(ws)-1))
		for i, x := range ws[1:] {
			binary.LittleEndian.PutUint64(buf[i*8:], x)
		}
		if n > len(buf) {
			return nil, fmt.Errorf("dist: span blob from rank %d claims %d bytes, carried %d", r, n, len(buf))
		}
		spans, err := obs.DecodeSpans(buf[:n])
		if err != nil {
			return nil, fmt.Errorf("dist: span blob from rank %d: %w", r, err)
		}
		groups = append(groups, spans)
	}
	return obs.Merge(groups...), nil
}
