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
	words := spanWords(w.tr.SpansOf(w.Endpoint().Rank()))
	parts, err := w.Coll.Gather(words)
	if err != nil {
		return nil, fmt.Errorf("dist: span gather: %w", err)
	}
	if parts == nil {
		return nil, nil
	}
	return decodeSpanParts(parts)
}

// spanWords packs spans into the word payload the collectives carry:
// the EncodeSpans blob, led by a word holding its exact byte length
// under the padding.
func spanWords(spans []obs.Span) []uint64 {
	blob := obs.EncodeSpans(spans)
	words := make([]uint64, 1+(len(blob)+7)/8)
	words[0] = uint64(len(blob))
	var chunk [8]byte
	for i := range words[1:] {
		n := copy(chunk[:], blob[i*8:])
		clear(chunk[n:])
		words[1+i] = binary.LittleEndian.Uint64(chunk[:])
	}
	return words
}

// decodeSpanParts unpacks the gathered word parts, one per rank, and
// merges their spans in start order. The words are the peers', so a
// part's leading byte length is checked against what the part carries
// before it is used.
func decodeSpanParts(parts [][]uint64) ([]obs.Span, error) {
	var groups [][]obs.Span
	for r, ws := range parts {
		if len(ws) == 0 {
			continue
		}
		buf := make([]byte, 8*(len(ws)-1))
		for i, x := range ws[1:] {
			binary.LittleEndian.PutUint64(buf[i*8:], x)
		}
		n := ws[0]
		if n > uint64(len(buf)) {
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
