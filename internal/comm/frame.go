package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The TCP transport's wire format: one frame per message,
//
//	uvarint src | varint tag | uvarint len | len payload bytes
//
// Varint headers cost 3 bytes for the typical small-src/small-tag/
// short-payload case and never more than 30, with no reflection or
// type metadata on the wire. A frame is self-delimiting, so a reader
// needs no out-of-band length and a corrupted length prefix is caught
// by maxFramePayload before any allocation.

// maxFramePayload bounds a single frame's payload. It exists to turn a
// corrupted or malicious length prefix into an error instead of a
// multi-gigabyte allocation; real payloads (checker states, collective
// bundles) are orders of magnitude smaller.
const maxFramePayload = 1 << 31

// frameHeaderMax is the worst-case encoded header size.
const frameHeaderMax = 3 * binary.MaxVarintLen64

// appendFrame appends the wire encoding of one message to dst and
// returns the extended slice.
func appendFrame(dst []byte, m Message) []byte {
	var hdr [frameHeaderMax]byte
	n := binary.PutUvarint(hdr[:], uint64(m.Src))
	n += binary.PutVarint(hdr[n:], int64(m.Tag))
	n += binary.PutUvarint(hdr[n:], uint64(len(m.Payload)))
	dst = append(dst, hdr[:n]...)
	return append(dst, m.Payload...)
}

// writeFrame encodes one message into w. The bufio.Writer coalesces the
// header with small payloads into a single socket write; large payloads
// stream through without an extra copy. The caller owns flushing.
func writeFrame(w *bufio.Writer, m Message) error {
	var hdr [frameHeaderMax]byte
	n := binary.PutUvarint(hdr[:], uint64(m.Src))
	n += binary.PutVarint(hdr[n:], int64(m.Tag))
	n += binary.PutUvarint(hdr[n:], uint64(len(m.Payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(m.Payload)
	return err
}

// readFrame decodes the next message from r. A zero-length payload
// decodes as nil. Errors are the reader's raw errors (io.EOF at a clean
// stream end) or a framing error for an over-limit length.
func readFrame(r *bufio.Reader) (Message, error) {
	src, err := binary.ReadUvarint(r)
	if err != nil {
		return Message{}, err
	}
	tag, err := binary.ReadVarint(r)
	if err != nil {
		return Message{}, err
	}
	ln, err := binary.ReadUvarint(r)
	if err != nil {
		return Message{}, err
	}
	if ln > maxFramePayload {
		return Message{}, fmt.Errorf("comm: frame payload length %d exceeds limit %d", ln, int64(maxFramePayload))
	}
	var payload []byte
	if ln > 0 {
		payload = make([]byte, ln)
		if _, err := io.ReadFull(r, payload); err != nil {
			return Message{}, err
		}
	}
	return Message{Src: int(src), Tag: int(tag), Payload: payload}, nil
}
