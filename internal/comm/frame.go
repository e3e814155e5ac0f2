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
// needs no out-of-band length, and a corrupted length prefix costs at
// most frameChunk bytes of allocation before the stream gives it away.

// maxFramePayload bounds a single frame's payload: a length prefix
// beyond it is a framing error before any allocation. Real payloads
// (checker states, collective bundles) are orders of magnitude smaller.
const maxFramePayload = 1 << 31

// frameChunk is what readFrame takes for a payload before any of it has
// arrived: a buffer from the payload pool, whose largest class it is. A
// longer payload grows by doubling as its bytes come in, so a length
// prefix that lies — corrupted, or sent by a faulty peer — costs at most
// twice the bytes actually received, plus frameChunk.
const frameChunk = 1 << maxPayloadShift

// frameHeaderMax is the worst-case encoded header size.
const frameHeaderMax = 3 * binary.MaxVarintLen64

// appendHeader appends the frame header of m to dst.
func appendHeader(dst []byte, m Message) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Src))
	dst = binary.AppendVarint(dst, int64(m.Tag))
	return binary.AppendUvarint(dst, uint64(len(m.Payload)))
}

// appendFrame appends the wire encoding of one message to dst and
// returns the extended slice.
func appendFrame(dst []byte, m Message) []byte {
	return append(appendHeader(dst, m), m.Payload...)
}

// writeFrame encodes one message into w. The header is encoded straight
// into the writer's free buffer (flushed first if it cannot hold the
// longest header), so it costs no allocation, and coalesces with small
// payloads into a single socket write; large payloads stream through
// without an extra copy. The caller owns flushing.
func writeFrame(w *bufio.Writer, m Message) error {
	if w.Available() < frameHeaderMax {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	if _, err := w.Write(appendHeader(w.AvailableBuffer(), m)); err != nil {
		return err
	}
	_, err := w.Write(m.Payload)
	return err
}

// readFrame decodes the next message from r into a payload from the
// pool, which the receiver may hand back (PutPayload) once it has read
// it. A zero-length payload decodes as nil. Errors are the reader's raw
// errors (io.EOF at a clean stream end, io.ErrUnexpectedEOF inside a
// frame) or a framing error for an over-limit length.
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
		payload = GetPayload(int(min(ln, frameChunk)))
		for read := 0; ; {
			n, err := io.ReadFull(r, payload[read:])
			if read += n; err != nil {
				PutPayload(payload)
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return Message{}, err
			}
			if uint64(read) == ln {
				break
			}
			payload = append(payload, make([]byte, min(ln-uint64(read), uint64(read)))...)
		}
	}
	return Message{Src: int(src), Tag: int(tag), Payload: payload}, nil
}
