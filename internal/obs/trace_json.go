package obs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one Chrome trace_event "complete" (ph "X") event.
// pid is the rank, so chrome://tracing / Perfetto render one process
// group per PE; tid is a per-job lane, with resolve on a
// sibling lane (2·job+1) so it shows as its own track beside the
// collectives they run.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Pid  int64            `json:"pid"`
	Tid  int64            `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int64             `json:"pid"`
	Args map[string]string `json:"args"`
}

// chromeTrace is the top-level document: the object form with a
// traceEvents array, which both chrome://tracing and Perfetto accept.
type chromeTrace struct {
	TraceEvents []json.RawMessage `json:"traceEvents"`
	Unit        string            `json:"displayTimeUnit"`
}

// lane maps a span to its tid: compute-side spans (stage, collective,
// recv-wait) share the job's even lane; resolve gets the odd
// sibling, so a resolve renders as its own track next to the
// collective and recv-wait spans inside it.
func lane(s Span) int64 {
	base := 2 * s.Job
	if s.Kind == KindResolve {
		return base + 1
	}
	return base
}

// WriteChromeTrace exports spans as Chrome trace_event JSON.
// Timestamps are microseconds relative to the earliest span, so the
// viewer opens at t≈0 instead of the Unix epoch.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	var base int64
	for i, s := range spans {
		if i == 0 || s.StartNs < base {
			base = s.StartNs
		}
	}
	events := make([]json.RawMessage, 0, len(spans)+8)
	seenRank := map[int32]bool{}
	for _, s := range spans {
		if !seenRank[s.Rank] {
			seenRank[s.Rank] = true
			m, err := json.Marshal(chromeMeta{
				Name: "process_name", Ph: "M", Pid: int64(s.Rank),
				Args: map[string]string{"name": fmt.Sprintf("rank %d", s.Rank)},
			})
			if err != nil {
				return err
			}
			events = append(events, m)
		}
		ev := chromeEvent{
			Name: s.Name,
			Cat:  s.Kind.String(),
			Ph:   "X",
			Ts:   float64(s.StartNs-base) / 1e3,
			Dur:  float64(s.EndNs-s.StartNs) / 1e3,
			Pid:  int64(s.Rank),
			Tid:  lane(s),
			Args: map[string]int64{"job": s.Job, "tag": s.Tag},
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		events = append(events, b)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, Unit: "ns"})
}

// WriteChromeTrace exports the tracer's current snapshot.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Snapshot())
}

// EncodeSpans packs spans into a flat byte blob for shipping through
// a Gather: little-endian, length-prefixed, no reflection.
func EncodeSpans(spans []Span) []byte {
	n := 4
	for _, s := range spans {
		n += spanFixed + len(s.Name)
	}
	buf := make([]byte, 0, n)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(spans)))
	for _, s := range spans {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Rank))
		buf = append(buf, byte(s.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Job))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Tag))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.StartNs))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.EndNs))
		if len(s.Name) > 0xFFFF {
			s.Name = s.Name[:0xFFFF]
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.Name)))
		buf = append(buf, s.Name...)
	}
	return buf
}

// spanFixed is the encoded size of a span without its name.
const spanFixed = 4 + 1 + 8*4 + 2

// DecodeSpans unpacks an EncodeSpans blob. The blob is a peer's, so its
// span count is not trusted: the slice is sized by what the bytes can
// hold, and bytes left over after the last span are an error.
func DecodeSpans(b []byte) ([]Span, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("obs: span blob truncated: %d bytes", len(b))
	}
	count := binary.LittleEndian.Uint32(b)
	b = b[4:]
	spans := make([]Span, 0, min(int(count), len(b)/spanFixed))
	for i := uint32(0); i < count; i++ {
		if len(b) < spanFixed {
			return nil, fmt.Errorf("obs: span %d truncated", i)
		}
		var s Span
		s.Rank = int32(binary.LittleEndian.Uint32(b))
		s.Kind = Kind(b[4])
		s.Job = int64(binary.LittleEndian.Uint64(b[5:]))
		s.Tag = int64(binary.LittleEndian.Uint64(b[13:]))
		s.StartNs = int64(binary.LittleEndian.Uint64(b[21:]))
		s.EndNs = int64(binary.LittleEndian.Uint64(b[29:]))
		nameLen := int(binary.LittleEndian.Uint16(b[37:]))
		b = b[spanFixed:]
		if len(b) < nameLen {
			return nil, fmt.Errorf("obs: span %d name truncated", i)
		}
		s.Name = string(b[:nameLen])
		b = b[nameLen:]
		spans = append(spans, s)
	}
	if len(b) > 0 {
		return nil, fmt.Errorf("obs: %d bytes after the last of %d spans", len(b), count)
	}
	return spans, nil
}
