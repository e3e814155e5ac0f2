// Package obs is the unified observability layer: a span tracer whose
// disabled form is free on hot paths, and a metrics registry that
// absorbs the runtime's scattered counters. The package imports
// nothing beyond the standard library so every layer — comm,
// collective, dist, service, the root façade — can hang
// instrumentation on it without import cycles; the bindings that need
// richer types (PoolStats, transport meters) live next to those types.
//
// The tracer's contract is asymmetric by design: a nil *Tracer is the
// disabled form, and Start on a nil receiver returns the zero Active
// before touching the clock — no time syscall, no allocation, nothing
// for the branch predictor to miss. Hot paths therefore thread a
// possibly-nil tracer and call Start/End unconditionally.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a span. The kinds mirror the runtime's phases: a
// pipeline stage's local accumulation, a collective operation, a
// checker resolution (one stage's, or a deferred batch's), and the
// receive wait inside a collective.
type Kind uint8

const (
	KindStage Kind = iota
	KindCollective
	KindResolve
	KindRecvWait
)

var kindNames = [...]string{"stage", "collective", "resolve", "recv-wait"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Span is one completed interval on one rank. Job is the tag-isolated
// job the span belongs to (0 outside service mode), Tag the base of
// the tag block it ran under (0 for the root communicator).
type Span struct {
	Rank    int32
	Kind    Kind
	Job     int64
	Tag     int64
	Name    string
	StartNs int64
	EndNs   int64
}

// ring is one rank's bounded span buffer. Recording takes the rank's
// own mutex — uncontended in SPMD use, where each rank emits from its
// own goroutine — and writes into preallocated slots, so the enabled
// path allocates nothing either.
type ring struct {
	mu      sync.Mutex
	buf     []Span
	next    int // slot the next span lands in
	n       int // live spans, ≤ len(buf)
	dropped int64
}

// Tracer records spans into per-rank bounded rings.
type Tracer struct {
	rings []ring
	stray atomic.Int64 // spans from out-of-range ranks
}

// DefaultCapacity is the per-rank ring size when NewTracer is given a
// non-positive capacity: at ~80 B/span that is ~325 KiB per rank,
// enough for tens of thousands of stage boundaries before wrapping.
const DefaultCapacity = 4096

// NewTracer builds an enabled tracer for ranks [0, ranks) with the
// given per-rank ring capacity (DefaultCapacity if ≤ 0). A nil
// *Tracer is the disabled tracer; there is no constructor for it.
func NewTracer(ranks, capacity int) *Tracer {
	if ranks < 1 {
		ranks = 1
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &Tracer{rings: make([]ring, ranks)}
	for i := range t.rings {
		t.rings[i].buf = make([]Span, capacity)
	}
	return t
}

// Active is an in-flight span, returned by value so the disabled path
// never allocates. The zero Active (from a nil tracer) makes End a
// no-op.
type Active struct {
	t     *Tracer
	name  string
	job   int64
	tag   int64
	start int64
	rank  int32
	kind  Kind
}

// Start opens a span. On a nil tracer it returns the zero Active
// without reading the clock.
func (t *Tracer) Start(rank int, job, tag int64, kind Kind, name string) Active {
	if t == nil {
		return Active{}
	}
	return Active{
		t: t, name: name, job: job, tag: tag,
		start: time.Now().UnixNano(), rank: int32(rank), kind: kind,
	}
}

// End closes the span and records it. No-op on the zero Active.
func (a Active) End() {
	if a.t == nil {
		return
	}
	a.t.record(Span{
		Rank: a.rank, Kind: a.kind, Job: a.job, Tag: a.tag,
		Name: a.name, StartNs: a.start, EndNs: time.Now().UnixNano(),
	})
}

func (t *Tracer) record(s Span) {
	r := int(s.Rank)
	if r < 0 || r >= len(t.rings) {
		t.stray.Add(1)
		return
	}
	rg := &t.rings[r]
	rg.mu.Lock()
	rg.buf[rg.next] = s
	rg.next++
	if rg.next == len(rg.buf) {
		rg.next = 0
	}
	if rg.n < len(rg.buf) {
		rg.n++
	} else {
		rg.dropped++
	}
	rg.mu.Unlock()
}

// Ranks reports how many per-rank rings the tracer holds.
func (t *Tracer) Ranks() int {
	if t == nil {
		return 0
	}
	return len(t.rings)
}

// Dropped reports how many spans were discarded because a ring
// wrapped, plus spans addressed to out-of-range ranks.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	var d int64
	for i := range t.rings {
		rg := &t.rings[i]
		rg.mu.Lock()
		d += rg.dropped
		rg.mu.Unlock()
	}
	return d + t.stray.Load()
}

// Snapshot copies out every recorded span, oldest first per rank,
// merged across ranks in start-time order. The tracer keeps
// recording; the snapshot is a consistent-per-rank copy, not a global
// barrier.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for i := range t.rings {
		rg := &t.rings[i]
		rg.mu.Lock()
		if rg.n == len(rg.buf) {
			// Full ring: oldest span sits at next.
			out = append(out, rg.buf[rg.next:]...)
			out = append(out, rg.buf[:rg.next]...)
		} else {
			out = append(out, rg.buf[:rg.n]...)
		}
		rg.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNs < out[j].StartNs })
	return out
}

// Spans of rank r only, oldest first. Used to ship one rank's rings
// through a Gather without re-sorting the world.
func (t *Tracer) SpansOf(rank int) []Span {
	if t == nil || rank < 0 || rank >= len(t.rings) {
		return nil
	}
	rg := &t.rings[rank]
	rg.mu.Lock()
	defer rg.mu.Unlock()
	out := make([]Span, 0, rg.n)
	if rg.n == len(rg.buf) {
		out = append(out, rg.buf[rg.next:]...)
		out = append(out, rg.buf[:rg.next]...)
	} else {
		out = append(out, rg.buf[:rg.n]...)
	}
	return out
}

// Merge flattens span groups (e.g. one per gathered rank) into one
// start-ordered slice ready for export.
func Merge(groups ...[]Span) []Span {
	var out []Span
	for _, g := range groups {
		out = append(out, g...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNs < out[j].StartNs })
	return out
}
