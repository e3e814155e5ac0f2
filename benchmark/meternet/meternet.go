// Package meternet is the benchmark's timing and counting decorator for
// a comm.Network: every Send, Recv and RecvAny of every endpoint is
// timed from outside the transport, counted, and — when a sink is
// installed — reported as an Event the benchmark turns into a span.
//
// The decorator is transparent. Payloads, tags and errors pass through
// untouched; RecvAny hands the inner transport's comm.Message back by
// value, so the unexported bookkeeping a transport attaches to it
// (simnet's arrival hook, a fault injector's per-message error) still
// reaches the comm.Mux that consumes it. Metrics and Meter delegate to
// the inner network, so comm.NetworkMeter reads the same bytes and
// messages with and without the decorator. The optional accessors dist
// and collective probe for — the TCP transport's Topology and ConnsOpen
// — are forwarded too.
package meternet

import (
	"sync/atomic"
	"time"

	"repro/internal/comm"
)

// Op names the endpoint call an Event or a Totals row describes.
type Op uint8

const (
	OpSend Op = iota
	OpRecv
	OpRecvAny
	numOps
)

// String is the span name the benchmark records for the call.
func (o Op) String() string {
	switch o {
	case OpSend:
		return "comm.send"
	case OpRecv:
		return "comm.recv"
	case OpRecvAny:
		return "comm.recvany"
	}
	return "comm.unknown"
}

// Event is one completed endpoint call, failed ones included; Bytes is
// the payload length.
type Event struct {
	Rank  int
	Op    Op
	Bytes int
	Start time.Time
	End   time.Time
}

// Sink receives every Event. It is called on the goroutine that made
// the endpoint call — concurrently for different ranks, and for one
// rank whenever several goroutines share its endpoint (a service pool)
// — so it must be safe for concurrent use.
type Sink func(Event)

// Totals accumulates one endpoint's calls of one kind.
type Totals struct {
	Calls int64
	Bytes int64
	Ns    int64
}

// Network decorates an inner comm.Network. Build one with Wrap.
type Network struct {
	inner comm.Network
	eps   []*endpoint
	sink  Sink // nil: count and time only
}

type opCounters struct {
	calls, bytes, ns atomic.Int64
}

type endpoint struct {
	net   *Network
	inner comm.Endpoint
	ops   [numOps]opCounters
}

// Wrap decorates inner. The caller keeps ownership of inner: closing
// the returned network closes it. sink may be nil (count and time only).
func Wrap(inner comm.Network, sink Sink) *Network {
	n := &Network{inner: inner, eps: make([]*endpoint, inner.Size()), sink: sink}
	for r := range n.eps {
		n.eps[r] = &endpoint{net: n, inner: inner.Endpoint(r)}
	}
	return n
}

func (n *Network) Size() int                       { return n.inner.Size() }
func (n *Network) Endpoint(rank int) comm.Endpoint { return n.eps[rank] }
func (n *Network) Close() error                    { return n.inner.Close() }

// Meter delegates to the inner transport, wire and connection counters
// included.
func (n *Network) Meter() comm.MeterSnapshot { return comm.NetworkMeter(n.inner) }

// Topology forwards the inner transport's connection graph ("" when it
// has none), so dist installs the same routing hint on the collectives
// as it would without the decorator.
func (n *Network) Topology() comm.Topology {
	if t, ok := n.inner.(interface{ Topology() comm.Topology }); ok {
		return t.Topology()
	}
	return ""
}

// Totals returns rank's accumulated calls of kind op.
func (n *Network) Totals(rank int, op Op) Totals {
	c := &n.eps[rank].ops[op]
	return Totals{Calls: c.calls.Load(), Bytes: c.bytes.Load(), Ns: c.ns.Load()}
}

func (e *endpoint) observe(op Op, bytes int, start time.Time) {
	end := time.Now()
	c := &e.ops[op]
	c.calls.Add(1)
	c.bytes.Add(int64(bytes))
	c.ns.Add(end.Sub(start).Nanoseconds())
	if sink := e.net.sink; sink != nil {
		sink(Event{Rank: e.inner.Rank(), Op: op, Bytes: bytes, Start: start, End: end})
	}
}

func (e *endpoint) Rank() int              { return e.inner.Rank() }
func (e *endpoint) Size() int              { return e.inner.Size() }
func (e *endpoint) Metrics() *comm.Metrics { return e.inner.Metrics() }

// ConnsOpen forwards the TCP endpoint's connection count; -1 on
// connectionless transports, as collective.Comm.ConnsOpen reports them.
func (e *endpoint) ConnsOpen() int64 {
	if m, ok := e.inner.(interface{ ConnsOpen() int64 }); ok {
		return m.ConnsOpen()
	}
	return -1
}

func (e *endpoint) Send(dst, tag int, payload []byte) error {
	n := len(payload) // the transport owns payload after the call
	start := time.Now()
	err := e.inner.Send(dst, tag, payload)
	e.observe(OpSend, n, start)
	return err
}

func (e *endpoint) Recv(src, tag int) ([]byte, error) {
	start := time.Now()
	buf, err := e.inner.Recv(src, tag)
	e.observe(OpRecv, len(buf), start)
	return buf, err
}

func (e *endpoint) RecvAny() (comm.Message, error) {
	start := time.Now()
	msg, err := e.inner.RecvAny()
	e.observe(OpRecvAny, len(msg.Payload), start)
	return msg, err
}
