package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"
)

// SimNetwork wraps a network with the paper's communication cost model
// (Section 2): sending a message of m bits takes time alpha + beta*m,
// PEs are single-ported and full-duplex. Each endpoint keeps a virtual
// clock, advanced by alpha + beta*m on every send; a receive completes
// no earlier than the sender's departure-plus-transfer time. The
// resulting per-PE clocks give the modeled communication makespan of an
// algorithm — wall-clock-noise-free, and meaningful for PE counts far
// beyond the physical core count (the paper's Fig. 4 runs to 2^12 PEs).
//
// Virtual time covers communication only; local computation does not
// advance clocks.
type SimNetwork struct {
	inner Network
	eps   []*simEndpoint
	// AlphaNs is the connection start-up latency in nanoseconds.
	AlphaNs float64
	// BetaNsPerByte is the transfer time per byte in nanoseconds.
	BetaNsPerByte float64
}

type simEndpoint struct {
	net   *SimNetwork
	inner Endpoint
	shim  recvShim
	mu    sync.Mutex
	clock float64 // virtual nanoseconds; mu-protected — concurrent
	// collectives on sub-communicators send and receive from several
	// goroutines of the same PE, and each advances the clock
}

// advance adds a communication cost to the clock and returns the new
// value (the modeled departure-plus-transfer time of a send).
func (e *simEndpoint) advance(ns float64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.clock += ns
	return e.clock
}

// observe raises the clock to a modeled arrival time (receives complete
// no earlier than the sender's departure-plus-transfer time).
func (e *simEndpoint) observe(arrival float64) {
	e.mu.Lock()
	if arrival > e.clock {
		e.clock = arrival
	}
	e.mu.Unlock()
}

func (e *simEndpoint) clockNs() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.clock
}

// NewSimNetworkTimeout models timing on top of an in-memory network of
// p PEs. alphaNs and betaNsPerByte follow typical cluster
// interconnects, e.g. alphaNs=10000 (10 us) and betaNsPerByte=1
// (1 GB/s). timeout is the underlying network's per-operation deadline
// (in wall-clock time — virtual clocks model transfer cost, not
// liveness): zero selects DefaultTimeout, a negative value disables
// the deadline.
func NewSimNetworkTimeout(p int, alphaNs, betaNsPerByte float64, timeout time.Duration) *SimNetwork {
	n := &SimNetwork{
		inner:         NewMemNetworkTimeout(p, timeout),
		AlphaNs:       alphaNs,
		BetaNsPerByte: betaNsPerByte,
	}
	n.eps = make([]*simEndpoint, p)
	for i := range n.eps {
		n.eps[i] = &simEndpoint{net: n, inner: n.inner.Endpoint(i)}
	}
	return n
}

// Size returns the number of PEs.
func (n *SimNetwork) Size() int { return n.inner.Size() }

// Endpoint returns rank's simulated endpoint.
func (n *SimNetwork) Endpoint(rank int) Endpoint { return n.eps[rank] }

// Close tears down the underlying network.
func (n *SimNetwork) Close() error { return n.inner.Close() }

// Meter returns the unified transport meter. Byte counts include the
// 8-byte virtual-time header each message carries (the endpoints
// delegate metering to the underlying mem transport); simnet is
// connectionless.
func (n *SimNetwork) Meter() MeterSnapshot { return endpointMeter(n) }

// MakespanNs returns the maximum virtual clock over all PEs — the
// modeled completion time of the communication schedule.
func (n *SimNetwork) MakespanNs() float64 {
	var max float64
	for _, ep := range n.eps {
		if c := ep.clockNs(); c > max {
			max = c
		}
	}
	return max
}

// ResetClocks zeroes all virtual clocks (for multi-phase measurements).
func (n *SimNetwork) ResetClocks() {
	for _, ep := range n.eps {
		ep.mu.Lock()
		ep.clock = 0
		ep.mu.Unlock()
	}
}

func (e *simEndpoint) Rank() int         { return e.inner.Rank() }
func (e *simEndpoint) Size() int         { return e.inner.Size() }
func (e *simEndpoint) Metrics() *Metrics { return e.inner.Metrics() }

// header carries the modeled arrival time in front of the payload.
const simHeader = 8

func (e *simEndpoint) Send(dst, tag int, payload []byte) error {
	// Single-ported: the sender is busy for alpha + beta*m, after which
	// the message has fully arrived (telephone model).
	cost := e.net.AlphaNs + e.net.BetaNsPerByte*float64(len(payload))
	departure := e.advance(cost)
	buf := make([]byte, simHeader+len(payload))
	binary.LittleEndian.PutUint64(buf, math.Float64bits(departure))
	copy(buf[simHeader:], payload)
	PutPayload(payload)
	return e.inner.Send(dst, tag, buf)
}

func (e *simEndpoint) RecvAny() (Message, error) {
	m, err := e.inner.RecvAny()
	if err != nil {
		return Message{}, err
	}
	if len(m.Payload) < simHeader {
		return Message{}, fmt.Errorf("comm: simnet message missing header")
	}
	arrival := math.Float64frombits(binary.LittleEndian.Uint64(m.Payload))
	m.Payload = m.Payload[simHeader:]
	// Observe the arrival when the message is matched, not when it is
	// pulled: a parked future-round message must not advance the clock
	// before the receive that consumes it actually happens, or modeled
	// makespans inflate.
	m.onMatch = func() { e.observe(arrival) }
	return m, nil
}
