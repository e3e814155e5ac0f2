package comm

import (
	"sync"
	"time"
)

// SimNetwork is an in-memory network under the paper's communication
// cost model (Section 2): sending a message of m bits takes time
// alpha + beta*m, PEs are single-ported and full-duplex. Each endpoint
// keeps a virtual clock, advanced by alpha + beta*m on every send; a
// receive completes no earlier than the sender's departure-plus-transfer
// time. The resulting per-PE clocks give the modeled communication
// makespan of an algorithm — wall-clock-noise-free, and meaningful for
// PE counts far beyond the physical core count (the paper's Fig. 4 runs
// to 2^12 PEs).
//
// Virtual time covers communication only; local computation does not
// advance clocks. Payloads travel and are metered exactly as on mem:
// the modeled arrival rides the Message beside them, never in them.
type SimNetwork struct {
	localNetwork[*simEndpoint]
	// alphaNs is the connection start-up latency and betaNsPerByte the
	// transfer time per byte, both in nanoseconds.
	alphaNs, betaNsPerByte float64
}

type simEndpoint struct {
	net *SimNetwork
	inbox
	simClock
	shim recvShim
}

// simClock is one PE's virtual clock in nanoseconds. It is locked:
// concurrent collectives on sub-communicators send and receive from
// several goroutines of the same PE, and each advances it.
type simClock struct {
	mu sync.Mutex
	ns float64
}

// advance adds a communication cost to the clock and returns the new
// value (the modeled departure-plus-transfer time of a send).
func (c *simClock) advance(ns float64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ns += ns
	return c.ns
}

// observe raises the clock to a modeled arrival time (receives complete
// no earlier than the sender's departure-plus-transfer time).
func (c *simClock) observe(arrival float64) {
	c.mu.Lock()
	if arrival > c.ns {
		c.ns = arrival
	}
	c.mu.Unlock()
}

func (c *simClock) clockNs() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns
}

// NewSimNetworkTimeout builds a modeled network of p PEs. alphaNs and
// betaNsPerByte follow typical cluster interconnects, e.g.
// alphaNs=10000 (10 us) and betaNsPerByte=1 (1 GB/s). timeout is the
// per-operation deadline (in wall-clock time — virtual clocks model
// transfer cost, not liveness): zero selects DefaultTimeout, a negative
// value disables the deadline.
func NewSimNetworkTimeout(p int, alphaNs, betaNsPerByte float64, timeout time.Duration) *SimNetwork {
	n := &SimNetwork{localNetwork: newLocalNetwork[*simEndpoint](p), alphaNs: alphaNs, betaNsPerByte: betaNsPerByte}
	for i := range n.eps {
		n.eps[i] = &simEndpoint{net: n, inbox: newInbox(i, p, n.closed, resolveTimeout(timeout))}
	}
	return n
}

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
		ep.ns = 0
		ep.mu.Unlock()
	}
}

// Send hands payload to dst as mem does, stamped with its modeled
// arrival and dst's clock, which the Mux raises to that arrival when a
// receive matches the message (deliver) — not when it is pulled: a
// parked future-round message must not advance the clock before the
// receive that consumes it, or modeled makespans inflate.
func (e *simEndpoint) Send(dst, tag int, payload []byte) error {
	if err := validRank(dst, e.size); err != nil {
		return err
	}
	to := e.net.eps[dst]
	// Single-ported: the sender is busy for alpha + beta*m, after which
	// the message has fully arrived (telephone model).
	arrival := e.advance(e.net.alphaNs + e.net.betaNsPerByte*float64(len(payload)))
	return e.send(&to.inbox, Message{Src: e.rank, Tag: tag, Payload: payload, arrival: arrival, clock: &to.simClock})
}
