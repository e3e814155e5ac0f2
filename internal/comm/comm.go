// Package comm provides the point-to-point message transport beneath the
// collectives: an in-memory channel network for fast simulation, the
// same under the paper's alpha + beta*m cost model (SimNetwork), and a
// TCP network (length-prefixed binary frames over real sockets, see
// frame.go) for demonstrating transport agnosticism. Every endpoint
// meters bytes and messages sent and received, so the paper's central
// metric — bottleneck communication volume, the maximum over PEs of data
// sent or received (Section 1) — is directly observable.
package comm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by operations on a closed network.
var ErrClosed = errors.New("comm: network closed")

// ErrPeerDown is the sentinel behind PeerDownError: a specific peer PE
// died mid-run. It is deliberately distinct from ErrClosed (the whole
// network is gone) and from operation timeouts (the run may be merely
// wedged): peer death is attributable to one rank, so callers branch
// on it with errors.Is and name the rank with errors.As.
var ErrPeerDown = errors.New("comm: peer down")

// PeerDownError attributes a failure to the death of one peer PE. It
// unwraps to ErrPeerDown, so errors.Is(err, ErrPeerDown) matches while
// the rank of the dead peer stays available via errors.As.
type PeerDownError struct {
	Rank int
}

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("comm: peer %d down", e.Rank)
}

// Unwrap makes errors.Is(err, ErrPeerDown) hold for attributed peer
// deaths.
func (e *PeerDownError) Unwrap() error { return ErrPeerDown }

// DefaultTimeout is the per-operation deadline a network applies when
// it is built without an explicit one: every blocking Send or Recv that
// exceeds it fails with an error naming the stuck operation, the
// backstop that turns an SPMD deadlock into a diagnosis. Timeouts are
// per network — concurrent networks in one process are independent —
// replacing the old mutable package global (comm.RecvTimeout), which
// raced when concurrent runs reconfigured it.
const DefaultTimeout = 120 * time.Second

// KickTag is the first tag of the control range: messages tagged at or
// above it carry no data and are never delivered to a receiver. Their
// only effect is to complete a pending RecvAny, which is how a service
// wakes an endpoint's active puller after poisoning a tag range
// (Mux.PoisonRange) — on an otherwise idle mesh nothing else would
// arrive and the puller would sit in RecvAny until its deadline. Tag
// allocation (collectives, user tags, sub-communicator blocks) stays
// strictly below KickTag.
const KickTag = 1 << 62

// resolveTimeout maps a constructor's timeout argument to the effective
// per-operation deadline: zero selects the DefaultTimeout backstop,
// negative disables deadlines, positive is used as given.
func resolveTimeout(d time.Duration) time.Duration {
	switch {
	case d == 0:
		return DefaultTimeout
	case d < 0:
		return 0
	}
	return d
}

// opDeadline arms a fresh timer channel for one blocking operation
// under the network's timeout; the returned stop must be deferred. A
// disabled timeout yields a nil channel (blocks forever in a select).
// Only a send blocked on a full inbox uses it, because any number of
// senders may block there at once; receives, which only an endpoint's
// Mux puller makes, share the inbox's one re-armed timer (inbox.RecvAny).
func opDeadline(timeout time.Duration) (<-chan time.Time, func()) {
	if timeout <= 0 {
		return nil, func() {}
	}
	t := time.NewTimer(timeout)
	return t.C, func() { t.Stop() }
}

// Message is one tagged point-to-point payload.
type Message struct {
	Src     int
	Tag     int
	Payload []byte

	// arrival is the modeled arrival time simnet's Send stamps on the
	// message, and clock the receiving endpoint's virtual clock; the Mux
	// raises clock to arrival when it hands the message to its matched
	// receiver (deliver), not when the message is pulled or parked.
	// clock is nil on every other transport. Never on the wire; a
	// wrapper passing the message on by value carries both along.
	arrival float64
	clock   *simClock

	// err, when set by a wrapper's RecvAny (FaultyNetwork's hard-fault
	// mode), scopes a per-message failure to the receiver the message
	// was addressed to: the Mux delivers the error to the matched
	// (src, tag) receive instead of poisoning every stream on the
	// endpoint. Transport-level errors — closure, timeout — are still
	// returned from RecvAny itself and still poison globally.
	err error
}

// Fail marks the message as a scoped per-message failure: the matched
// receiver gets err, everyone else on the endpoint is untouched. The
// payload is dropped (a faulted delivery carries no data). For use by
// fault-injecting wrappers.
func (m *Message) Fail(err error) {
	m.err = err
	m.Payload = nil
}

// Endpoint is one PE's port into the network. Endpoints follow the
// paper's machine model: single-ported, full-duplex; matching sends and
// receives between a pair of PEs are delivered in FIFO order.
//
// Concurrency: Send may be called from multiple goroutines. Receiving
// has one path: a Mux over the endpoint (NewMux) is the only matcher.
// It serializes the pulls from RecvAny, which therefore has one caller
// at a time, and routes each message to its (src, tag) receiver.
type Endpoint interface {
	// Rank is this PE's number in 0..Size()-1.
	Rank() int
	// Size is the number of PEs p.
	Size() int
	// Send delivers payload to dst with the given tag. The payload is
	// owned by the transport after the call: the sender never touches
	// it again, and never sends one buffer twice. The transport may pass
	// it to the receiver as it is (mem, simnet) or return it to the payload pool
	// once its frame is written (tcp).
	Send(dst, tag int, payload []byte) error
	// Recv is Mux.Recv on a Mux the endpoint keeps for it. It stays
	// only because benchmark/ calls it (shims_benchmark.go).
	Recv(src, tag int) ([]byte, error)
	// RecvAny blocks until any message addressed to this endpoint is
	// available and returns it, earliest queued first. It is the pull
	// primitive beneath the Mux, which routes the message.
	RecvAny() (Message, error)
	// Metrics returns this endpoint's live counters.
	Metrics() *Metrics
}

// Network is a set of p connected endpoints. Every network meters
// itself, wrappers included, which report their inner transport's
// counters instead of hiding them.
type Network interface {
	Size() int
	Endpoint(rank int) Endpoint
	// Close tears down the network. Pending operations fail.
	Close() error
	// Meter returns the network's unified transport meter.
	Meter() MeterSnapshot
}

// Metrics counts traffic through one endpoint. All fields are updated
// atomically and may be read concurrently.
type Metrics struct {
	BytesSent int64
	BytesRecv int64
	MsgsSent  int64
	MsgsRecv  int64
}

func (m *Metrics) addSent(n int) {
	atomic.AddInt64(&m.BytesSent, int64(n))
	atomic.AddInt64(&m.MsgsSent, 1)
}

func (m *Metrics) addRecv(n int) {
	atomic.AddInt64(&m.BytesRecv, int64(n))
	atomic.AddInt64(&m.MsgsRecv, 1)
}

// Snapshot returns a consistent copy of the counters.
func (m *Metrics) Snapshot() Metrics {
	return Metrics{
		BytesSent: atomic.LoadInt64(&m.BytesSent),
		BytesRecv: atomic.LoadInt64(&m.BytesRecv),
		MsgsSent:  atomic.LoadInt64(&m.MsgsSent),
		MsgsRecv:  atomic.LoadInt64(&m.MsgsRecv),
	}
}

// MeterSnapshot is the unified transport meter (Network.Meter): one
// struct covering every counter any network in the package exposes.
// Counters a transport cannot know are zero; ConnsOpen is -1 for
// connectionless transports (mem, simnet) to distinguish "no
// connections exist as a concept" from "zero connections open".
type MeterSnapshot struct {
	BytesSent int64 // payload bytes, summed over endpoints
	BytesRecv int64
	MsgsSent  int64
	MsgsRecv  int64
	WireSent  int64 // raw socket bytes incl. framing (TCP only)
	WireRecv  int64
	ConnsOpen int64 // open connections, -1 if connectionless
	Dials     int64 // dial attempts, successful or not
	PeerDowns int64 // peers killed by a FaultyNetwork (ArmPeerDown)
}

// endpointMeter sums per-endpoint payload counters — the part of the
// meter every Network can produce.
func endpointMeter(n Network) MeterSnapshot {
	s := MeterSnapshot{ConnsOpen: -1}
	for r := 0; r < n.Size(); r++ {
		s.addPayload(n.Endpoint(r))
	}
	return s
}

// addPayload adds one endpoint's payload counters to s.
func (s *MeterSnapshot) addPayload(ep Endpoint) {
	m := ep.Metrics().Snapshot()
	s.BytesSent += m.BytesSent
	s.BytesRecv += m.BytesRecv
	s.MsgsSent += m.MsgsSent
	s.MsgsRecv += m.MsgsRecv
}

func validRank(r, p int) error {
	if r < 0 || r >= p {
		return fmt.Errorf("comm: rank %d out of range [0, %d)", r, p)
	}
	return nil
}
