package comm

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrInjected is the synthetic receive failure a FaultyNetwork armed
// with ArmRecvErr reports on its target message — a hard transport fault
// (link down, peer crash) rather than a soft error.
var ErrInjected = errors.New("comm: injected receive fault")

// FaultyNetwork wraps a network and flips one bit in the payload of a
// chosen message — a transport-level soft error, the failure class
// motivating the paper ("spontaneous bitflips in memory ... caused for
// example by cosmic rays", Section 1). Checkers must catch corruption
// that happens while data is in flight, not only in final outputs.
// Alternatively (ArmRecvErr) it fails the chosen receive outright, for
// exercising first-error teardown paths.
//
// The injector is re-armable (ArmBitflip/ArmRecvErr), so one long-lived
// wrapped network can carry many independent chaos episodes — the soak
// harness's mode of use — and it records where the fault landed
// (InjectedAt) so a run can attribute the failure to the tag block, and
// hence the job, that absorbed it.
type FaultyNetwork struct {
	inner Network
	eps   []*faultyEndpoint
	// counter numbers non-empty payloads network-wide in delivery order.
	counter atomic.Int64
	// target is the absolute payload number to corrupt (1-based, in
	// counter's numbering); 0 disables.
	target atomic.Int64
	// bit is the bit index to flip within the payload.
	bit atomic.Int64
	// recvErr selects hard-fault mode: the target receive fails with
	// ErrInjected instead of delivering a corrupted payload.
	recvErr atomic.Bool
	// injected reports whether the armed fault has been placed;
	// injectedRank/injectedTag record where.
	injected     atomic.Bool
	injectedRank atomic.Int64
	injectedTag  atomic.Int64
	// dead is the rank whose process "crashed" (ArmPeerDown); -1 none.
	dead atomic.Int64
	// peerDowns counts ArmPeerDown events for the unified meter.
	peerDowns atomic.Int64
}

type faultyEndpoint struct {
	net   *FaultyNetwork
	inner Endpoint
}

// NewFaultyNetwork wraps inner, flipping bit `bit` of the `target`-th
// non-empty payload received anywhere in the network (1-based).
// target 0 builds the wrapper disarmed; arm it later.
func NewFaultyNetwork(inner Network, target int64, bit int) *FaultyNetwork {
	n := &FaultyNetwork{inner: inner}
	n.target.Store(target)
	n.bit.Store(int64(bit))
	n.dead.Store(-1)
	n.eps = make([]*faultyEndpoint, inner.Size())
	for i := range n.eps {
		n.eps[i] = &faultyEndpoint{net: n, inner: inner.Endpoint(i)}
	}
	return n
}

// ArmBitflip re-arms the injector: the delta-th non-empty payload
// received anywhere in the network from now on gets bit `bit` flipped.
// Resets InjectedAt. Arm only while no earlier fault is still pending.
func (n *FaultyNetwork) ArmBitflip(delta int64, bit int) {
	n.bit.Store(int64(bit))
	n.recvErr.Store(false)
	n.arm(delta)
}

// ArmRecvErr re-arms the injector in hard-fault mode: the delta-th
// non-empty receive from now on fails with ErrInjected.
func (n *FaultyNetwork) ArmRecvErr(delta int64) {
	n.recvErr.Store(true)
	n.arm(delta)
}

// Disarm cancels any pending fault without resetting the injection
// record.
func (n *FaultyNetwork) Disarm() { n.target.Store(0) }

// ArmPeerDown kills rank: from now on the dead rank's own operations
// fail with a PeerDownError naming it that also matches ErrClosed (its
// process is gone, and its demultiplexer must poison exactly like a
// local crash would), while survivors' sends TO the dead rank are
// silently blackholed — a dead peer looks like silence, not like an
// error, so the job it belonged to fails through the dead rank's own
// error, which names it. Messages already in flight still deliver. A
// control kick is sent to the dead endpoint through the inner network
// (bypassing the blackhole) so a puller parked in its RecvAny observes
// the crash promptly. Irreversible for the wrapped network's lifetime;
// arm at most one rank.
func (n *FaultyNetwork) ArmPeerDown(rank int) {
	if rank < 0 || rank >= n.inner.Size() {
		return
	}
	n.dead.Store(int64(rank))
	n.peerDowns.Add(1)
	if p := n.inner.Size(); p > 1 {
		src := (rank + 1) % p
		go func() { _ = n.inner.Endpoint(src).Send(rank, KickTag, nil) }()
	}
}

func (n *FaultyNetwork) arm(delta int64) {
	if delta <= 0 {
		delta = 1
	}
	n.injected.Store(false)
	n.target.Store(n.counter.Load() + delta)
}

// Size returns the number of PEs.
func (n *FaultyNetwork) Size() int { return n.inner.Size() }

// Endpoint returns rank's fault-injecting endpoint.
func (n *FaultyNetwork) Endpoint(rank int) Endpoint { return n.eps[rank] }

// Close tears down the wrapped network.
func (n *FaultyNetwork) Close() error { return n.inner.Close() }

// Meter exposes the inner transport's unified meter — wire bytes and
// connection counts included, which the wrapper would otherwise hide —
// plus the injector's own peer-down events.
func (n *FaultyNetwork) Meter() MeterSnapshot {
	s := NetworkMeter(n.inner)
	s.PeerDowns += n.peerDowns.Load()
	return s
}

// InjectedAt reports where the most recent fault landed: the receiving
// rank and the message tag. ok is false until the armed fault was
// actually placed (the target message may never have been sent).
func (n *FaultyNetwork) InjectedAt() (rank, tag int, ok bool) {
	if !n.injected.Load() {
		return 0, 0, false
	}
	return int(n.injectedRank.Load()), int(n.injectedTag.Load()), true
}

func (e *faultyEndpoint) Rank() int         { return e.inner.Rank() }
func (e *faultyEndpoint) Size() int         { return e.inner.Size() }
func (e *faultyEndpoint) Metrics() *Metrics { return e.inner.Metrics() }

// downSelf reports whether this endpoint belongs to the killed rank.
func (e *faultyEndpoint) downSelf() bool {
	return e.net.dead.Load() == int64(e.inner.Rank())
}

// down is what every operation of the killed rank's endpoint returns:
// the rank's death, attributed, and still ErrClosed to its
// demultiplexer.
func (e *faultyEndpoint) down() error {
	return fmt.Errorf("%w: %w", &PeerDownError{Rank: e.inner.Rank()}, ErrClosed)
}

func (e *faultyEndpoint) Send(dst, tag int, payload []byte) error {
	if e.downSelf() {
		return e.down()
	}
	if d := e.net.dead.Load(); d >= 0 && int(d) == dst {
		// Blackhole: the dead peer absorbs the message without a trace.
		return nil
	}
	return e.inner.Send(dst, tag, payload)
}

// afterRecv applies the configured fault to a just-received payload:
// a bit flip in-place, or a synthetic receive error. On injection it
// records the receiving rank and the message tag for attribution.
func (e *faultyEndpoint) afterRecv(tag int, payload []byte) error {
	if len(payload) == 0 {
		return nil
	}
	seq := e.net.counter.Add(1)
	if target := e.net.target.Load(); target == 0 || seq != target {
		return nil
	}
	e.net.injectedRank.Store(int64(e.inner.Rank()))
	e.net.injectedTag.Store(int64(tag))
	e.net.injected.Store(true)
	if e.net.recvErr.Load() {
		return ErrInjected
	}
	bit := int(e.net.bit.Load()) % (8 * len(payload))
	payload[bit/8] ^= 1 << (bit % 8)
	return nil
}

func (e *faultyEndpoint) Recv(src, tag int) ([]byte, error) {
	if e.downSelf() {
		return nil, e.down()
	}
	payload, err := e.inner.Recv(src, tag)
	if err != nil {
		return nil, err
	}
	if err := e.afterRecv(tag, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// RecvAny pulls from the wrapped endpoint and applies the fault. A
// hard fault is attached to the message (Message.Fail) rather than
// returned: through a Mux the failure then reaches exactly the
// (src, tag) receiver the message was addressed to, instead of
// poisoning every concurrent stream on the endpoint. The direct Recv
// path above keeps returning the error — there the caller is the
// addressee.
func (e *faultyEndpoint) RecvAny() (Message, error) {
	if e.downSelf() {
		return Message{}, e.down()
	}
	m, err := e.inner.RecvAny()
	if err != nil {
		return Message{}, err
	}
	if e.downSelf() {
		// Armed while we were parked in the pull (the ArmPeerDown kick
		// completes it): the crash wins over whatever was drawn.
		return Message{}, e.down()
	}
	if ferr := e.afterRecv(m.Tag, m.Payload); ferr != nil {
		m.Fail(ferr)
	}
	return m, nil
}
