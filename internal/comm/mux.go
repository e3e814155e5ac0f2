package comm

import (
	"fmt"
	"slices"
	"sync"
)

// Mux demultiplexes one Endpoint among concurrent receivers, the
// mechanism that lets several collectives be in flight on one PE at
// once (tag-safe sub-communicators). It is the only matcher in the
// package: transports hand messages over in arrival order through
// RecvAny, one caller at a time, and the Mux owns all receiving on the
// endpoint and routes by (src, tag). One endpoint has one Mux; a second
// would pull messages the first's receivers wait for.
//
// It is a collaborative pull: there is no resident pump goroutine.
// Whichever waiter finds neither a queued message for its key nor an
// active puller becomes the puller, draws one message via RecvAny,
// and either keeps it (its own key) or queues it and wakes the others.
// A Mux therefore costs nothing when abandoned — no goroutine to stop,
// no lifecycle to manage across reuses of a network — and receives
// degrade to a single cheap pull per message when only one collective
// is active, the common case.
//
// Failures come in three scopes:
//
//   - A transport error from RecvAny (closure, deadline) poisons the
//     whole Mux: every current and future receive reports it, wrapped
//     with that receive's own (src, tag) to name the stuck one. A network
//     that carried a failed run must not be reused, and one in-flight
//     collective failing must wake the others instead of deadlocking
//     them.
//   - A per-message fault (Message.err, set by fault-injecting
//     wrappers) fails exactly the receiver the message was addressed
//     to. Injected chaos stays scoped to the stream it hit, so a
//     resident mesh serving many jobs loses one job, not all of them.
//   - A poisoned tag range (PoisonRange) fails every receive whose tag
//     falls inside it and drops the range's queued and future
//     messages. This is how one job's tag block is killed on a shared
//     mesh without touching neighbouring jobs.
type Mux struct {
	ep Endpoint

	mu   sync.Mutex
	cond *sync.Cond
	// early holds the messages the puller drew for other receivers, in
	// arrival order; a receiver takes the first one with its (src, tag),
	// which keeps each stream FIFO. It is scanned, not indexed by key:
	// it holds only what the collectives in flight have not yet asked
	// for, a few messages at a time, and queueing one reuses its storage
	// instead of allocating per message.
	early   []Message
	pulling bool
	err     error
	poisons []poisonRange
}

// poisonRange marks the half-open tag interval [lo, hi) as failed with
// err on this endpoint.
type poisonRange struct {
	lo, hi int
	err    error
}

// NewMux wraps ep. All receiving on ep must go through the returned
// Mux from then on; sends may keep using ep directly (transports
// serialize sends internally).
func NewMux(ep Endpoint) *Mux {
	m := &Mux{ep: ep}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Endpoint returns the wrapped endpoint.
func (m *Mux) Endpoint() Endpoint { return m.ep }

// Send passes through to the endpoint (present so callers can treat
// the Mux as their whole transport handle).
func (m *Mux) Send(dst, tag int, payload []byte) error {
	return m.ep.Send(dst, tag, payload)
}

// PoisonRange fails every current and future receive whose tag lies in
// [lo, hi) with err, and drops the range's queued messages. Receives
// outside the range are untouched. Waiters inside the range wake
// immediately; a goroutine currently blocked in the endpoint's RecvAny
// only notices once a message arrives — senders on a live mesh provide
// one, and on an idle mesh a self-addressed KickTag control message does.
func (m *Mux) PoisonRange(lo, hi int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.poisons = append(m.poisons, poisonRange{lo: lo, hi: hi, err: err})
	m.early = slices.DeleteFunc(m.early, func(msg Message) bool { return msg.Tag >= lo && msg.Tag < hi })
	m.cond.Broadcast()
}

// ClearRange removes any poison covering tags in [lo, hi), re-arming
// the range for reuse (a recycled sub-communicator block). Only poison
// entries fully contained in [lo, hi) are removed.
func (m *Mux) ClearRange(lo, hi int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := m.poisons[:0]
	for _, p := range m.poisons {
		if p.lo >= lo && p.hi <= hi {
			continue
		}
		kept = append(kept, p)
	}
	m.poisons = kept
}

// poisonFor returns the poison error covering tag, or nil.
// Caller holds m.mu.
func (m *Mux) poisonFor(tag int) error {
	for _, p := range m.poisons {
		if tag >= p.lo && tag < p.hi {
			return p.err
		}
	}
	return nil
}

// Recv blocks until a message from src with the given tag is available
// and returns its payload. Safe for any number of concurrent callers;
// per-(src,tag) FIFO order is preserved. Callers must not have two
// concurrent receives for the same (src, tag) — tag disjointness is
// exactly what sub-communicators provide. The payload is the caller's:
// once it has read it, it may hand it back with PutPayload.
func (m *Mux) Recv(src, tag int) ([]byte, error) {
	if err := validRank(src, m.ep.Size()); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.err != nil {
			return nil, recvErr(src, tag, m.err)
		}
		if perr := m.poisonFor(tag); perr != nil {
			return nil, perr
		}
		if i := slices.IndexFunc(m.early, func(msg Message) bool { return msg.Src == src && msg.Tag == tag }); i >= 0 {
			msg := m.early[i]
			m.early = slices.Delete(m.early, i, i+1)
			return deliver(msg)
		}
		if m.pulling {
			// Someone else is at the endpoint; it will queue our message
			// or vacate the puller slot. Either way we get woken.
			m.cond.Wait()
			continue
		}
		m.pulling = true
		m.mu.Unlock()
		msg, err := m.ep.RecvAny()
		m.mu.Lock()
		m.pulling = false
		if err != nil {
			// Poison: a transport error (closure, timeout) must fail
			// every receiver, not just the puller.
			m.err = err
			m.cond.Broadcast()
			return nil, recvErr(src, tag, err)
		}
		if msg.Tag >= KickTag {
			// Control kick: no data, no receiver — its whole purpose
			// was to complete the RecvAny so the puller re-examines
			// state (a poison may have landed while it was blocked).
			m.cond.Broadcast()
			continue
		}
		if m.poisonFor(msg.Tag) != nil {
			// A straggler addressed to a killed tag range: drop it and
			// keep pulling. Its would-be receiver already failed.
			m.cond.Broadcast()
			continue
		}
		if msg.Src == src && msg.Tag == tag {
			// Our own message, and none of ours was queued when we
			// started pulling (only the single active puller enqueues,
			// so none is now): return it directly, and wake the others
			// so one of them takes over pulling.
			m.cond.Broadcast()
			return deliver(msg)
		}
		m.early = append(m.early, msg)
		m.cond.Broadcast()
	}
}

// recvErr names the receive a transport error stopped, keeping err
// reachable for errors.Is and errors.As (ErrClosed, ErrPeerDown).
func recvErr(src, tag int, err error) error {
	return fmt.Errorf("recv (src=%d, tag=%d): %w", src, tag, err)
}

// deliver completes a matched message: a simnet receiver's clock
// observes the modeled arrival now, at receive-completion time, and a
// per-message fault attached by a wrapper surfaces as the matched
// receiver's error (the clock still observes a failed message's
// arrival: the modeled transfer happened).
func deliver(msg Message) ([]byte, error) {
	if msg.clock != nil {
		msg.clock.observe(msg.arrival)
	}
	if msg.err != nil {
		return nil, msg.err
	}
	return msg.Payload, nil
}
