package comm

import (
	"fmt"
	"time"
)

// inbox is the receiving half of the mem, simnet and TCP endpoints,
// which embed it: the buffered channel senders (or TCP reader
// goroutines) deliver into, the endpoint's traffic counters, RecvAny,
// the in-process half of Send (send), and one taxonomy for
// a blocked operation — ErrClosed when the network went down, a "likely
// deadlock" timeout otherwise. It matches nothing: RecvAny hands over
// messages in arrival order and the endpoint's Mux routes them by
// (src, tag). Only the Mux's puller receives, one call at a time; any
// goroutine may deliver.
type inbox struct {
	rank    int
	size    int
	ch      chan Message
	metrics Metrics
	closed  <-chan struct{} // the network's close signal
	timeout time.Duration   // per-operation deadline; 0 = none
	// timer is the owner's receive deadline, created by the first
	// receive that blocks and re-armed by every later one. One timer
	// serves every receive because only the Mux's puller receives, one
	// call at a time; Reset and Stop drop an expiry still pending (the
	// timer semantics of Go 1.23 on, which go.mod's go line selects), so
	// a receive never sees the deadline of an earlier one.
	timer *time.Timer
}

// newInbox sizes the channel at 2p+16 slots, enough for the direct
// all-to-all worst case where every PE has one message in flight to
// every other.
func newInbox(rank, p int, closed <-chan struct{}, timeout time.Duration) inbox {
	return inbox{rank: rank, size: p, ch: make(chan Message, 2*p+16), closed: closed, timeout: timeout}
}

func (b *inbox) Rank() int         { return b.rank }
func (b *inbox) Size() int         { return b.size }
func (b *inbox) Metrics() *Metrics { return &b.metrics }

// expired names PE pe's blocked operation whose deadline fired. select
// picks pseudo-randomly among ready cases, so the timer can win against
// a closed channel that is just as ready: a straggler on a closed
// network is closure, not deadlock.
func (b *inbox) expired(pe int, op string) error {
	select {
	case <-b.closed:
		return ErrClosed
	default:
		return fmt.Errorf("comm: PE %d %s: timeout after %v; likely deadlock", pe, op, b.timeout)
	}
}

// deliver buffers m for this inbox's owner on behalf of a same-process
// sender, blocking while the channel is full.
func (b *inbox) deliver(m Message) error {
	// Fast path: room in the inbox, no timer needed.
	select {
	case b.ch <- m:
		return nil
	default:
	}
	deadline, stop := opDeadline(b.timeout)
	defer stop()
	select {
	case b.ch <- m:
		return nil
	case <-b.closed:
		return ErrClosed
	case <-deadline:
		return b.expired(m.Src, fmt.Sprintf("send to %d (tag=%d)", b.rank, m.Tag))
	}
}

// send is the part of Send every in-process delivery shares (mem,
// simnet, and a TCP endpoint's send to itself), once the caller has
// checked dst's rank and built m: it delivers m into dst's inbox and
// meters it at this endpoint.
func (b *inbox) send(dst *inbox, m Message) error {
	select {
	case <-b.closed:
		return ErrClosed
	default:
	}
	if err := dst.deliver(m); err != nil {
		return err
	}
	b.metrics.addSent(len(m.Payload))
	return nil
}

// RecvAny takes the oldest message that has arrived. One already
// waiting is taken without touching the deadline; a receive that has
// to block re-arms the endpoint's one timer (none when the timeout is
// disabled: a nil channel blocks forever in a select).
func (b *inbox) RecvAny() (Message, error) {
	var m Message
	select {
	case m = <-b.ch:
	default:
		var deadline <-chan time.Time
		if b.timeout > 0 {
			if b.timer == nil {
				b.timer = time.NewTimer(b.timeout)
			} else {
				b.timer.Reset(b.timeout)
			}
			deadline = b.timer.C
			defer b.timer.Stop()
		}
		select {
		case m = <-b.ch:
		case <-b.closed:
			return Message{}, ErrClosed
		case <-deadline:
			return Message{}, b.expired(b.rank, "recv (any)")
		}
	}
	b.metrics.addRecv(len(m.Payload))
	return m, nil
}
