package comm

import (
	"fmt"
	"time"
)

// inbox is everything of an Endpoint but Send, embedded by the mem and
// TCP endpoints: the buffered channel senders (or TCP reader goroutines)
// deliver into, the messages a tag-matched Recv pulled but did not
// want, the endpoint's traffic counters, and one taxonomy for a blocked
// operation — ErrClosed when the network went down, a "likely deadlock"
// timeout otherwise. Only the owning PE's goroutine receives; any
// goroutine may deliver.
type inbox struct {
	rank    int
	size    int
	ch      chan Message
	pending []Message // received but not yet matched
	metrics Metrics
	closed  <-chan struct{} // the network's close signal
	timeout time.Duration   // per-operation deadline; 0 = none
	// timer is the owner's receive deadline, created by the first
	// receive that blocks and re-armed by every later one. One timer
	// serves every receive because only the owner receives, one call at
	// a time; Reset and Stop drop an expiry still pending (the timer
	// semantics of Go 1.23 on, which go.mod's go line selects), so a
	// receive never sees the deadline of an earlier one.
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

// poll takes a message that has already arrived, without blocking.
func (b *inbox) poll() (Message, bool) {
	select {
	case m := <-b.ch:
		return m, true
	default:
		return Message{}, false
	}
}

// arm starts the owner's deadline for a receive about to block; the
// caller defers disarm. A disabled timeout yields a nil channel, which
// blocks forever in a select.
func (b *inbox) arm() <-chan time.Time {
	if b.timeout <= 0 {
		return nil
	}
	if b.timer == nil {
		b.timer = time.NewTimer(b.timeout)
	} else {
		b.timer.Reset(b.timeout)
	}
	return b.timer.C
}

func (b *inbox) disarm() {
	if b.timer != nil {
		b.timer.Stop()
	}
}

func (b *inbox) Recv(src, tag int) ([]byte, error) {
	if err := validRank(src, b.size); err != nil {
		return nil, err
	}
	// Check messages parked by earlier mismatched receives, then those
	// already in the channel: neither needs the deadline.
	for i, m := range b.pending {
		if m.Src == src && m.Tag == tag {
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			b.metrics.addRecv(len(m.Payload))
			return m.Payload, nil
		}
	}
	for m, ok := b.poll(); ok; m, ok = b.poll() {
		if m.Src == src && m.Tag == tag {
			b.metrics.addRecv(len(m.Payload))
			return m.Payload, nil
		}
		b.pending = append(b.pending, m)
	}
	deadline := b.arm()
	defer b.disarm()
	for {
		select {
		case m := <-b.ch:
			if m.Src == src && m.Tag == tag {
				b.metrics.addRecv(len(m.Payload))
				return m.Payload, nil
			}
			b.pending = append(b.pending, m)
		case <-b.closed:
			return nil, ErrClosed
		case <-deadline:
			return nil, b.expired(b.rank, fmt.Sprintf("recv (src=%d, tag=%d)", src, tag))
		}
	}
}

func (b *inbox) RecvAny() (Message, error) {
	// Oldest parked message first, so per-(src,tag) FIFO order survives
	// interleaving with tag-matched Recv calls.
	if len(b.pending) > 0 {
		m := b.pending[0]
		b.pending = b.pending[1:]
		b.metrics.addRecv(len(m.Payload))
		return m, nil
	}
	m, ok := b.poll()
	if !ok {
		deadline := b.arm()
		defer b.disarm()
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
