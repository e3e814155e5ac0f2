package comm

import (
	"fmt"
	"sync"
	"time"
)

// memNetwork is the in-memory transport: one buffered inbox channel per
// endpoint. It carries no serialisation overhead and is the default for
// simulations with hundreds of PEs.
type memNetwork struct {
	eps     []*memEndpoint
	closed  chan struct{}
	once    sync.Once
	timeout time.Duration // per-operation deadline; 0 = none
}

type memEndpoint struct {
	net     *memNetwork
	rank    int
	inbox   chan Message
	pending []Message // messages received but not yet matched
	metrics Metrics
}

// NewMemNetwork creates an in-memory network of p endpoints with the
// DefaultTimeout deadlock backstop. Inboxes are buffered with 2p+16
// slots, enough for the direct all-to-all worst case where every PE has
// one message in flight to every other.
func NewMemNetwork(p int) Network {
	return NewMemNetworkTimeout(p, 0)
}

// NewMemNetworkTimeout is NewMemNetwork with an explicit per-operation
// deadline: every blocking Send or Recv that exceeds it fails with an
// error naming the stuck operation. Zero selects DefaultTimeout, a
// negative value disables the deadline.
func NewMemNetworkTimeout(p int, timeout time.Duration) Network {
	if p < 1 {
		panic("comm: NewMemNetwork requires p >= 1")
	}
	n := &memNetwork{
		eps:     make([]*memEndpoint, p),
		closed:  make(chan struct{}),
		timeout: resolveTimeout(timeout),
	}
	for i := range n.eps {
		n.eps[i] = &memEndpoint{
			net:   n,
			rank:  i,
			inbox: make(chan Message, 2*p+16),
		}
	}
	return n
}

func (n *memNetwork) Size() int { return len(n.eps) }

func (n *memNetwork) Endpoint(rank int) Endpoint { return n.eps[rank] }

// Meter returns the unified transport meter; mem is connectionless,
// so ConnsOpen is -1.
func (n *memNetwork) Meter() MeterSnapshot { return endpointMeter(n) }

func (n *memNetwork) Close() error {
	n.once.Do(func() { close(n.closed) })
	return nil
}

// isClosed reports whether Close has run, for deadline branches where
// select's pseudo-random choice may pick the timer over the closed
// channel even though both are ready.
func (n *memNetwork) isClosed() bool {
	select {
	case <-n.closed:
		return true
	default:
		return false
	}
}

func (e *memEndpoint) Rank() int         { return e.rank }
func (e *memEndpoint) Size() int         { return len(e.net.eps) }
func (e *memEndpoint) Metrics() *Metrics { return &e.metrics }

func (e *memEndpoint) Send(dst, tag int, payload []byte) error {
	if err := validRank(dst, e.Size()); err != nil {
		return err
	}
	msg := Message{Src: e.rank, Tag: tag, Payload: payload}
	select {
	case <-e.net.closed:
		return ErrClosed
	default:
	}
	target := e.net.eps[dst]
	// Fast path: room in the inbox, no timer needed.
	select {
	case target.inbox <- msg:
		e.metrics.addSent(len(payload))
		return nil
	default:
	}
	deadline, stop := opDeadline(e.net.timeout)
	defer stop()
	select {
	case target.inbox <- msg:
		e.metrics.addSent(len(payload))
		return nil
	case <-e.net.closed:
		return ErrClosed
	case <-deadline:
		if e.net.isClosed() {
			// Teardown raced the deadline: a straggler on a closed network
			// is closure, not deadlock — keep the taxonomy uniform with TCP.
			return ErrClosed
		}
		return fmt.Errorf("comm: PE %d send to %d (tag=%d): timeout after %v; likely deadlock", e.rank, dst, tag, e.net.timeout)
	}
}

func (e *memEndpoint) Recv(src, tag int) ([]byte, error) {
	if err := validRank(src, e.Size()); err != nil {
		return nil, err
	}
	// Check messages parked by earlier mismatched receives.
	for i, m := range e.pending {
		if m.Src == src && m.Tag == tag {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			e.metrics.addRecv(len(m.Payload))
			return m.Payload, nil
		}
	}
	deadline, stop := opDeadline(e.net.timeout)
	defer stop()
	for {
		select {
		case m := <-e.inbox:
			if m.Src == src && m.Tag == tag {
				e.metrics.addRecv(len(m.Payload))
				return m.Payload, nil
			}
			e.pending = append(e.pending, m)
		case <-e.net.closed:
			return nil, ErrClosed
		case <-deadline:
			if e.net.isClosed() {
				return nil, ErrClosed
			}
			return nil, fmt.Errorf("comm: PE %d recv (src=%d, tag=%d): timeout after %v; likely deadlock", e.rank, src, tag, e.net.timeout)
		}
	}
}

func (e *memEndpoint) RecvAny() (Message, error) {
	// Oldest parked message first, so per-(src,tag) FIFO order survives
	// interleaving with tag-matched Recv calls.
	if len(e.pending) > 0 {
		m := e.pending[0]
		e.pending = e.pending[1:]
		e.metrics.addRecv(len(m.Payload))
		return m, nil
	}
	deadline, stop := opDeadline(e.net.timeout)
	defer stop()
	select {
	case m := <-e.inbox:
		e.metrics.addRecv(len(m.Payload))
		return m, nil
	case <-e.net.closed:
		return Message{}, ErrClosed
	case <-deadline:
		if e.net.isClosed() {
			return Message{}, ErrClosed
		}
		return Message{}, fmt.Errorf("comm: PE %d recv (any): timeout after %v; likely deadlock", e.rank, e.net.timeout)
	}
}
