package comm

import (
	"sync"
	"time"
)

// memNetwork is the in-memory transport: one buffered inbox channel per
// endpoint. It carries no serialisation overhead and is the default for
// simulations with hundreds of PEs.
type memNetwork struct{ localNetwork[*memEndpoint] }

type memEndpoint struct {
	net *memNetwork
	inbox
	shim recvShim
}

// localNetwork is what the same-process networks, mem and simnet, share:
// their endpoints, the close signal the endpoints' inboxes watch, and
// the Network methods that need nothing else.
type localNetwork[E Endpoint] struct {
	eps    []E
	closed chan struct{}
	once   sync.Once
}

// newLocalNetwork makes room for p endpoints, which the caller builds.
func newLocalNetwork[E Endpoint](p int) localNetwork[E] {
	if p < 1 {
		panic("comm: a network requires p >= 1")
	}
	return localNetwork[E]{eps: make([]E, p), closed: make(chan struct{})}
}

// NewMemNetworkTimeout creates an in-memory network of p endpoints with
// a per-operation deadline: every blocking Send or Recv that exceeds it
// fails with an error naming the stuck operation. Zero selects the
// DefaultTimeout deadlock backstop, a negative value disables the
// deadline.
func NewMemNetworkTimeout(p int, timeout time.Duration) Network {
	n := &memNetwork{newLocalNetwork[*memEndpoint](p)}
	for i := range n.eps {
		n.eps[i] = &memEndpoint{net: n, inbox: newInbox(i, p, n.closed, resolveTimeout(timeout))}
	}
	return n
}

// Size returns the number of PEs.
func (n *localNetwork[E]) Size() int { return len(n.eps) }

// Endpoint returns rank's endpoint.
func (n *localNetwork[E]) Endpoint(rank int) Endpoint { return n.eps[rank] }

// Meter returns the unified transport meter: the endpoints' payload
// counters; a same-process network is connectionless, so ConnsOpen is -1.
func (n *localNetwork[E]) Meter() MeterSnapshot { return endpointMeter(n) }

// Close tears the network down: pending and future operations fail
// with ErrClosed.
func (n *localNetwork[E]) Close() error {
	n.once.Do(func() { close(n.closed) })
	return nil
}

func (e *memEndpoint) Send(dst, tag int, payload []byte) error {
	if err := validRank(dst, e.size); err != nil {
		return err
	}
	return e.send(&e.net.eps[dst].inbox, Message{Src: e.rank, Tag: tag, Payload: payload})
}
