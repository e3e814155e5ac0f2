package comm

import (
	"sync"
	"time"
)

// memNetwork is the in-memory transport: one buffered inbox channel per
// endpoint. It carries no serialisation overhead and is the default for
// simulations with hundreds of PEs.
type memNetwork struct {
	eps    []*memEndpoint
	closed chan struct{}
	once   sync.Once
}

type memEndpoint struct {
	net *memNetwork
	inbox
	shim recvShim
}

// NewMemNetworkTimeout creates an in-memory network of p endpoints with
// a per-operation deadline: every blocking Send or Recv that exceeds it
// fails with an error naming the stuck operation. Zero selects the
// DefaultTimeout deadlock backstop, a negative value disables the
// deadline.
func NewMemNetworkTimeout(p int, timeout time.Duration) Network {
	if p < 1 {
		panic("comm: NewMemNetworkTimeout requires p >= 1")
	}
	n := &memNetwork{eps: make([]*memEndpoint, p), closed: make(chan struct{})}
	for i := range n.eps {
		n.eps[i] = &memEndpoint{net: n, inbox: newInbox(i, p, n.closed, resolveTimeout(timeout))}
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

func (e *memEndpoint) Send(dst, tag int, payload []byte) error {
	if err := validRank(dst, e.size); err != nil {
		return err
	}
	select {
	case <-e.closed:
		return ErrClosed
	default:
	}
	if err := e.net.eps[dst].deliver(Message{Src: e.rank, Tag: tag, Payload: payload}); err != nil {
		return err
	}
	e.metrics.addSent(len(payload))
	return nil
}
