package comm

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPNode is one rank's worth of TCP transport: its listener, its links
// to the other p−1 ranks, its endpoint, its wire and dial counters, its
// closed channel and the ledger of goroutines Close waits on. A
// TCPNetwork is p of them in one process; the launcher (internal/dist)
// runs one per OS process. Lifecycle: the caller binds the listener
// before any peer dials (so the host list names live addresses while
// peers are still starting), NewTCPNode starts accepting on it, Connect
// brings up all p−1 links, and from then on it is a comm.Network whose
// only usable endpoint is the local rank's.
type TCPNode struct {
	rank, p      int
	setupTimeout time.Duration
	dialBackoff  time.Duration
	dial         func(from, to int, addr string, timeout time.Duration) (net.Conn, error)

	l  net.Listener
	ep *tcpEndpoint

	closed    chan struct{}
	once      sync.Once
	connected atomic.Bool // Connect has been entered

	wireSent, wireRecv atomic.Int64
	dialsAttempted     atomic.Int64
	// dialed counts the links this node dialed. The nodes of one
	// TCPNetwork share a single counter, so there it is the network's.
	dialed *atomic.Int64

	mu sync.Mutex
	// conns[q] is the link to rank q. Entries are set under mu while
	// Connect runs and never change after it has returned.
	conns []*tcpConn
	// hello[q] marks a HELLO from lower rank q as taken: the acceptor
	// ACKs only the first.
	hello []bool
	// arrived counts the lower ranks' attached links; lowerUp closes when
	// it reaches rank.
	arrived  int
	lowerUp  chan struct{}
	inflight map[net.Conn]struct{} // conns mid-handshake, closed on shutdown
	workers  sync.WaitGroup        // accept loop, handshake handlers, readers
}

// NewTCPNode starts accepting peer connections for rank (one of p) on
// the already-bound listener l. The node owns l from then on: Close
// closes it, and so does a failed NewTCPNode. The node is not usable for
// traffic until Connect has returned.
func NewTCPNode(rank, p int, l net.Listener, opt TCPOptions) (*TCPNode, error) {
	if p < 1 {
		l.Close()
		return nil, fmt.Errorf("comm: NewTCPNode requires p >= 1, got %d", p)
	}
	if rank < 0 || rank >= p {
		l.Close()
		return nil, fmt.Errorf("comm: NewTCPNode rank %d out of range [0,%d)", rank, p)
	}
	nd := &TCPNode{
		rank:         rank,
		p:            p,
		setupTimeout: opt.SetupTimeout,
		dialBackoff:  opt.dialBackoff,
		dial:         opt.dialFunc,
		l:            l,
		closed:       make(chan struct{}),
		dialed:       new(atomic.Int64),
		conns:        make([]*tcpConn, p),
		hello:        make([]bool, p),
		lowerUp:      make(chan struct{}),
		inflight:     make(map[net.Conn]struct{}),
	}
	if rank == 0 {
		close(nd.lowerUp)
	}
	if nd.setupTimeout <= 0 {
		nd.setupTimeout = DefaultSetupTimeout
	}
	if nd.dialBackoff <= 0 {
		nd.dialBackoff = defaultDialBackoff
	}
	if nd.dial == nil {
		nd.dial = func(from, to int, addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	nd.ep = &tcpEndpoint{node: nd, inbox: newInbox(rank, p, nd.closed, resolveTimeout(opt.Timeout))}
	nd.workers.Add(1)
	go nd.acceptLoop()
	return nd, nil
}

// Addr returns the listener's address. Peers reach this rank through
// its host list entry, which need not be this string: a listener bound
// to an unspecified host ("0.0.0.0") is listed under a routable one.
func (nd *TCPNode) Addr() string { return nd.l.Addr().String() }

// Connect installs the address book (addrs[r] is rank r's listener
// address; this rank's own entry is ignored) and brings up this rank's
// p−1 links: it dials every higher rank, one after another in rank
// order, then waits until every lower rank's link has arrived through
// the accept loop. All of it must finish within SetupTimeout of the
// call: a refused dial is retried until then, and a lower rank whose
// link has not arrived by then is named in the error. Any failure closes
// the node. Once Connect has returned nil the links never change.
func (nd *TCPNode) Connect(addrs []string) error {
	if len(addrs) != nd.p {
		return fmt.Errorf("comm: Connect wants %d addresses, got %d", nd.p, len(addrs))
	}
	if !nd.connected.CompareAndSwap(false, true) {
		return fmt.Errorf("comm: node %d already connected", nd.rank)
	}
	deadline := time.Now().Add(nd.setupTimeout)
	for q := nd.rank + 1; q < nd.p; q++ {
		if err := nd.dialPeer(q, addrs[q], deadline); err != nil {
			nd.Close()
			return fmt.Errorf("comm: rank %d dial %d: %w", nd.rank, q, err)
		}
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-nd.lowerUp:
	case <-nd.closed:
	case <-timer.C:
	}
	var missing []int
	nd.mu.Lock()
	for q := 0; q < nd.rank; q++ {
		if nd.conns[q] == nil {
			missing = append(missing, q)
		}
	}
	nd.mu.Unlock()
	switch {
	case nd.isClosed():
		return fmt.Errorf("comm: rank %d connect: %w", nd.rank, ErrClosed)
	case len(missing) > 0:
		nd.Close()
		return fmt.Errorf("comm: rank %d: no link from rank(s) %v within the %v setup timeout", nd.rank, missing, nd.setupTimeout)
	}
	return nil
}

// Size returns the number of PEs in the distributed run.
func (nd *TCPNode) Size() int { return nd.p }

// Endpoint returns the local rank's endpoint. Unlike the in-process
// transports a TCPNode hosts exactly one rank, so asking for any other
// rank's endpoint is a programming error and panics.
func (nd *TCPNode) Endpoint(r int) Endpoint {
	if r != nd.rank {
		panic(fmt.Sprintf("comm: TCPNode hosts only rank %d; Endpoint(%d) lives in another process", nd.rank, r))
	}
	return nd.ep
}

// ConnsOpen returns how many pair links this node dialed: one per higher
// rank. Every link is dialed by exactly one of its two ends, so over the
// nodes of a run the values add up to the number of connections,
// p(p-1)/2.
func (nd *TCPNode) ConnsOpen() int64 { return nd.dialed.Load() }

// Meter returns this node's unified transport meter: the local
// endpoint's payload counters plus the node's wire, connection and dial
// counters. A run's totals are the sum over its processes' nodes (the
// nodes of one in-process TCPNetwork share their dialed counter, which
// TCPNetwork.Meter reads once).
func (nd *TCPNode) Meter() (s MeterSnapshot) {
	s.addPayload(nd.ep)
	s.addWire(nd)
	s.ConnsOpen = nd.ConnsOpen()
	return s
}

// addWire adds nd's socket traffic, framing included, and its dial
// attempts, retries included, to s.
func (s *MeterSnapshot) addWire(nd *TCPNode) {
	s.WireSent += nd.wireSent.Load()
	s.WireRecv += nd.wireRecv.Load()
	s.Dials += nd.dialsAttempted.Load()
}

// shutdown closes every socket of the node exactly once: the listener,
// established connections, and connections still mid-handshake, so every
// blocked accept, dial, handshake, and read fails fast. It does not wait
// for the workers; Close does.
func (nd *TCPNode) shutdown() {
	nd.once.Do(func() {
		close(nd.closed)
		nd.l.Close()
		nd.mu.Lock()
		for conn := range nd.inflight {
			conn.Close()
		}
		for _, tc := range nd.conns {
			if tc != nil {
				tc.c.Close()
			}
		}
		nd.mu.Unlock()
	})
}

// Close tears the node down: pending and future operations fail with
// ErrClosed, and all its transport goroutines have exited when it
// returns. Peers observe the usual connection loss semantics (their
// sends to this rank fail, their reads return).
func (nd *TCPNode) Close() error {
	nd.shutdown()
	nd.workers.Wait()
	return nil
}

func (nd *TCPNode) isClosed() bool {
	select {
	case <-nd.closed:
		return true
	default:
		return false
	}
}
