package comm

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPNode is one rank's worth of TCP transport: its listener, one
// connection slot per peer, its endpoint, its wire and dial counters,
// its closed channel and the ledger of goroutines Close waits on. A
// TCPNetwork is p of them in one process; the launcher (internal/dist)
// runs one per OS process. Lifecycle: the caller binds the listener
// before any peer dials (so the host list names live addresses while
// peers are still starting), NewTCPNode starts accepting on it, Connect
// installs the address book and pre-opens this rank's share of the
// topology, and from then on it is a comm.Network whose only usable
// endpoint is the local rank's.
type TCPNode struct {
	rank, p      int
	setupTimeout time.Duration
	dialAttempts int
	dialBackoff  time.Duration
	topo         Topology
	dial         func(from, to int, addr string, timeout time.Duration) (net.Conn, error)

	l     net.Listener
	addrs []string // peer listen addresses, indexed by rank; set by Connect
	slots []*connSlot
	ep    *tcpEndpoint

	closed chan struct{}
	once   sync.Once
	// connected flips when Connect is entered, ready once it has
	// completed: from then on a failed dial is an attributable peer death
	// (PeerDownError), not a setup abort.
	connected, ready atomic.Bool

	wireSent, wireRecv atomic.Int64
	dialsAttempted     atomic.Int64
	// dialed counts the links this node dialed. The nodes of one
	// TCPNetwork share a single counter, so there it is the network's.
	dialed *atomic.Int64

	mu       sync.Mutex
	inflight map[net.Conn]struct{} // conns mid-handshake, closed on shutdown
	workers  sync.WaitGroup        // accept loop, handshake handlers, readers
}

// NewTCPNode starts accepting peer connections for rank (one of p) on
// the already-bound listener l. The node owns l from then on: Close
// closes it, and so does a failed NewTCPNode. The node is not usable for
// traffic until Connect has installed the address book.
func NewTCPNode(rank, p int, l net.Listener, opt TCPOptions) (*TCPNode, error) {
	if p < 1 {
		l.Close()
		return nil, fmt.Errorf("comm: NewTCPNode requires p >= 1, got %d", p)
	}
	if rank < 0 || rank >= p {
		l.Close()
		return nil, fmt.Errorf("comm: NewTCPNode rank %d out of range [0,%d)", rank, p)
	}
	topo, err := ParseTopology(string(opt.Topology))
	if err != nil {
		l.Close()
		return nil, err
	}
	nd := &TCPNode{
		rank:         rank,
		p:            p,
		setupTimeout: opt.SetupTimeout,
		dialAttempts: opt.DialAttempts,
		dialBackoff:  opt.DialBackoff,
		topo:         topo,
		dial:         opt.dialFunc,
		l:            l,
		slots:        make([]*connSlot, p),
		closed:       make(chan struct{}),
		dialed:       new(atomic.Int64),
		inflight:     make(map[net.Conn]struct{}),
	}
	if nd.setupTimeout <= 0 {
		nd.setupTimeout = DefaultSetupTimeout
	}
	if nd.dialAttempts <= 0 {
		nd.dialAttempts = DefaultDialAttempts
	}
	if nd.dialBackoff <= 0 {
		nd.dialBackoff = DefaultDialBackoff
	}
	if nd.dial == nil {
		nd.dial = func(from, to int, addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	for i := range nd.slots {
		nd.slots[i] = &connSlot{}
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
// address; this rank's own entry is ignored) and pre-opens this rank's
// lower-rank-dials-higher share of the topology's edges. It returns
// once those connections are established — peers' dials toward this
// rank land asynchronously via the accept loop. The first failed edge
// shuts the node down, so its siblings fail fast instead of running out
// their dial budgets, and Connect returns that edge's error.
func (nd *TCPNode) Connect(addrs []string) error {
	if len(addrs) != nd.p {
		return fmt.Errorf("comm: Connect wants %d addresses, got %d", nd.p, len(addrs))
	}
	if !nd.connected.CompareAndSwap(false, true) {
		return fmt.Errorf("comm: node %d already connected", nd.rank)
	}
	nd.addrs = append([]string(nil), addrs...)
	var dials []int // the lower rank of each edge dials it
	for _, q := range nd.topo.Neighbors(nd.rank, nd.p) {
		if q > nd.rank {
			dials = append(dials, q)
		}
	}
	err := firstFailure(len(dials), func(i int) error {
		_, err := nd.ensure(dials[i])
		return err
	}, nd.shutdown)
	if err != nil {
		nd.Close()
		return err
	}
	nd.ready.Store(true)
	return nil
}

// Rank returns the local rank this node hosts.
func (nd *TCPNode) Rank() int { return nd.rank }

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

// ConnsOpen returns how many pair links this node dialed. Every link is
// dialed by exactly one of its two ends, so over the nodes of a run the
// values add up to the number of connections: p(p-1)/2 for a full mesh,
// p/2·log2(p) for a hypercube run that stays on its edges.
func (nd *TCPNode) ConnsOpen() int64 { return nd.dialed.Load() }

// DialsAttempted returns how many TCP dial attempts (including retries)
// this node has made.
func (nd *TCPNode) DialsAttempted() int64 { return nd.dialsAttempted.Load() }

// WireBytes returns the raw socket traffic through this node, framing
// included.
func (nd *TCPNode) WireBytes() (sent, recv int64) {
	return nd.wireSent.Load(), nd.wireRecv.Load()
}

// Meter returns this node's unified transport meter: the local
// endpoint's payload counters plus the node's wire, connection and dial
// counters. Network-wide totals are the sum over nodes.
func (nd *TCPNode) Meter() (s MeterSnapshot) {
	s.addPayload(nd.ep)
	s.WireSent, s.WireRecv = nd.WireBytes()
	s.ConnsOpen = nd.ConnsOpen()
	s.Dials = nd.DialsAttempted()
	return s
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
		nd.mu.Unlock()
		for _, s := range nd.slots {
			s.mu.Lock()
			if s.tc != nil {
				s.tc.c.Close()
			}
			s.mu.Unlock()
		}
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
