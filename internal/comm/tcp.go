package comm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPNetwork is the in-process TCP transport: p per-rank nodes over
// loopback, length-prefixed binary frames (frame.go), a buffered writer
// per connection flushed once per message, and a reader goroutine per
// connection feeding the destination inbox.
//
// Connections are opened by need, not by census: at setup only the
// edges of the configured Topology are pre-opened (the full mesh by
// default, for compatibility; a hypercube for O(p log p) scaling), and
// the first Send along any other edge triggers a lazy,
// handshake-deduplicated dial. ConnsOpen and DialsAttempted meter the
// resulting connection bill. The same node machinery, exported as
// TCPNode, runs one rank per OS process for multi-process and
// multi-host deployments (see internal/dist's launcher).
type TCPNetwork struct {
	core  *tcpCore
	nodes []*tcpNode
}

// tcpCore is the state shared by every node of one network: resolved
// options, the closed channel, wire/connection counters, and the
// goroutine ledger Close waits on. A single-node (cross-process)
// TCPNode owns a core of its own.
type tcpCore struct {
	p            int
	timeout      time.Duration // per-operation deadline; 0 = none
	setupTimeout time.Duration
	dialAttempts int
	dialBackoff  time.Duration
	topo         Topology
	dial         func(from, to int, addr string, timeout time.Duration) (net.Conn, error)

	closed chan struct{}
	once   sync.Once
	// ready flips once setup (construction or Connect) has completed:
	// from then on a failed dial is an attributable peer death
	// (PeerDownError), not a setup abort.
	ready atomic.Bool

	wireSent, wireRecv atomic.Int64
	connsDialed        atomic.Int64
	connsAccepted      atomic.Int64
	dialsAttempted     atomic.Int64

	mu       sync.Mutex
	inflight map[net.Conn]struct{} // conns mid-handshake, closed on shutdown
	nodes    []*tcpNode
	workers  sync.WaitGroup // accept loops, handshake handlers, readers
}

// tcpNode is one rank's worth of transport: its listener, its endpoint,
// and one connection slot per peer. In a TCPNetwork all p nodes share a
// core and a process; in a TCPNode exactly one does.
type tcpNode struct {
	core  *tcpCore
	rank  int
	addrs []string // peer listen addresses, indexed by rank
	l     net.Listener
	slots []*connSlot
	ep    *tcpEndpoint
}

type tcpEndpoint struct {
	node *tcpNode
	inbox
}

// Connection slot states. A slot serializes all connection
// establishment toward one peer: the first sender (or the topology
// pre-open) becomes the dialer, concurrent senders wait on the same
// in-flight handshake, and the accept path resolves simultaneous
// cross-dials with a rank tie-break.
const (
	slotEmpty   = iota // no connection, no dial in flight
	slotDialing        // this node is dialing (or awaiting the peer's winning dial)
	slotReady          // established; tc is the pair's connection
	slotDead           // dial failed for good; err is sticky
)

type connSlot struct {
	mu    sync.Mutex
	state int
	tc    *tcpConn
	err   error
	wait  chan struct{} // created on entering slotDialing; closed on leaving it
}

// tcpConn is one side of a pair link: the socket plus this side's
// frame writer. Senders serialise on mu; the reader goroutine owns
// the receive direction independently.
type tcpConn struct {
	c       net.Conn
	mu      sync.Mutex // serialises writers on this side of the connection
	w       *frameWriter
	timeout time.Duration
}

// Default TCP setup knobs; every one of them is overridable through
// TCPOptions (and from there through dist.Config), so deployments with
// slow links or staggered multi-host starts can tune the dial budget
// instead of recompiling.
const (
	// DefaultSetupTimeout bounds each dial and handshake.
	DefaultSetupTimeout = 10 * time.Second
	// DefaultDialAttempts is how many times a single connection
	// establishment retries a refused dial before giving up.
	DefaultDialAttempts = 4
	// DefaultDialBackoff is the first retry's backoff base; it doubles
	// per attempt, with jitter.
	DefaultDialBackoff = 25 * time.Millisecond
)

// TCPOptions configures NewTCPNetworkOpts and NewTCPNode. The zero
// value selects the DefaultTimeout per-operation deadline, the default
// setup knobs above, and the full-mesh topology.
type TCPOptions struct {
	// Timeout is the per-operation deadline: every blocking Send or Recv
	// that exceeds it fails with an error naming the stuck operation.
	// On this transport it is enforced as net.Conn write deadlines on
	// sends, read deadlines on mid-frame stalls, and a timer on inbox
	// matching. Zero selects DefaultTimeout, a negative value disables it.
	Timeout time.Duration
	// SetupTimeout bounds every dial and handshake, both during setup
	// and on later lazy dials; zero selects DefaultSetupTimeout.
	SetupTimeout time.Duration
	// DialAttempts caps the refused-dial retries per connection; zero
	// selects DefaultDialAttempts. Raise it for staggered multi-host
	// starts where a peer's listener may lag by seconds.
	DialAttempts int
	// DialBackoff is the base of the exponential retry backoff; zero
	// selects DefaultDialBackoff.
	DialBackoff time.Duration
	// Topology selects which edges are pre-opened at setup; the zero
	// value is TopoFullMesh (the historic eager mesh). Any edge outside
	// the topology is dialed lazily on first use.
	Topology Topology
	// dialFunc overrides the dialer, letting tests inject setup
	// failures for specific (from, to) pairs and observe the effective
	// setup timeout.
	dialFunc func(from, to int, addr string, timeout time.Duration) (net.Conn, error)
}

// newTCPCore validates and resolves opt into a core.
func newTCPCore(p int, opt TCPOptions) (*tcpCore, error) {
	topo := opt.Topology
	if topo == "" {
		topo = TopoFullMesh
	}
	if _, err := ParseTopology(string(topo)); err != nil {
		return nil, err
	}
	c := &tcpCore{
		p:            p,
		timeout:      resolveTimeout(opt.Timeout),
		setupTimeout: opt.SetupTimeout,
		dialAttempts: opt.DialAttempts,
		dialBackoff:  opt.DialBackoff,
		topo:         topo,
		closed:       make(chan struct{}),
		inflight:     make(map[net.Conn]struct{}),
	}
	if c.setupTimeout <= 0 {
		c.setupTimeout = DefaultSetupTimeout
	}
	if c.dialAttempts <= 0 {
		c.dialAttempts = DefaultDialAttempts
	}
	if c.dialBackoff <= 0 {
		c.dialBackoff = DefaultDialBackoff
	}
	c.dial = opt.dialFunc
	if c.dial == nil {
		c.dial = func(from, to int, addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return c, nil
}

func newTCPNode(core *tcpCore, rank int, l net.Listener) *tcpNode {
	nd := &tcpNode{
		core:  core,
		rank:  rank,
		l:     l,
		slots: make([]*connSlot, core.p),
	}
	for i := range nd.slots {
		nd.slots[i] = &connSlot{}
	}
	nd.ep = &tcpEndpoint{node: nd, inbox: newInbox(rank, core.p, core.closed, core.timeout)}
	return nd
}

// NewTCPNetwork builds a p-endpoint network over loopback TCP with
// default options: full-mesh topology established eagerly
// before it returns. Any setup failure aborts the network and returns
// an error — it never blocks indefinitely.
func NewTCPNetwork(p int) (*TCPNetwork, error) {
	return NewTCPNetworkOpts(p, TCPOptions{})
}

// NewTCPNetworkOpts is NewTCPNetwork with explicit options. Only the
// configured topology's edges are pre-opened (and any pre-open failure
// aborts setup with the causal error); every other pair is connected
// lazily by its first Send, and a lazy dial failure surfaces as
// comm.PeerDownError instead of aborting the network.
func NewTCPNetworkOpts(p int, opt TCPOptions) (*TCPNetwork, error) {
	if p < 1 {
		return nil, fmt.Errorf("comm: NewTCPNetwork requires p >= 1, got %d", p)
	}
	core, err := newTCPCore(p, opt)
	if err != nil {
		return nil, err
	}
	nodes := make([]*tcpNode, p)
	addrs := make([]string, p)
	for i := 0; i < p; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, nd := range nodes[:i] {
				nd.l.Close()
			}
			return nil, fmt.Errorf("comm: listen for rank %d: %w", i, err)
		}
		nodes[i] = newTCPNode(core, i, l)
		addrs[i] = l.Addr().String()
	}
	for _, nd := range nodes {
		nd.addrs = addrs
	}
	core.nodes = nodes
	for _, nd := range nodes {
		core.workers.Add(1)
		go nd.acceptLoop()
	}
	n := &TCPNetwork{core: core, nodes: nodes}
	// Pre-open the topology's edges, lower rank dialing higher. The
	// first failure shuts the sockets down so every other in-flight
	// dial and accept fails fast, and the causal error is returned.
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for _, nd := range nodes {
		for _, q := range core.topo.Neighbors(nd.rank, p) {
			if q <= nd.rank {
				continue
			}
			wg.Add(1)
			go func(nd *tcpNode, q int) {
				defer wg.Done()
				if _, err := nd.ensure(q); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					core.shutdown()
				}
			}(nd, q)
		}
	}
	wg.Wait()
	if firstErr != nil {
		core.close()
		return nil, firstErr
	}
	core.ready.Store(true)
	return n, nil
}

// ensure returns the established connection to peer, dialing it first
// if needed. Concurrent callers share one handshake; the loser of a
// simultaneous cross-dial adopts the winner's connection. A slot whose
// dial has conclusively failed stays dead and keeps returning its
// error.
func (nd *tcpNode) ensure(peer int) (*tcpConn, error) {
	s := nd.slots[peer]
	for {
		s.mu.Lock()
		switch s.state {
		case slotReady:
			tc := s.tc
			s.mu.Unlock()
			return tc, nil
		case slotDead:
			err := s.err
			s.mu.Unlock()
			return nil, err
		case slotEmpty:
			s.state = slotDialing
			s.wait = make(chan struct{})
			s.mu.Unlock()
			nd.dialPeer(peer) // leaves the slot ready or dead
		case slotDialing:
			ch := s.wait
			s.mu.Unlock()
			select {
			case <-ch:
			case <-nd.core.closed:
				return nil, ErrClosed
			}
		}
	}
}

// errDialRejected marks a dial that reached the peer but was superseded
// by the peer's own simultaneous dial (rank tie-break): the winning
// connection arrives through this node's accept loop instead.
var errDialRejected = errors.New("comm: dial superseded by peer's connection")

// dialPeer performs one connection establishment toward peer and
// resolves the slot. The caller must have moved the slot to
// slotDialing.
func (nd *tcpNode) dialPeer(peer int) {
	core := nd.core
	s := nd.slots[peer]
	tc, err := nd.dialHandshake(peer)
	if err == nil {
		s.mu.Lock()
		if s.state == slotReady {
			// Defensive: an accepted connection attached concurrently.
			// Keep it; the protocol should never ACK both sides.
			s.mu.Unlock()
			tc.c.Close()
			return
		}
		s.tc = tc
		s.state = slotReady
		close(s.wait)
		s.mu.Unlock()
		core.connsDialed.Add(1)
		core.workers.Add(1)
		go nd.readLoop(nd.ep, peer, tc)
		return
	}
	if errors.Is(err, errDialRejected) {
		// The peer is dialing us and won the tie-break; its connection
		// lands via our accept loop, which flips the slot to ready.
		timer := time.NewTimer(core.setupTimeout)
		defer timer.Stop()
		s.mu.Lock()
		if s.state != slotDialing {
			s.mu.Unlock()
			return
		}
		ch := s.wait
		s.mu.Unlock()
		select {
		case <-ch:
			return
		case <-core.closed:
			nd.failDial(peer, ErrClosed)
			return
		case <-timer.C:
			nd.failDial(peer, fmt.Errorf("peer %d superseded our dial but its connection never arrived within %v", peer, core.setupTimeout))
			return
		}
	}
	nd.failDial(peer, err)
}

// failDial marks peer's slot dead with the attributed error. Before
// setup completes the cause is reported verbatim (it aborts the whole
// network); after setup it is wrapped in PeerDownError so lazy-dial
// failures flow into the membership/attribution taxonomy — a peer that
// cannot be dialed mid-run is down, not "timed out".
func (nd *tcpNode) failDial(peer int, cause error) {
	s := nd.slots[peer]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != slotDialing {
		return
	}
	s.state = slotDead
	if nd.core.ready.Load() {
		s.err = fmt.Errorf("%w (lazy dial %s failed: %v)", &PeerDownError{Rank: peer}, nd.addrs[peer], cause)
	} else {
		s.err = fmt.Errorf("comm: rank %d dial %d: %w", nd.rank, peer, cause)
	}
	close(s.wait)
}

// dialHandshake dials peer with bounded retries and runs the dialer
// side of the handshake: send HELLO, await the acceptor's ACK. A
// connection that reaches the peer but is closed without an ACK lost a
// simultaneous-dial tie-break and reports errDialRejected.
func (nd *tcpNode) dialHandshake(peer int) (*tcpConn, error) {
	core := nd.core
	conn, err := nd.dialRetry(peer, nd.addrs[peer])
	if err != nil {
		return nil, err
	}
	core.registerInflight(conn)
	defer core.unregisterInflight(conn)
	if err := writeHello(conn, nd.rank, core.p, core.setupTimeout); err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake to %d: %w", peer, err)
	}
	if err := readAck(conn, core.setupTimeout); err != nil {
		conn.Close()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
			return nil, errDialRejected
		}
		return nil, fmt.Errorf("handshake to %d: %w", peer, err)
	}
	cc := &countingConn{Conn: conn, core: core}
	return &tcpConn{c: cc, w: newFrameWriter(cc), timeout: core.timeout}, nil
}

// dialRetry wraps each dial in bounded exponential backoff with jitter:
// in a staggered multi-process start a peer's listener may not be up
// yet, and its refused connection must not fail the link. The attempt
// cap keeps a genuinely dead peer failing well inside the setup budget,
// and the loop bails out early once the network is shutting down.
func (nd *tcpNode) dialRetry(peer int, addr string) (net.Conn, error) {
	core := nd.core
	backoff := core.dialBackoff
	var err error
	for attempt := 0; attempt < core.dialAttempts; attempt++ {
		if core.isClosed() {
			if err == nil {
				err = ErrClosed
			}
			break
		}
		core.dialsAttempted.Add(1)
		var conn net.Conn
		conn, err = core.dial(nd.rank, peer, addr, core.setupTimeout)
		if err == nil {
			return conn, nil
		}
		if attempt == core.dialAttempts-1 {
			break
		}
		time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff)/2+1)))
		backoff *= 2
	}
	return nil, err
}

// acceptLoop admits inbound connections for this node's lifetime; each
// handshake runs in its own goroutine so a stalled peer cannot block
// later accepts.
func (nd *tcpNode) acceptLoop() {
	defer nd.core.workers.Done()
	for {
		conn, err := nd.l.Accept()
		if err != nil {
			return // listener closed: network shutting down
		}
		nd.core.registerInflight(conn)
		nd.core.workers.Add(1)
		go nd.handleAccept(conn)
	}
}

// handleAccept runs the acceptor side of the handshake: read HELLO,
// decide the tie-break under the slot lock, attach-and-ACK or close.
func (nd *tcpNode) handleAccept(conn net.Conn) {
	core := nd.core
	defer core.workers.Done()
	defer core.unregisterInflight(conn)
	peer, p, err := readHello(conn, core.setupTimeout)
	if err != nil || p != core.p || peer < 0 || peer >= core.p || peer == nd.rank {
		conn.Close()
		return
	}
	s := nd.slots[peer]
	s.mu.Lock()
	// Tie-break: an empty slot always accepts; a slot we are dialing
	// accepts only the lower rank's connection (the peer applies the
	// mirrored rule, so exactly one of two simultaneous dials survives);
	// ready and dead slots refuse duplicates.
	accept := s.state == slotEmpty || (s.state == slotDialing && peer < nd.rank)
	if !accept {
		s.mu.Unlock()
		conn.Close()
		return
	}
	cc := &countingConn{Conn: conn, core: core}
	tc := &tcpConn{c: cc, w: newFrameWriter(cc), timeout: core.timeout}
	wasDialing := s.state == slotDialing
	s.tc = tc
	s.state = slotReady
	if wasDialing {
		close(s.wait)
	}
	s.mu.Unlock()
	core.connsAccepted.Add(1)
	core.workers.Add(1)
	go nd.readLoop(nd.ep, peer, tc)
	// ACK after the reader is live so no frame can race past us. A
	// failed ACK write leaves the conn broken; the reader notices.
	_ = writeAck(conn, core.setupTimeout)
}

// Handshake wire format. HELLO identifies the dialer and the expected
// world size, written raw so the frame stream starts clean right
// after; ACK is the acceptor's single-byte go-ahead, which
// doubles as the simultaneous-dial tie-break verdict (a rejected dial
// sees its connection closed instead).
const (
	helloMagic = 0x52505254 // "RPRT"
	helloLen   = 16         // magic u32 | p u32 | rank u64, little-endian
	ackByte    = 0x2a
)

func writeHello(conn net.Conn, rank, p int, timeout time.Duration) error {
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	defer conn.SetWriteDeadline(time.Time{})
	var buf [helloLen]byte
	binary.LittleEndian.PutUint32(buf[0:], helloMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(p))
	binary.LittleEndian.PutUint64(buf[8:], uint64(rank))
	_, err := conn.Write(buf[:])
	return err
}

func readHello(conn net.Conn, timeout time.Duration) (rank, p int, err error) {
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return 0, 0, err
	}
	defer conn.SetReadDeadline(time.Time{})
	var buf [helloLen]byte
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		return 0, 0, err
	}
	if binary.LittleEndian.Uint32(buf[0:]) != helloMagic {
		return 0, 0, fmt.Errorf("comm: bad handshake magic")
	}
	p = int(binary.LittleEndian.Uint32(buf[4:]))
	rank = int(int64(binary.LittleEndian.Uint64(buf[8:])))
	return rank, p, nil
}

func writeAck(conn net.Conn, timeout time.Duration) error {
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	defer conn.SetWriteDeadline(time.Time{})
	_, err := conn.Write([]byte{ackByte})
	return err
}

func readAck(conn net.Conn, timeout time.Duration) error {
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	defer conn.SetReadDeadline(time.Time{})
	var buf [1]byte
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		return err
	}
	if buf[0] != ackByte {
		return fmt.Errorf("comm: bad handshake ack %#x", buf[0])
	}
	return nil
}

// readLoop delivers peer's inbound messages to ep's inbox until the
// connection or the network goes down.
func (nd *tcpNode) readLoop(ep *tcpEndpoint, peer int, tc *tcpConn) {
	core := nd.core
	defer core.workers.Done()
	r := &frameReader{c: tc.c, br: bufio.NewReaderSize(tc.c, tcpBufSize), timeout: core.timeout}
	for {
		m, err := r.readMsg()
		if err != nil {
			return // connection closed, peer gone, or mid-frame stall
		}
		if m.Src != peer {
			return // protocol violation; drop the link
		}
		select {
		case ep.ch <- m:
		case <-core.closed:
			return
		}
	}
}

func (c *tcpCore) registerInflight(conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inflight != nil {
		c.inflight[conn] = struct{}{}
	}
}

func (c *tcpCore) unregisterInflight(conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.inflight, conn)
}

// shutdown closes every socket exactly once: listeners, established
// connections, and connections still mid-handshake, so every blocked
// accept, dial, handshake, and read fails fast. It does not wait for
// the workers; close does.
func (c *tcpCore) shutdown() {
	c.once.Do(func() {
		close(c.closed)
		c.mu.Lock()
		nodes := c.nodes
		for conn := range c.inflight {
			conn.Close()
		}
		c.mu.Unlock()
		for _, nd := range nodes {
			nd.l.Close()
			for _, s := range nd.slots {
				s.mu.Lock()
				if s.tc != nil {
					s.tc.c.Close()
				}
				s.mu.Unlock()
			}
		}
	})
}

// close shuts the sockets down and waits until every transport
// goroutine has exited.
func (c *tcpCore) close() {
	c.shutdown()
	c.workers.Wait()
}

// tcpBufSize is the per-connection read and write buffer. Large enough
// that a typical collective message (header plus a few KB of words)
// reaches the socket in one write.
const tcpBufSize = 32 << 10

// frameWriter encodes frames (frame.go) onto one connection: writeMsg
// buffers, flush pushes everything to the socket — once per message.
type frameWriter struct{ bw *bufio.Writer }

func newFrameWriter(conn net.Conn) *frameWriter {
	return &frameWriter{bw: bufio.NewWriterSize(conn, tcpBufSize)}
}

func (w *frameWriter) writeMsg(m Message) error { return writeFrame(w.bw, m) }
func (w *frameWriter) flush() error             { return w.bw.Flush() }

// frameReader decodes frames off one connection. An idle connection may
// legitimately stay silent forever, so the wait for a frame's first
// byte carries no deadline; once a frame has started, a peer stalling
// mid-frame is a fault and the rest must arrive within the timeout.
type frameReader struct {
	c       net.Conn
	br      *bufio.Reader
	timeout time.Duration
}

func (r *frameReader) readMsg() (Message, error) {
	if r.timeout > 0 {
		if err := r.c.SetReadDeadline(time.Time{}); err != nil {
			return Message{}, err
		}
		if _, err := r.br.Peek(1); err != nil {
			return Message{}, err
		}
		if err := r.c.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
			return Message{}, err
		}
	}
	return readFrame(r.br)
}

// countingConn meters raw socket traffic — framing included — into the
// owning core's wire counters. The per-endpoint Metrics count payload
// bytes only (the paper's volume metric); the difference between the
// two is the codec's framing overhead.
type countingConn struct {
	net.Conn
	core *tcpCore
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.core.wireRecv.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.core.wireSent.Add(int64(n))
	return n, err
}

// Size returns the number of PEs.
func (n *TCPNetwork) Size() int { return n.core.p }

// Endpoint returns rank's endpoint.
func (n *TCPNetwork) Endpoint(r int) Endpoint { return n.nodes[r].ep }

// Topology returns the connection graph pre-opened at setup. The dist
// runtime sniffs it to route the collectives over pre-opened edges.
func (n *TCPNetwork) Topology() Topology { return n.core.topo }

// WireBytes returns the total bytes written to and read from the
// network's sockets across all connections, message framing included.
func (n *TCPNetwork) WireBytes() (sent, recv int64) {
	return n.core.wireSent.Load(), n.core.wireRecv.Load()
}

// ConnsOpen returns how many TCP connections the network has
// established, each pair link counted once (at its dialer). A full mesh
// costs p(p-1)/2; a hypercube run that stays on its edges costs
// p/2·log2(p) — the quantity the acceptance tests bound.
func (n *TCPNetwork) ConnsOpen() int64 { return n.core.connsDialed.Load() }

// DialsAttempted returns how many TCP dial attempts (including retries)
// the network has made.
func (n *TCPNetwork) DialsAttempted() int64 { return n.core.dialsAttempted.Load() }

// Meter returns the unified transport meter: per-endpoint payload
// sums plus the socket-level wire and connection counters.
func (n *TCPNetwork) Meter() MeterSnapshot {
	s := endpointMeter(n)
	s.WireSent, s.WireRecv = n.WireBytes()
	s.ConnsOpen = n.ConnsOpen()
	s.Dials = n.DialsAttempted()
	return s
}

// Close tears the network down: pending and future operations fail with
// ErrClosed, and all transport goroutines have exited when it returns.
func (n *TCPNetwork) Close() error {
	n.core.close()
	return nil
}

func (c *tcpCore) isClosed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// mapConnErr folds socket-level failures into the transport's error
// vocabulary: operations on a torn-down network report ErrClosed (so
// dist's first-error teardown attributes the root cause instead of the
// victims' "use of closed network connection" noise), and deadline
// expiries say "timeout".
func (c *tcpCore) mapConnErr(err error) error {
	if errors.Is(err, net.ErrClosed) || c.isClosed() {
		return ErrClosed
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("timeout after %v: %w", c.timeout, err)
	}
	return err
}

// ConnsOpen exposes the dialed-connection count through the endpoint,
// so layers that only hold an Endpoint (collective.Comm) can meter the
// connection bill. Counted at the dialer: in-process networks report
// each pair link once; across processes the per-rank counts sum to the
// network-wide total.
func (e *tcpEndpoint) ConnsOpen() int64 { return e.node.core.connsDialed.Load() }

func (e *tcpEndpoint) Send(dst, tag int, payload []byte) error {
	core := e.node.core
	if err := validRank(dst, e.Size()); err != nil {
		return err
	}
	msg := Message{Src: e.rank, Tag: tag, Payload: payload}
	if core.isClosed() {
		return fmt.Errorf("comm: PE %d send to %d: %w", e.rank, dst, ErrClosed)
	}
	if dst == e.rank {
		if err := e.deliver(msg); err != nil {
			return err
		}
		e.metrics.addSent(len(payload))
		return nil
	}
	// Lazy establishment: the first send along an edge dials it (or
	// joins an in-flight handshake); later sends find the slot ready.
	tc, err := e.node.ensure(dst)
	if err != nil {
		return fmt.Errorf("comm: PE %d send to %d: %w", e.rank, dst, err)
	}
	if err := tc.send(msg); err != nil {
		return fmt.Errorf("comm: PE %d send to %d: %w", e.rank, dst, core.mapConnErr(err))
	}
	e.metrics.addSent(len(payload))
	return nil
}

// send encodes and flushes one message under this side's write lock,
// bounded by the connection's write deadline.
func (tc *tcpConn) send(m Message) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.timeout > 0 {
		if err := tc.c.SetWriteDeadline(time.Now().Add(tc.timeout)); err != nil {
			return err
		}
	}
	if err := tc.w.writeMsg(m); err != nil {
		return err
	}
	return tc.w.flush()
}
