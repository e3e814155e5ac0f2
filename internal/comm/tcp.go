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
	"time"
)

// TCPNetwork is the in-process TCP transport: p TCPNodes over loopback,
// length-prefixed binary frames (frame.go), a buffered writer per
// connection flushed once per message, and a reader goroutine per
// connection feeding the destination inbox.
//
// There is one bring-up — NewTCPNode accepts on a rank's bound
// listener, Connect pre-opens its share of the topology — which
// NewTCPNetworkOpts runs p times in one process and the launcher
// (internal/dist) once per OS process. Connections are opened by need, not by census: only the
// edges of the configured Topology are pre-opened (the full mesh by
// default; a hypercube for O(p log p) scaling), and the first Send along
// any other edge triggers a lazy, handshake-deduplicated dial. ConnsOpen
// (one definition: links dialed, so each pair link counts once) and
// DialsAttempted meter the resulting connection bill.
type TCPNetwork struct{ nodes []*TCPNode }

type tcpEndpoint struct {
	node *TCPNode
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
// write buffer, which takes a frame (frame.go) and is flushed once per
// message. Senders serialise on mu; the reader goroutine owns the
// receive direction independently.
type tcpConn struct {
	c       net.Conn
	mu      sync.Mutex // serialises writers on this side of the connection
	w       *bufio.Writer
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
	// sends, read deadlines on mid-frame stalls, and the endpoint's one
	// receive timer, re-armed only by a receive that has to wait for its
	// message. Zero selects DefaultTimeout, a negative value disables it.
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

// NewTCPNetwork builds a p-endpoint network over loopback TCP with
// default options: the full mesh, established before it returns. Any
// setup failure aborts the network and returns an error.
func NewTCPNetwork(p int) (*TCPNetwork, error) {
	return NewTCPNetworkOpts(p, TCPOptions{})
}

// NewTCPNetworkOpts is NewTCPNetwork with explicit options: p nodes,
// their addresses collected, their Connects run concurrently. The first
// pre-open failure shuts every node down and is returned as the causal
// error; pairs outside the topology are connected lazily by their first
// Send, and a lazy dial failure surfaces as comm.PeerDownError instead
// of aborting the network.
func NewTCPNetworkOpts(p int, opt TCPOptions) (*TCPNetwork, error) {
	if p < 1 {
		return nil, fmt.Errorf("comm: NewTCPNetwork requires p >= 1, got %d", p)
	}
	n := &TCPNetwork{nodes: make([]*TCPNode, 0, p)}
	addrs := make([]string, p)
	for r := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			n.Close()
			return nil, fmt.Errorf("comm: listen for rank %d: %w", r, err)
		}
		nd, err := NewTCPNode(r, p, l, opt)
		if err != nil {
			n.Close()
			return nil, err
		}
		n.nodes = append(n.nodes, nd)
		// One connection bill per network, readable from any endpoint.
		nd.dialed = n.nodes[0].dialed
		addrs[r] = nd.Addr()
	}
	err := firstFailure(p, func(r int) error { return n.nodes[r].Connect(addrs) }, n.shutdown)
	if err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// firstFailure runs task(0..n-1) concurrently and waits for all of them.
// The first failure is the one returned, and calls abort before any
// later one is looked at — so the tasks still running fail fast, and
// what they then report cannot mask the cause.
func firstFailure(n int, task func(i int) error, abort func()) error {
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := task(i); err != nil {
				once.Do(func() {
					first = err
					abort()
				})
			}
		}()
	}
	wg.Wait()
	return first
}

// ensure returns the established connection to peer, dialing it first
// if needed. Concurrent callers share one handshake; the loser of a
// simultaneous cross-dial adopts the winner's connection. A slot whose
// dial has conclusively failed stays dead and keeps returning its
// error.
func (nd *TCPNode) ensure(peer int) (*tcpConn, error) {
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
			case <-nd.closed:
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
func (nd *TCPNode) dialPeer(peer int) {
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
		nd.dialed.Add(1)
		nd.workers.Add(1)
		go nd.readLoop(peer, tc)
		return
	}
	if errors.Is(err, errDialRejected) {
		// The peer is dialing us and won the tie-break; its connection
		// lands via our accept loop, which flips the slot to ready.
		timer := time.NewTimer(nd.setupTimeout)
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
		case <-nd.closed:
			nd.failDial(peer, ErrClosed)
			return
		case <-timer.C:
			nd.failDial(peer, fmt.Errorf("peer %d superseded our dial but its connection never arrived within %v", peer, nd.setupTimeout))
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
func (nd *TCPNode) failDial(peer int, cause error) {
	s := nd.slots[peer]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != slotDialing {
		return
	}
	s.state = slotDead
	if nd.ready.Load() {
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
func (nd *TCPNode) dialHandshake(peer int) (*tcpConn, error) {
	conn, err := nd.dialRetry(peer, nd.addrs[peer])
	if err != nil {
		return nil, err
	}
	nd.registerInflight(conn)
	defer nd.unregisterInflight(conn)
	if err := writeHello(conn, nd.rank, nd.p, nd.setupTimeout); err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake to %d: %w", peer, err)
	}
	if err := readAck(conn, nd.setupTimeout); err != nil {
		conn.Close()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
			return nil, errDialRejected
		}
		return nil, fmt.Errorf("handshake to %d: %w", peer, err)
	}
	cc := &countingConn{Conn: conn, node: nd}
	return &tcpConn{c: cc, w: bufio.NewWriterSize(cc, tcpBufSize), timeout: nd.ep.timeout}, nil
}

// dialRetry wraps each dial in bounded exponential backoff with jitter:
// in a staggered multi-process start a peer's listener may not be up
// yet, and its refused connection must not fail the link. The attempt
// cap keeps a genuinely dead peer failing well inside the setup budget,
// and the loop bails out early once the network is shutting down.
func (nd *TCPNode) dialRetry(peer int, addr string) (net.Conn, error) {
	backoff := nd.dialBackoff
	var err error
	for attempt := 0; attempt < nd.dialAttempts; attempt++ {
		if nd.isClosed() {
			if err == nil {
				err = ErrClosed
			}
			break
		}
		nd.dialsAttempted.Add(1)
		var conn net.Conn
		conn, err = nd.dial(nd.rank, peer, addr, nd.setupTimeout)
		if err == nil {
			return conn, nil
		}
		if attempt == nd.dialAttempts-1 {
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
func (nd *TCPNode) acceptLoop() {
	defer nd.workers.Done()
	for {
		conn, err := nd.l.Accept()
		if err != nil {
			return // listener closed: network shutting down
		}
		nd.registerInflight(conn)
		nd.workers.Add(1)
		go nd.handleAccept(conn)
	}
}

// handleAccept runs the acceptor side of the handshake: read HELLO,
// decide the tie-break under the slot lock, attach-and-ACK or close.
func (nd *TCPNode) handleAccept(conn net.Conn) {
	defer nd.workers.Done()
	defer nd.unregisterInflight(conn)
	peer, p, err := readHello(conn, nd.setupTimeout)
	if err != nil || p != nd.p || peer < 0 || peer >= nd.p || peer == nd.rank {
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
	// ACK before the slot is published: from then on this side's senders
	// may write frames, and the dialer takes the first byte it reads for
	// the ACK. Frames the dialer sends on seeing it wait in the socket
	// until the reader below is live.
	if !accept || writeAck(conn, nd.setupTimeout) != nil {
		s.mu.Unlock()
		conn.Close()
		return
	}
	cc := &countingConn{Conn: conn, node: nd}
	tc := &tcpConn{c: cc, w: bufio.NewWriterSize(cc, tcpBufSize), timeout: nd.ep.timeout}
	wasDialing := s.state == slotDialing
	s.tc = tc
	s.state = slotReady
	if wasDialing {
		close(s.wait)
	}
	s.mu.Unlock()
	nd.workers.Add(1)
	go nd.readLoop(peer, tc)
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

// readLoop delivers peer's inbound messages to the node's inbox until
// the connection or the node goes down.
func (nd *TCPNode) readLoop(peer int, tc *tcpConn) {
	defer nd.workers.Done()
	r := &frameReader{c: tc.c, br: bufio.NewReaderSize(tc.c, tcpBufSize), timeout: nd.ep.timeout}
	for {
		m, err := r.readMsg()
		if err != nil {
			return // connection closed, peer gone, or mid-frame stall
		}
		if m.Src != peer {
			return // protocol violation; drop the link
		}
		select {
		case nd.ep.ch <- m:
		case <-nd.closed:
			return
		}
	}
}

func (nd *TCPNode) registerInflight(conn net.Conn) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.inflight[conn] = struct{}{}
}

func (nd *TCPNode) unregisterInflight(conn net.Conn) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	delete(nd.inflight, conn)
}

// tcpBufSize is the per-connection read and write buffer. Large enough
// that a typical collective message (header plus a few KB of words)
// reaches the socket in one write.
const tcpBufSize = 32 << 10

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
// owning node's wire counters. The per-endpoint Metrics count payload
// bytes only (the paper's volume metric); the difference between the
// two is the codec's framing overhead.
type countingConn struct {
	net.Conn
	node *TCPNode
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.node.wireRecv.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.node.wireSent.Add(int64(n))
	return n, err
}

// Size returns the number of PEs.
func (n *TCPNetwork) Size() int { return len(n.nodes) }

// Endpoint returns rank's endpoint.
func (n *TCPNetwork) Endpoint(r int) Endpoint { return n.nodes[r].ep }

// WireBytes returns the total bytes written to and read from the
// network's sockets across all connections, message framing included.
func (n *TCPNetwork) WireBytes() (sent, recv int64) {
	for _, nd := range n.nodes {
		s, r := nd.WireBytes()
		sent, recv = sent+s, recv+r
	}
	return sent, recv
}

// ConnsOpen returns how many TCP connections the network has
// established: TCPNode.ConnsOpen over the counter its nodes share, the
// quantity the acceptance tests bound.
func (n *TCPNetwork) ConnsOpen() int64 { return n.nodes[0].ConnsOpen() }

// DialsAttempted returns how many TCP dial attempts (including retries)
// the network has made.
func (n *TCPNetwork) DialsAttempted() (dials int64) {
	for _, nd := range n.nodes {
		dials += nd.DialsAttempted()
	}
	return dials
}

// Meter returns the unified transport meter: per-endpoint payload
// sums plus the socket-level wire and connection counters.
func (n *TCPNetwork) Meter() MeterSnapshot {
	s := endpointMeter(n)
	s.WireSent, s.WireRecv = n.WireBytes()
	s.ConnsOpen = n.ConnsOpen()
	s.Dials = n.DialsAttempted()
	return s
}

// shutdown closes every node's sockets without waiting for workers.
func (n *TCPNetwork) shutdown() {
	for _, nd := range n.nodes {
		nd.shutdown()
	}
}

// Close tears the network down: pending and future operations fail with
// ErrClosed, and all transport goroutines have exited when it returns.
func (n *TCPNetwork) Close() error {
	n.shutdown()
	for _, nd := range n.nodes {
		nd.Close()
	}
	return nil
}

// mapConnErr folds socket-level failures into the transport's error
// vocabulary: operations on a torn-down network report ErrClosed (so
// dist's first-error teardown attributes the root cause instead of the
// victims' "use of closed network connection" noise), and deadline
// expiries say "timeout".
func (nd *TCPNode) mapConnErr(err error) error {
	if errors.Is(err, net.ErrClosed) || nd.isClosed() {
		return ErrClosed
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("timeout after %v: %w", nd.ep.timeout, err)
	}
	return err
}

// ConnsOpen is the node's, readable by layers that only hold an
// Endpoint (collective.Comm).
func (e *tcpEndpoint) ConnsOpen() int64 { return e.node.ConnsOpen() }

func (e *tcpEndpoint) Send(dst, tag int, payload []byte) error {
	if err := validRank(dst, e.Size()); err != nil {
		return err
	}
	msg := Message{Src: e.rank, Tag: tag, Payload: payload}
	if e.node.isClosed() {
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
	// The frame is written, or failed: either way the payload is spent.
	err = tc.send(msg)
	PutPayload(payload)
	if err != nil {
		return fmt.Errorf("comm: PE %d send to %d: %w", e.rank, dst, e.node.mapConnErr(err))
	}
	e.metrics.addSent(len(msg.Payload))
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
	if err := writeFrame(tc.w, m); err != nil {
		return err
	}
	return tc.w.Flush()
}
