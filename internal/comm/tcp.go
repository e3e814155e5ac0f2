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
	"syscall"
	"time"
)

// TCPNetwork is the in-process TCP transport: p TCPNodes over loopback,
// length-prefixed binary frames (frame.go), a buffered writer per
// connection flushed once per message, and a reader goroutine per
// connection feeding the destination inbox.
//
// There is one bring-up — NewTCPNode accepts on a rank's bound
// listener, Connect dials every higher rank and waits for every lower
// one — which NewTCPNetworkOpts runs p times in one process and the
// launcher (internal/dist) once per OS process. Every pair of PEs gets
// its one link at setup and no link is dialed after it: the operations'
// all-to-all exchanges need every pair anyway. ConnsOpen (links dialed,
// so each pair link counts once: p(p−1)/2) and DialsAttempted meter the
// bill.
type TCPNetwork struct{ nodes []*TCPNode }

type tcpEndpoint struct {
	node *TCPNode
	inbox
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

const (
	// DefaultSetupTimeout bounds Connect: the retries of a refused dial
	// and the wait for the lower ranks' links. It also bounds each single
	// dial and handshake.
	DefaultSetupTimeout = 10 * time.Second
	// defaultDialBackoff is a refused dial's first retry delay; it
	// doubles per retry, with jitter, up to maxDialBackoff.
	defaultDialBackoff = 25 * time.Millisecond
	maxDialBackoff     = time.Second
)

// TCPOptions configures NewTCPNetworkOpts and NewTCPNode. The zero
// value selects the DefaultTimeout per-operation deadline and the
// DefaultSetupTimeout bring-up deadline.
type TCPOptions struct {
	// Timeout is the per-operation deadline: every blocking Send or Recv
	// that exceeds it fails with an error naming the stuck operation.
	// On this transport it is enforced as net.Conn write deadlines on
	// sends, read deadlines on mid-frame stalls, and the endpoint's one
	// receive timer, re-armed only by a receive that has to wait for its
	// message. Zero selects DefaultTimeout, a negative value disables it.
	Timeout time.Duration
	// SetupTimeout bounds Connect (see DefaultSetupTimeout); zero
	// selects DefaultSetupTimeout. Ranks of a multi-host run must all
	// start within it.
	SetupTimeout time.Duration
	// dialFunc and dialBackoff are test seams: dialFunc replaces the
	// dialer, to inject failures for specific (from, to) pairs and
	// observe the timeout it is given; dialBackoff replaces
	// defaultDialBackoff.
	dialFunc    func(from, to int, addr string, timeout time.Duration) (net.Conn, error)
	dialBackoff time.Duration
}

// NewTCPNetwork builds a p-endpoint network over loopback TCP with
// default options: the full mesh, established before it returns. Any
// setup failure aborts the network and returns an error.
func NewTCPNetwork(p int) (*TCPNetwork, error) {
	return NewTCPNetworkOpts(p, TCPOptions{})
}

// NewTCPNetworkOpts is NewTCPNetwork with explicit options: p nodes,
// their addresses collected, then connected one after another. The
// first failure shuts every node down and is returned as the causal
// error.
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
	// In rank order: every listener is up, so a node's dials land in its
	// peers' accept loops whether or not those have connected yet, and by
	// the time a node waits for its lower ranks they have all dialed it.
	for _, nd := range n.nodes {
		if err := nd.Connect(addrs); err != nil {
			n.Close()
			return nil, err
		}
	}
	return n, nil
}

// dialPeer brings up the link to the higher rank peer: dial, send
// HELLO, await the ACK, then attach the connection.
func (nd *TCPNode) dialPeer(peer int, addr string, deadline time.Time) error {
	conn, err := nd.dialRetry(peer, addr, deadline)
	if err != nil {
		return err
	}
	nd.registerInflight(conn)
	defer nd.unregisterInflight(conn)
	if err := writeHello(conn, nd.rank, nd.p, nd.setupTimeout); err != nil {
		conn.Close()
		return fmt.Errorf("handshake: %w", err)
	}
	if err := readAck(conn, nd.setupTimeout); err != nil {
		conn.Close()
		return fmt.Errorf("handshake: %w", err)
	}
	if !nd.attach(peer, conn) {
		return ErrClosed
	}
	nd.dialed.Add(1)
	return nil
}

// dialRetry dials peer until it answers. In a staggered start the
// peer's listener may not be up yet, so a refused dial is retried, after
// a jittered backoff that doubles up to maxDialBackoff, until deadline.
// Any other dial error, or the node closing, ends it at once.
func (nd *TCPNode) dialRetry(peer int, addr string, deadline time.Time) (net.Conn, error) {
	backoff := nd.dialBackoff
	for {
		nd.dialsAttempted.Add(1)
		conn, err := nd.dial(nd.rank, peer, addr, nd.setupTimeout)
		if err == nil {
			return conn, nil
		}
		left := time.Until(deadline)
		if !errors.Is(err, syscall.ECONNREFUSED) || left <= 0 {
			return nil, err
		}
		wait := min(backoff/2+time.Duration(rand.Int63n(int64(backoff)/2+1)), left)
		select {
		case <-nd.closed:
			return nil, ErrClosed
		case <-time.After(wait):
		}
		backoff = min(2*backoff, maxDialBackoff)
	}
}

// attach makes conn, whose handshake is done, the link to peer and
// starts its reader. It reports false, and closes conn, if the node is
// shutting down. A lower peer's link counts towards the ones Connect
// waits for.
func (nd *TCPNode) attach(peer int, conn net.Conn) bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.isClosed() {
		conn.Close()
		return false
	}
	cc := &countingConn{Conn: conn, node: nd}
	tc := &tcpConn{c: cc, w: bufio.NewWriterSize(cc, tcpBufSize), timeout: nd.ep.timeout}
	nd.conns[peer] = tc
	if peer < nd.rank {
		if nd.arrived++; nd.arrived == nd.rank {
			close(nd.lowerUp)
		}
	}
	nd.workers.Add(1)
	go nd.readLoop(peer, tc)
	return true
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
// then ACK and attach the first HELLO from each lower rank. Any other
// HELLO — from this rank or a higher one, from a different world size,
// or a lower rank's second — is closed without an ACK.
func (nd *TCPNode) handleAccept(conn net.Conn) {
	defer nd.workers.Done()
	defer nd.unregisterInflight(conn)
	peer, p, err := readHello(conn, nd.setupTimeout)
	if err != nil || p != nd.p || peer < 0 || peer >= nd.rank {
		conn.Close()
		return
	}
	nd.mu.Lock()
	first := !nd.hello[peer]
	nd.hello[peer] = true
	nd.mu.Unlock()
	// ACK before the reader starts: from then on this side's senders may
	// write frames, and the dialer takes the first byte it reads for the
	// ACK. Frames the dialer sends on seeing it wait in the socket until
	// the reader is live.
	if !first || writeAck(conn, nd.setupTimeout) != nil {
		conn.Close()
		return
	}
	nd.attach(peer, conn)
}

// Handshake wire format. HELLO identifies the dialer and the expected
// world size, written raw so the frame stream starts clean right
// after; ACK is the acceptor's single-byte go-ahead (a rejected HELLO
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
// established: TCPNode.ConnsOpen over the counter its nodes share,
// p(p−1)/2 once it is set up.
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
	// conns is fixed once Connect has returned, so it is read unlocked.
	// The frame is written, or failed: either way the payload is spent.
	err := e.node.conns[dst].send(msg)
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
