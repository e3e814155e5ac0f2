package comm

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// refusedAddr returns a loopback address nothing listens on, so a
// dial to it fails with a real ECONNREFUSED.
func refusedAddr(t *testing.T) string {
	t.Helper()
	l := loopback(t)
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestTCPSetupKnobsReachDialer: SetupTimeout arrives at the dialer
// verbatim, and it bounds the retries of a refused dial — a peer whose
// listener never comes up fails setup once the deadline has passed, not
// after a fixed number of attempts.
func TestTCPSetupKnobsReachDialer(t *testing.T) {
	const setup = 400 * time.Millisecond
	dead := refusedAddr(t)
	var (
		mu       sync.Mutex
		timeouts []time.Duration
	)
	start := time.Now()
	n, err := NewTCPNetworkOpts(2, TCPOptions{
		SetupTimeout: setup,
		dialBackoff:  time.Millisecond,
		dialFunc: func(from, to int, addr string, timeout time.Duration) (net.Conn, error) {
			mu.Lock()
			timeouts = append(timeouts, timeout)
			mu.Unlock()
			return net.DialTimeout("tcp", dead, timeout)
		},
	})
	took := time.Since(start)
	if err == nil {
		n.Close()
		t.Fatal("setup succeeded with a peer that always refuses")
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("setup error %v does not carry the refusal", err)
	}
	if took < setup || took > setup+time.Second {
		t.Fatalf("refused dials gave up after %v, want about the %v setup timeout", took, setup)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(timeouts) < 3 {
		t.Fatalf("dialer called %d times: refused dials were not retried", len(timeouts))
	}
	for _, got := range timeouts {
		if got != setup {
			t.Fatalf("dialer saw timeout %v, want the configured %v", got, setup)
		}
	}
}

// TestTCPDialsAttemptedMetering checks the retry counter: a dial that
// is refused twice, for real, then succeeds contributes three attempts
// for one connection.
func TestTCPDialsAttemptedMetering(t *testing.T) {
	dead := refusedAddr(t)
	var fails int32
	var mu sync.Mutex
	n, err := NewTCPNetworkOpts(2, TCPOptions{
		dialBackoff: time.Millisecond,
		dialFunc: func(from, to int, addr string, timeout time.Duration) (net.Conn, error) {
			mu.Lock()
			defer mu.Unlock()
			if fails < 2 {
				fails++
				addr = dead
			}
			return net.DialTimeout("tcp", addr, timeout)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	m := n.Meter()
	if got := m.Dials; got != 3 {
		t.Fatalf("Dials=%d, want 3 (two refusals + one success)", got)
	}
	if got := m.ConnsOpen; got != 1 {
		t.Fatalf("ConnsOpen=%d, want 1", got)
	}
	runPair(t, n)
}

// sayHello dials addr and runs the dialer side of the handshake as rank
// of p. It reports whether the acceptor ACKed; an ACKed connection is
// closed when the test ends.
func sayHello(t *testing.T, addr string, rank, p int) bool {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeHello(conn, rank, p, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := readAck(conn, 2*time.Second); err != nil {
		conn.Close()
		if !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("HELLO as rank %d: %v, want an ACK or a closed connection", rank, err)
		}
		return false
	}
	t.Cleanup(func() { conn.Close() })
	return true
}

// TestTCPAcceptTakesOneHelloPerLowerRank: the acceptor ACKs the first
// HELLO from each lower rank and closes every other one unanswered — a
// higher rank's (that link is this rank's to dial), its own, a second
// one from a lower rank, and one from a different world size.
func TestTCPAcceptTakesOneHelloPerLowerRank(t *testing.T) {
	nd, err := NewTCPNode(1, 3, loopback(t), TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	for _, h := range []struct {
		rank, p int
		ack     bool
	}{
		{rank: 2, p: 3},
		{rank: 1, p: 3},
		{rank: 0, p: 4},
		{rank: 0, p: 3, ack: true},
		{rank: 0, p: 3},
	} {
		if got := sayHello(t, nd.Addr(), h.rank, h.p); got != h.ack {
			t.Fatalf("HELLO from rank %d of %d: ACKed=%v, want %v", h.rank, h.p, got, h.ack)
		}
	}
}

// TestTCPConnectNamesMissingLowerRank: rank 2 of 3 dials no one and
// waits for ranks 0 and 1. Rank 1's link arrives, rank 0's never does:
// Connect must fail once SetupTimeout has passed, name rank 0 and only
// rank 0, and leave the node closed.
func TestTCPConnectNamesMissingLowerRank(t *testing.T) {
	const setup = 300 * time.Millisecond
	nd, err := NewTCPNode(2, 3, loopback(t), TCPOptions{SetupTimeout: setup})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if !sayHello(t, nd.Addr(), 1, 3) {
		t.Fatal("rank 1's HELLO was not ACKed")
	}
	start := time.Now()
	err = nd.Connect([]string{"127.0.0.1:1", "127.0.0.1:2", nd.Addr()})
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "rank(s) [0]") {
		t.Fatalf("Connect = %v, want an error naming rank 0 alone", err)
	}
	if took < setup || took > setup+time.Second {
		t.Fatalf("Connect gave up after %v, want about the %v setup timeout", took, setup)
	}
	if !nd.isClosed() {
		t.Fatal("failed Connect left the node open")
	}
}

// loopback binds a listener on an OS-assigned loopback port, the way
// NewTCPNetworkOpts binds each of its nodes'.
func loopback(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestTCPNodePair runs two TCPNodes as if they were two processes: own
// listeners, address book exchanged out of band. Traffic and metering
// must behave like one network split in half.
func TestTCPNodePair(t *testing.T) {
	n0, err := NewTCPNode(0, 2, loopback(t), TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n1, err := NewTCPNode(1, 2, loopback(t), TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	addrs := []string{n0.Addr(), n1.Addr()}
	var wg sync.WaitGroup
	for _, n := range []*TCPNode{n0, n1} {
		wg.Add(1)
		go func(n *TCPNode) {
			defer wg.Done()
			if err := n.Connect(addrs); err != nil {
				t.Errorf("rank %d connect: %v", n.rank, err)
			}
		}(n)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	ep0, ep1 := n0.Endpoint(0), n1.Endpoint(1)
	if ep0.Size() != 2 || ep1.Rank() != 1 {
		t.Fatalf("endpoint identity wrong: size=%d rank=%d", ep0.Size(), ep1.Rank())
	}
	if err := ep0.Send(1, 5, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if got, err := NewMux(ep1).Recv(0, 5); err != nil || string(got) != "ping" {
		t.Fatalf("recv = %q, %v", got, err)
	}
	if err := ep1.Send(0, 6, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	if got, err := NewMux(ep0).Recv(1, 6); err != nil || string(got) != "pong" {
		t.Fatalf("recv = %q, %v", got, err)
	}
	// p=2 is one link: rank 0 dialed it, rank 1 accepted it. ConnsOpen counts a link at its dialer, so the per-node values
	// add up to the run's connections.
	if got := n0.ConnsOpen(); got != 1 {
		t.Fatalf("rank 0 ConnsOpen=%d, want 1", got)
	}
	if got := n1.ConnsOpen(); got != 0 {
		t.Fatalf("rank 1 ConnsOpen=%d, want 0 (it accepted the link)", got)
	}
	s0, r1 := n0.Meter().WireSent, n1.Meter().WireRecv
	if s0 == 0 || r1 == 0 {
		t.Fatalf("wire counters not advancing: sent0=%d recv1=%d", s0, r1)
	}
}

// TestTCPNodeRemoteEndpointPanics pins the sharp edge: a TCPNode hosts
// one rank, and asking for any other endpoint is a programming error.
func TestTCPNodeRemoteEndpointPanics(t *testing.T) {
	n, err := NewTCPNode(1, 4, loopback(t), TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Endpoint(0) on a rank-1 node did not panic")
		}
	}()
	n.Endpoint(0)
}

// TestTCPNodeConnectValidation covers the bootstrap error paths.
func TestTCPNodeConnectValidation(t *testing.T) {
	for _, rank := range []int{4, -1} {
		l := loopback(t)
		if _, err := NewTCPNode(rank, 4, l, TCPOptions{}); err == nil {
			t.Fatalf("rank %d of 4 accepted", rank)
		}
		// A failed NewTCPNode still owns the listener and closes it.
		if _, err := l.Accept(); err == nil {
			t.Fatalf("rank %d: the rejected node left its listener open", rank)
		}
	}
	n, err := NewTCPNode(0, 3, loopback(t), TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Connect([]string{"a", "b"}); err == nil {
		t.Fatal("short address book accepted")
	}
	if !strings.Contains(fmt.Sprint(n.Addr()), ":") {
		t.Fatalf("Addr() = %q, want host:port", n.Addr())
	}
}

// TestTCPNodeConnectFailsFast: Connect dials its links in rank order
// and stops at the first failure. A dial error other than a refusal is
// not retried: the link to rank 1 fails at once; the one to rank 2 would
// block until the node closes (or its 30 s budget runs out) and must not
// be dialed. Connect must return the first link's error promptly, with
// the node closed.
func TestTCPNodeConnectFailsFast(t *testing.T) {
	var nd *TCPNode
	nd, err := NewTCPNode(0, 3, loopback(t), TCPOptions{
		SetupTimeout: 30 * time.Second,
		dialFunc: func(from, to int, addr string, timeout time.Duration) (net.Conn, error) {
			if to == 1 {
				return nil, errors.New("injected dial failure")
			}
			select {
			case <-nd.closed:
				return nil, errors.New("dial cancelled by shutdown")
			case <-time.After(timeout):
				return nil, errors.New("black-holed dial ran out its budget")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	start := time.Now()
	err = nd.Connect([]string{nd.Addr(), "127.0.0.1:1", "127.0.0.1:2"})
	if err == nil || !strings.Contains(err.Error(), "injected dial failure") {
		t.Fatalf("Connect = %v, want the failed link's error", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Connect took %v: it dialed past the failed link", took)
	}
	if !nd.isClosed() {
		t.Fatal("failed Connect left the node open")
	}
}
