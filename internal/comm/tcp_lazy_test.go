package comm

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTCPLazyDialOnFirstSend builds a network with no pre-opened edges
// and checks that connections appear exactly when first used, one per
// pair, duplex.
func TestTCPLazyDialOnFirstSend(t *testing.T) {
	n, err := NewTCPNetworkOpts(3, TCPOptions{Topology: TopoNone})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.ConnsOpen(); got != 0 {
		t.Fatalf("TopoNone setup opened %d connections, want 0", got)
	}
	if err := n.Endpoint(0).Send(1, 7, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if got, err := n.Endpoint(1).Recv(0, 7); err != nil || string(got) != "hi" {
		t.Fatalf("recv = %q, %v", got, err)
	}
	if got := n.ConnsOpen(); got != 1 {
		t.Fatalf("after first send: %d connections, want 1", got)
	}
	// The reverse direction reuses the same duplex connection.
	if err := n.Endpoint(1).Send(0, 8, []byte("yo")); err != nil {
		t.Fatal(err)
	}
	if got, err := n.Endpoint(0).Recv(1, 8); err != nil || string(got) != "yo" {
		t.Fatalf("reverse recv = %q, %v", got, err)
	}
	if got := n.ConnsOpen(); got != 1 {
		t.Fatalf("reverse traffic dialed a second connection: ConnsOpen=%d", got)
	}
	// A self-send never costs a connection.
	if err := n.Endpoint(2).Send(2, 9, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint(2).Recv(2, 9); err != nil {
		t.Fatal(err)
	}
	if got := n.ConnsOpen(); got != 1 {
		t.Fatalf("self-send dialed: ConnsOpen=%d", got)
	}
}

// TestTCPHypercubePreopen checks that a hypercube network pre-opens
// exactly its edge set, that traffic along those edges costs nothing
// extra, and that an off-topology send still works via a lazy dial.
func TestTCPHypercubePreopen(t *testing.T) {
	const p = 8
	n, err := NewTCPNetworkOpts(p, TCPOptions{Topology: TopoHypercube})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	edges := int64(edges(TopoHypercube, p)) // 12 for p=8
	if got := n.ConnsOpen(); got != edges {
		t.Fatalf("hypercube setup: ConnsOpen=%d, want %d", got, edges)
	}
	// A full recursive-doubling sweep touches only pre-opened edges.
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := n.Endpoint(r)
			for mask := 1; mask < p; mask <<= 1 {
				partner := r ^ mask
				if err := ep.Send(partner, mask, []byte{byte(r)}); err != nil {
					t.Errorf("rank %d send to %d: %v", r, partner, err)
					return
				}
				got, err := ep.Recv(partner, mask)
				if err != nil || len(got) != 1 || got[0] != byte(partner) {
					t.Errorf("rank %d recv from %d: %v %v", r, partner, got, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if got := n.ConnsOpen(); got != edges {
		t.Fatalf("recursive doubling dialed off-topology: ConnsOpen=%d, want %d", got, edges)
	}
	// 0 -> 3 is not a hypercube edge; it must work anyway, via one lazy
	// dial.
	if err := n.Endpoint(0).Send(3, 99, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint(3).Recv(0, 99); err != nil {
		t.Fatal(err)
	}
	if got := n.ConnsOpen(); got != edges+1 {
		t.Fatalf("off-topology send: ConnsOpen=%d, want %d", got, edges+1)
	}
}

// TestTCPSimultaneousDialsDedup has both ends of every pair start
// sending at once on an edgeless network: the handshake tie-break must
// collapse each pair's cross-dials onto one connection without losing a
// message.
func TestTCPSimultaneousDialsDedup(t *testing.T) {
	const p, msgs = 4, 8
	for round := 0; round < 10; round++ {
		n, err := NewTCPNetworkOpts(p, TCPOptions{Topology: TopoNone})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				ep := n.Endpoint(r)
				var inner sync.WaitGroup
				for q := 0; q < p; q++ {
					if q == r {
						continue
					}
					inner.Add(1)
					go func(q int) {
						defer inner.Done()
						for i := 0; i < msgs; i++ {
							if err := ep.Send(q, i, []byte{byte(r), byte(i)}); err != nil {
								t.Errorf("rank %d send to %d: %v", r, q, err)
								return
							}
						}
					}(q)
				}
				for q := 0; q < p; q++ {
					if q == r {
						continue
					}
					for i := 0; i < msgs; i++ {
						got, err := ep.Recv(q, i)
						if err != nil || len(got) != 2 || got[0] != byte(q) || got[1] != byte(i) {
							t.Errorf("rank %d recv from %d tag %d: %v %v", r, q, i, got, err)
							return
						}
					}
				}
				inner.Wait()
			}(r)
		}
		wg.Wait()
		if got, want := n.ConnsOpen(), int64(p*(p-1)/2); got != want {
			t.Fatalf("round %d: simultaneous dials left %d connections, want %d", round, got, want)
		}
		n.Close()
		if t.Failed() {
			return
		}
	}
}

// TestTCPPostSetupDialFailureIsPeerDown is the attribution satellite: a
// lazy dial that fails after setup has completed must surface as
// comm.PeerDownError naming the peer, not a generic timeout, so it
// flows into the membership taxonomy. The error is sticky.
func TestTCPPostSetupDialFailureIsPeerDown(t *testing.T) {
	n, err := NewTCPNetworkOpts(3, TCPOptions{
		Topology:     TopoNone,
		DialAttempts: 2,
		DialBackoff:  time.Millisecond,
		dialFunc: func(from, to int, addr string, timeout time.Duration) (net.Conn, error) {
			if from == 0 && to == 2 {
				return nil, errors.New("connection refused (injected)")
			}
			return net.DialTimeout("tcp", addr, timeout)
		},
	})
	if err != nil {
		t.Fatalf("setup with TopoNone should not dial at all: %v", err)
	}
	defer n.Close()
	for attempt := 0; attempt < 2; attempt++ {
		err := n.Endpoint(0).Send(2, 1, []byte("x"))
		if err == nil {
			t.Fatalf("send %d over a failing lazy dial succeeded", attempt)
		}
		var pd *PeerDownError
		if !errors.As(err, &pd) || pd.Rank != 2 {
			t.Fatalf("send %d: got %v, want PeerDownError{Rank: 2}", attempt, err)
		}
		if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("send %d: %v does not unwrap to ErrPeerDown", attempt, err)
		}
		if !strings.Contains(err.Error(), "injected") {
			t.Fatalf("send %d: %v lost the dial cause", attempt, err)
		}
	}
	// The healthy edge still works.
	if err := n.Endpoint(0).Send(1, 1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint(1).Recv(0, 1); err != nil {
		t.Fatal(err)
	}
}

// TestTCPSetupKnobsReachDialer is the satellite regression test: a
// custom SetupTimeout must arrive at the dialer verbatim, and custom
// DialAttempts must bound the retry loop.
func TestTCPSetupKnobsReachDialer(t *testing.T) {
	const customTimeout = 1234 * time.Millisecond
	var (
		mu       sync.Mutex
		timeouts []time.Duration
		calls    int
	)
	n, err := NewTCPNetworkOpts(2, TCPOptions{
		SetupTimeout: customTimeout,
		DialAttempts: 3,
		DialBackoff:  time.Millisecond,
		dialFunc: func(from, to int, addr string, timeout time.Duration) (net.Conn, error) {
			mu.Lock()
			timeouts = append(timeouts, timeout)
			calls++
			mu.Unlock()
			return nil, errors.New("always down")
		},
	})
	if err == nil {
		n.Close()
		t.Fatal("setup succeeded with a dialer that always fails")
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 3 {
		t.Fatalf("dialer called %d times, want DialAttempts=3", calls)
	}
	for _, got := range timeouts {
		if got != customTimeout {
			t.Fatalf("dialer saw timeout %v, want the configured %v", got, customTimeout)
		}
	}
	if got := n; got != nil {
		t.Fatal("failed setup returned a network")
	}
}

// TestTCPDialsAttemptedMetering checks the retry counter: a dial that
// fails twice then succeeds contributes three attempts for one
// connection.
func TestTCPDialsAttemptedMetering(t *testing.T) {
	var fails int32
	var mu sync.Mutex
	n, err := NewTCPNetworkOpts(2, TCPOptions{
		DialBackoff: time.Millisecond,
		dialFunc: func(from, to int, addr string, timeout time.Duration) (net.Conn, error) {
			mu.Lock()
			defer mu.Unlock()
			if fails < 2 {
				fails++
				return nil, errors.New("transient refuse")
			}
			return net.DialTimeout("tcp", addr, timeout)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.DialsAttempted(); got != 3 {
		t.Fatalf("DialsAttempted=%d, want 3 (two refusals + one success)", got)
	}
	if got := n.ConnsOpen(); got != 1 {
		t.Fatalf("ConnsOpen=%d, want 1", got)
	}
	runPair(t, n)
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
// listeners, address book exchanged out of band. Traffic,
// metering, and topology must behave like one network split in half.
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
				t.Errorf("rank %d connect: %v", n.Rank(), err)
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
	if got, err := ep1.Recv(0, 5); err != nil || string(got) != "ping" {
		t.Fatalf("recv = %q, %v", got, err)
	}
	if err := ep1.Send(0, 6, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	if got, err := ep0.Recv(1, 6); err != nil || string(got) != "pong" {
		t.Fatalf("recv = %q, %v", got, err)
	}
	// Full mesh at p=2 is one edge: rank 0 dialed it, rank 1 accepted
	// it. ConnsOpen counts a link at its dialer, so the per-node values
	// add up to the run's connections.
	if got := n0.ConnsOpen(); got != 1 {
		t.Fatalf("rank 0 ConnsOpen=%d, want 1", got)
	}
	if got := n1.ConnsOpen(); got != 0 {
		t.Fatalf("rank 1 ConnsOpen=%d, want 0 (it accepted the link)", got)
	}
	s0, _ := n0.WireBytes()
	_, r1 := n1.WireBytes()
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

// TestTCPNodeConnectFailsFast: Connect dials its edges in rank order
// and stops at the first failure. The edge to rank 1 fails at once; the
// one to rank 2 would block until the node closes (or its 30 s budget
// runs out) and must not be dialed. Connect must return the first
// edge's error promptly, with the node closed.
func TestTCPNodeConnectFailsFast(t *testing.T) {
	var nd *TCPNode
	nd, err := NewTCPNode(0, 3, loopback(t), TCPOptions{
		SetupTimeout: 30 * time.Second,
		DialAttempts: 1,
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
		t.Fatalf("Connect = %v, want the failed edge's error", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Connect took %v: it dialed past the failed edge", took)
	}
	if !nd.isClosed() {
		t.Fatal("failed Connect left the node open")
	}
}
