package comm

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTCPSetupDialFailureReturns injects a dial failure into mesh setup
// and requires NewTCPNetwork to return an error promptly — the seed
// implementation blocked in wg.Wait() forever because the peer's Accept
// never returned.
func TestTCPSetupDialFailureReturns(t *testing.T) {
	for _, fail := range []struct{ from, to int }{{0, 1}, {0, 3}, {2, 3}} {
		fail := fail
		t.Run(fmt.Sprintf("dial_%d_to_%d", fail.from, fail.to), func(t *testing.T) {
			t.Parallel()
			done := make(chan error, 1)
			go func() {
				n, err := NewTCPNetworkOpts(4, TCPOptions{
					SetupTimeout: 2 * time.Second,
					dialFunc: func(from, to int, addr string, timeout time.Duration) (net.Conn, error) {
						if from == fail.from && to == fail.to {
							return nil, errors.New("injected dial failure")
						}
						return net.DialTimeout("tcp", addr, timeout)
					},
				})
				if err == nil {
					n.Close()
					done <- errors.New("setup succeeded despite injected failure")
					return
				}
				if !strings.Contains(err.Error(), "injected dial failure") {
					done <- fmt.Errorf("error %q does not carry the injected cause", err)
					return
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("NewTCPNetwork hung on a failed dial")
			}
		})
	}
}

// TestTCPSetupHandshakeStallReturns connects a socket that never sends
// its handshake; the acceptor's handshake deadline must abort setup
// instead of hanging the mesh.
func TestTCPSetupHandshakeStallReturns(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		var stalled net.Conn
		n, err := NewTCPNetworkOpts(3, TCPOptions{
			SetupTimeout: 300 * time.Millisecond,
			dialFunc: func(from, to int, addr string, timeout time.Duration) (net.Conn, error) {
				conn, derr := net.DialTimeout("tcp", addr, timeout)
				if derr != nil {
					return nil, derr
				}
				if from == 0 && to == 2 {
					// Keep the raw socket open but swallow the handshake
					// write, so the acceptor sees a silent peer.
					stalled = conn
					return blackholeConn{conn}, nil
				}
				return conn, nil
			},
		})
		if stalled != nil {
			defer stalled.Close()
		}
		if err == nil {
			n.Close()
			done <- errors.New("setup succeeded despite a silent peer")
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("NewTCPNetwork hung on a stalled handshake")
	}
}

// blackholeConn drops writes, simulating a peer that connects but never
// speaks.
type blackholeConn struct{ net.Conn }

func (b blackholeConn) Write(p []byte) (int, error) { return len(p), nil }

// TestTCPSendAfterCloseIsErrClosed requires post-Close sends and recvs
// to surface comm.ErrClosed, not raw "use of closed network connection"
// socket noise, so dist's teardown attribution stays clean.
func TestTCPSendAfterCloseIsErrClosed(t *testing.T) {
	n, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	if err := n.Endpoint(0).Send(1, 0, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close send: got %v, want ErrClosed", err)
	}
	if _, err := n.Endpoint(0).Recv(1, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close recv: got %v, want ErrClosed", err)
	}
	if err := n.Endpoint(0).Send(0, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close self-send: got %v, want ErrClosed", err)
	}
}

// TestTCPLargePayload pushes payloads far beyond the connection write
// buffer through the framed path in both directions.
func TestTCPLargePayload(t *testing.T) {
	n, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	big := make([]byte, 3*tcpBufSize+1234)
	for i := range big {
		big[i] = byte(i * 31)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ep := n.Endpoint(1)
		got, err := ep.Recv(0, 1)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		if !bytes.Equal(got, big) {
			t.Errorf("large payload corrupted: %d bytes, want %d", len(got), len(big))
			return
		}
		if err := ep.Send(0, 2, got); err != nil {
			t.Errorf("send back: %v", err)
		}
	}()
	payload := append([]byte(nil), big...) // transport owns the payload after Send
	if err := n.Endpoint(0).Send(1, 1, payload); err != nil {
		t.Fatal(err)
	}
	back, err := n.Endpoint(0).Recv(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, big) {
		t.Fatalf("echoed payload corrupted: %d bytes", len(back))
	}
	wg.Wait()
}

// TestTCPInterleavedTags sends many messages with shuffled tags and
// receives them in a different order, exercising the pending-queue
// matching over real sockets.
func TestTCPInterleavedTags(t *testing.T) {
	const msgs = 64
	n, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ep := n.Endpoint(0)
		for i := 0; i < msgs; i++ {
			tag := (i*17 + 5) % msgs // a permutation of 0..msgs-1
			if err := ep.Send(1, tag, []byte{byte(tag)}); err != nil {
				t.Errorf("send tag %d: %v", tag, err)
				return
			}
		}
	}()
	ep := n.Endpoint(1)
	for tag := msgs - 1; tag >= 0; tag-- {
		got, err := ep.Recv(0, tag)
		if err != nil {
			t.Fatalf("recv tag %d: %v", tag, err)
		}
		if len(got) != 1 || got[0] != byte(tag) {
			t.Fatalf("tag %d: got %v", tag, got)
		}
	}
	wg.Wait()
}

// TestTCPConcurrentNetworks runs two independent TCP networks in one
// process — per-network state (timeouts, wire counters, inboxes) must
// not interfere.
func TestTCPConcurrentNetworks(t *testing.T) {
	var nets [2]*TCPNetwork
	for i := range nets {
		n, err := NewTCPNetworkOpts(2, TCPOptions{Timeout: time.Duration(i+1) * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nets[i] = n
	}
	var wg sync.WaitGroup
	for i, n := range nets {
		i, n := i, n
		wg.Add(1)
		go func() {
			defer wg.Done()
			runPair(t, n)
			if sent, recv := n.WireBytes(); sent == 0 || recv == 0 {
				t.Errorf("network %d: wire counters not advancing (sent=%d recv=%d)", i, sent, recv)
			}
		}()
	}
	wg.Wait()
}

// TestTCPRecvTimeout requires a Recv with no matching sender to fail
// with a timeout error naming the stuck operation, within the
// per-network deadline (no global state involved).
func TestTCPRecvTimeout(t *testing.T) {
	n, err := NewTCPNetworkOpts(2, TCPOptions{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	start := time.Now()
	_, err = n.Endpoint(0).Recv(1, 7)
	if err == nil {
		t.Fatal("recv with no sender succeeded")
	}
	if !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("error %q does not mention the timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// TestMemRecvTimeoutPerNetwork checks the same per-network semantics on
// the in-memory transport: two networks with different deadlines time
// out independently.
func TestMemRecvTimeoutPerNetwork(t *testing.T) {
	fast := NewMemNetworkTimeout(2, 80*time.Millisecond)
	defer fast.Close()
	slow := NewMemNetworkTimeout(2, 10*time.Second)
	defer slow.Close()
	done := make(chan error, 1)
	go func() {
		_, err := fast.Endpoint(0).Recv(1, 3)
		done <- err
	}()
	// The slow network must still deliver while the fast one times out.
	if err := slow.Endpoint(1).Send(0, 9, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := slow.Endpoint(0).Recv(1, 9); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "timeout") {
			t.Fatalf("fast network recv: got %v, want timeout error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast network deadline never fired")
	}
}

// TestTCPFrameWireOverhead pins what the wire format costs beyond the
// payload: socket bytes minus payload bytes, per 64-byte message, from
// WireBytes (which meters the connection after the handshake). With a
// small source rank, a small tag and a short payload the header is
// three one-byte varints.
func TestTCPFrameWireOverhead(t *testing.T) {
	const msgs, payload = 50, 64
	n, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			if err := n.Endpoint(0).Send(1, i, make([]byte, payload)); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}()
	for i := 0; i < msgs; i++ {
		if _, err := n.Endpoint(1).Recv(0, i); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	sent, recv := n.WireBytes()
	if sent != recv {
		t.Errorf("wire bytes sent %d != received %d", sent, recv)
	}
	if overhead := sent - msgs*payload; overhead != 3*msgs {
		t.Fatalf("framing overhead %d bytes over %d messages, want 3 per message", overhead, msgs)
	}
}
