//go:build !race

// The alloc guards live behind !race: race instrumentation inserts its
// own allocations and would report false positives.

package comm

import (
	"bufio"
	"io"
	"testing"
)

// TestQueuedRecvAllocs pins the receive fast path: a Recv or RecvAny
// whose message is already waiting takes it without arming the
// deadline, so it allocates nothing at all.
func TestQueuedRecvAllocs(t *testing.T) {
	const runs = 10
	receives := map[string]func(ep Endpoint) error{
		"Recv":    func(ep Endpoint) error { _, err := ep.Recv(1, 5); return err },
		"RecvAny": func(ep Endpoint) error { _, err := ep.RecvAny(); return err },
	}
	for op, recv := range receives {
		t.Run(op, func(t *testing.T) {
			net := NewMemNetwork(2)
			defer net.Close()
			ep, peer := net.Endpoint(0), net.Endpoint(1)
			payload := []byte{1, 2, 3}
			// AllocsPerRun calls f once more than runs, to warm up.
			for i := 0; i <= runs; i++ {
				if err := peer.Send(0, 5, payload); err != nil {
					t.Fatal(err)
				}
			}
			n := testing.AllocsPerRun(runs, func() {
				if err := recv(ep); err != nil {
					t.Fatal(err)
				}
			})
			if n != 0 {
				t.Errorf("%s of a queued message allocates %.1f objects, want 0", op, n)
			}
		})
	}
}

// TestWriteFrameAllocs pins that a frame's header is encoded in the
// writer's own buffer: writing a frame allocates nothing.
func TestWriteFrameAllocs(t *testing.T) {
	w := bufio.NewWriterSize(io.Discard, tcpBufSize)
	m := Message{Src: 3, Tag: 1 << 40, Payload: make([]byte, 100)}
	n := testing.AllocsPerRun(100, func() {
		if err := writeFrame(w, m); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("writeFrame allocates %.1f objects, want 0", n)
	}
}

// TestPingPongAllocs pins a warmed mem ping-pong, in which every receive
// blocks and so arms the endpoint's deadline: each leg's payload is a
// fresh allocation of the test's, and the transport adds nothing to it.
func TestPingPongAllocs(t *testing.T) {
	const runs = 200
	net := NewMemNetwork(2)
	defer net.Close()
	a, b := net.Endpoint(0), net.Endpoint(1)
	echo := make(chan error, 1)
	go func() {
		for i := 0; i <= runs; i++ {
			if _, err := b.Recv(0, 1); err != nil {
				echo <- err
				return
			}
			if err := b.Send(0, 2, make([]byte, 64)); err != nil {
				echo <- err
				return
			}
		}
		echo <- nil
	}()
	n := testing.AllocsPerRun(runs, func() {
		if err := a.Send(1, 1, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Recv(1, 2); err != nil {
			t.Fatal(err)
		}
	})
	if err := <-echo; err != nil {
		t.Fatal(err)
	}
	if perMsg := n / 2; perMsg > 1 {
		t.Errorf("warmed mem ping-pong allocates %.2f objects per message, want at most 1 (its payload)", perMsg)
	}
}
