//go:build !race

// The alloc guards live behind !race: race instrumentation inserts its
// own allocations and would report false positives.

package comm

import (
	"bufio"
	"io"
	"testing"
)

// TestQueuedRecvAllocs pins the receive fast path on mem and simnet: a
// Mux.Recv or RecvAny whose message is already waiting takes it without
// arming the deadline, so it allocates nothing at all — simnet's modeled
// arrival included, which rides the Message.
func TestQueuedRecvAllocs(t *testing.T) {
	const runs = 10
	receives := map[string]func(ep Endpoint) func() error{
		"Recv": func(ep Endpoint) func() error {
			mux := NewMux(ep)
			return func() error { _, err := mux.Recv(1, 5); return err }
		},
		"RecvAny": func(ep Endpoint) func() error {
			return func() error { _, err := ep.RecvAny(); return err }
		},
	}
	nets := map[string]func() Network{
		"mem":    func() Network { return NewMemNetworkTimeout(2, 0) },
		"simnet": func() Network { return NewSimNetworkTimeout(2, 1000, 1, 0) },
	}
	for op, receiver := range receives {
		t.Run(op, func(t *testing.T) {
			for name, build := range nets {
				t.Run(name, func(t *testing.T) {
					net := build()
					defer net.Close()
					ep, peer := net.Endpoint(0), net.Endpoint(1)
					recv := receiver(ep)
					payload := []byte{1, 2, 3}
					// AllocsPerRun calls f once more than runs, to warm up.
					for i := 0; i <= runs; i++ {
						if err := peer.Send(0, 5, payload); err != nil {
							t.Fatal(err)
						}
					}
					n := testing.AllocsPerRun(runs, func() {
						if err := recv(); err != nil {
							t.Fatal(err)
						}
					})
					if n != 0 {
						t.Errorf("%s of a queued message on %s allocates %.1f objects, want 0", op, name, n)
					}
				})
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

// TestPingPongAllocs pins a warmed mem ping-pong through one Mux per
// endpoint, in which every receive blocks and so arms the endpoint's
// deadline: each leg's payload is a fresh allocation of the test's, and
// the transport and the Mux add nothing to it.
func TestPingPongAllocs(t *testing.T) {
	const runs = 200
	net := NewMemNetworkTimeout(2, 0)
	defer net.Close()
	a, b := NewMux(net.Endpoint(0)), NewMux(net.Endpoint(1))
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

// TestPayloadPoolAllocs pins that a warmed pool hands out and takes back
// a payload of every class, and one between two classes, without
// allocating.
func TestPayloadPoolAllocs(t *testing.T) {
	for _, n := range []int{1, 64, 100, 4096, 5000, 1 << maxPayloadShift} {
		PutPayload(GetPayload(n))
		if a := testing.AllocsPerRun(100, func() { PutPayload(GetPayload(n)) }); a != 0 {
			t.Errorf("GetPayload(%d) and PutPayload allocate %.1f objects, want 0", n, a)
		}
	}
}

// TestTCPPingPongAllocs pins a warmed TCP ping-pong of pooled payloads
// through one Mux per endpoint: the sender's payload goes back to the
// pool once its frame is written, the receiver reads the frame into one
// from the pool, and the echo sends the payload it received, so no
// message allocates anything.
func TestTCPPingPongAllocs(t *testing.T) {
	net, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if perMsg := pooledPingPongAllocs(t, net); perMsg != 0 {
		t.Errorf("warmed TCP ping-pong of pooled payloads allocates %.2f objects per message, want 0", perMsg)
	}
}

// TestSimNetworkPingPongAllocs pins the same of simnet: a payload is
// handed to its receiver as on mem, with its modeled arrival stamped on
// the Message, so no message allocates anything.
func TestSimNetworkPingPongAllocs(t *testing.T) {
	net := NewSimNetworkTimeout(2, 1000, 1, 0)
	defer net.Close()
	if perMsg := pooledPingPongAllocs(t, net); perMsg != 0 {
		t.Errorf("warmed simnet ping-pong of pooled payloads allocates %.2f objects per message, want 0", perMsg)
	}
}

// pooledPingPongAllocs runs a warmed ping-pong of pooled 64-byte
// payloads between ranks 0 and 1 of net, one Mux per endpoint, the echo
// sending back the payload it received, and returns the objects
// allocated per message.
func pooledPingPongAllocs(t *testing.T, net Network) float64 {
	const runs = 200
	a, b := NewMux(net.Endpoint(0)), NewMux(net.Endpoint(1))
	echo := make(chan error, 1)
	go func() {
		// Two more legs than AllocsPerRun runs: its warm-up call and
		// the one below.
		for i := 0; i < runs+2; i++ {
			buf, err := b.Recv(0, 1)
			if err == nil {
				err = b.Send(0, 2, buf)
			}
			if err != nil {
				echo <- err
				return
			}
		}
		echo <- nil
	}()
	leg := func() {
		if err := a.Send(1, 1, GetPayload(64)); err != nil {
			t.Fatal(err)
		}
		buf, err := a.Recv(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		PutPayload(buf)
	}
	leg()
	n := testing.AllocsPerRun(runs, leg)
	if err := <-echo; err != nil {
		t.Fatal(err)
	}
	return n / 2
}
