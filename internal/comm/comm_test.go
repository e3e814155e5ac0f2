package comm

import (
	"fmt"
	"sync"
	"testing"
)

// runPair exercises a simple ping-pong on any network implementation.
func runPair(t *testing.T, n Network) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ep := n.Endpoint(0)
		if err := ep.Send(1, 7, []byte("ping")); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		got, err := ep.Recv(1, 8)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		if string(got) != "pong" {
			t.Errorf("got %q", got)
		}
	}()
	go func() {
		defer wg.Done()
		ep := n.Endpoint(1)
		got, err := ep.Recv(0, 7)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		if string(got) != "ping" {
			t.Errorf("got %q", got)
		}
		if err := ep.Send(0, 8, []byte("pong")); err != nil {
			t.Errorf("send: %v", err)
		}
	}()
	wg.Wait()
}

func TestMemPingPong(t *testing.T) {
	n := NewMemNetworkTimeout(2, 0)
	defer n.Close()
	runPair(t, n)
}

func TestTCPPingPong(t *testing.T) {
	n, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	runPair(t, n)
}

func TestMemTagMatching(t *testing.T) {
	n := NewMemNetworkTimeout(2, 0)
	defer n.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ep := n.Endpoint(0)
		// Send tag 2 before tag 1; the receiver asks for tag 1 first.
		ep.Send(1, 2, []byte("second"))
		ep.Send(1, 1, []byte("first"))
	}()
	ep := n.Endpoint(1)
	got1, err := ep.Recv(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ep.Recv(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got1) != "first" || string(got2) != "second" {
		t.Fatalf("tag matching failed: %q %q", got1, got2)
	}
	wg.Wait()
}

func TestMemSourceMatching(t *testing.T) {
	n := NewMemNetworkTimeout(3, 0)
	defer n.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	for src := 1; src <= 2; src++ {
		src := src
		go func() {
			defer wg.Done()
			n.Endpoint(src).Send(0, 5, []byte{byte(src)})
		}()
	}
	ep := n.Endpoint(0)
	// Request specifically from 2 first, then 1, regardless of arrival.
	got2, err := ep.Recv(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	got1, err := ep.Recv(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got2[0] != 2 || got1[0] != 1 {
		t.Fatalf("source matching failed: %v %v", got2, got1)
	}
	wg.Wait()
}

func TestMetricsCount(t *testing.T) {
	n := NewMemNetworkTimeout(2, 0)
	defer n.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n.Endpoint(0).Send(1, 0, make([]byte, 100))
	}()
	if _, err := n.Endpoint(1).Recv(0, 0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	s0 := n.Endpoint(0).Metrics().Snapshot()
	s1 := n.Endpoint(1).Metrics().Snapshot()
	if s0.BytesSent != 100 || s0.MsgsSent != 1 {
		t.Fatalf("sender metrics: %+v", s0)
	}
	if s1.BytesRecv != 100 || s1.MsgsRecv != 1 {
		t.Fatalf("receiver metrics: %+v", s1)
	}
}

func TestInvalidRank(t *testing.T) {
	n := NewMemNetworkTimeout(2, 0)
	defer n.Close()
	if err := n.Endpoint(0).Send(5, 0, nil); err == nil {
		t.Fatal("expected error for out-of-range destination")
	}
	if _, err := n.Endpoint(0).Recv(-1, 0); err == nil {
		t.Fatal("expected error for out-of-range source")
	}
}

func TestClosedNetworkFails(t *testing.T) {
	n := NewMemNetworkTimeout(2, 0)
	n.Close()
	if _, err := n.Endpoint(0).Recv(1, 0); err == nil {
		t.Fatal("expected error on closed network")
	}
}

func TestTCPManyMessages(t *testing.T) {
	const p, msgs = 4, 50
	n, err := NewTCPNetwork(p)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := n.Endpoint(r)
			next := (r + 1) % p
			prev := (r - 1 + p) % p
			for i := 0; i < msgs; i++ {
				if err := ep.Send(next, i, []byte(fmt.Sprintf("m%d from %d", i, r))); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
			for i := 0; i < msgs; i++ {
				got, err := ep.Recv(prev, i)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				want := fmt.Sprintf("m%d from %d", i, prev)
				if string(got) != want {
					t.Errorf("got %q want %q", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestTCPSelfSend(t *testing.T) {
	n, err := NewTCPNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ep := n.Endpoint(0)
	if err := ep.Send(0, 3, []byte("loop")); err != nil {
		t.Fatal(err)
	}
	got, err := ep.Recv(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "loop" {
		t.Fatalf("got %q", got)
	}
}

func TestMemSelfSend(t *testing.T) {
	n := NewMemNetworkTimeout(1, 0)
	defer n.Close()
	ep := n.Endpoint(0)
	if err := ep.Send(0, 3, []byte("loop")); err != nil {
		t.Fatal(err)
	}
	got, err := ep.Recv(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "loop" {
		t.Fatalf("got %q", got)
	}
}
