package comm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestMuxConcurrentDisjointTags runs two independent exchange patterns
// per PE concurrently through one Mux per endpoint — the situation two
// collectives in flight on disjoint tag blocks create — and checks no
// message is lost, duplicated, or cross-delivered. Run with -race.
func TestMuxConcurrentDisjointTags(t *testing.T) {
	const p = 4
	const rounds = 32
	for _, tc := range []struct {
		name string
		mk   func() Network
	}{
		{"mem", func() Network { return NewMemNetworkTimeout(p, 0) }},
		{"simnet", func() Network { return NewSimNetwork(p, 100, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.mk()
			defer n.Close()
			muxes := make([]*Mux, p)
			for r := 0; r < p; r++ {
				muxes[r] = NewMux(n.Endpoint(r))
			}
			var wg sync.WaitGroup
			errs := make(chan error, 2*p)
			// Two tag planes, far apart, like two sub-communicators.
			for _, base := range []int{1 << 20, 1 << 21} {
				for r := 0; r < p; r++ {
					wg.Add(1)
					go func(base, rank int) {
						defer wg.Done()
						m := muxes[rank]
						for round := 0; round < rounds; round++ {
							tag := base + round
							dst := (rank + 1) % p
							src := (rank + p - 1) % p
							want := fmt.Sprintf("b%d r%d from %d", base, round, src)
							if err := m.Send(dst, tag, []byte(fmt.Sprintf("b%d r%d from %d", base, round, rank))); err != nil {
								errs <- err
								return
							}
							got, err := m.Recv(src, tag)
							if err != nil {
								errs <- err
								return
							}
							if string(got) != want {
								errs <- fmt.Errorf("plane %d rank %d round %d: got %q, want %q", base, rank, round, got, want)
								return
							}
						}
					}(base, r)
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestMuxFIFOPerKey checks per-(src,tag) delivery order survives the
// demultiplexer while an interleaved second tag is in play.
func TestMuxFIFOPerKey(t *testing.T) {
	n := NewMemNetworkTimeout(2, 0)
	defer n.Close()
	sender := n.Endpoint(0)
	m := NewMux(n.Endpoint(1))
	// Two messages per iteration; stay under the inbox capacity (2p+16)
	// since nothing drains while we send.
	const k = 8
	for i := 0; i < k; i++ {
		if err := sender.Send(1, 5, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := sender.Send(1, 9, []byte{byte(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		a, err := m.Recv(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if a[0] != byte(i) {
			t.Fatalf("tag 5 message %d: got %d", i, a[0])
		}
		b, err := m.Recv(0, 9)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != byte(100+i) {
			t.Fatalf("tag 9 message %d: got %d", i, b[0])
		}
	}
}

// TestMuxPoison checks that an endpoint error (network closure here)
// fails every blocked receiver, not only the one at the endpoint.
func TestMuxPoison(t *testing.T) {
	n := NewMemNetworkTimeout(2, time.Minute)
	m := NewMux(n.Endpoint(1))
	const waiters = 4
	got := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func(tag int) {
			_, err := m.Recv(0, tag)
			got <- err
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	n.Close()
	for i := 0; i < waiters; i++ {
		select {
		case err := <-got:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("waiter error = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("mux receiver not released by network close")
		}
	}
	// The poison is sticky: later receives fail immediately.
	if _, err := m.Recv(0, 99); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-poison Recv = %v, want ErrClosed", err)
	}
}

// TestRecvAnyDrainsParkedFirst checks RecvAny returns messages parked
// by earlier mismatched tag-matched receives before pulling new ones.
func TestRecvAnyDrainsParkedFirst(t *testing.T) {
	n := NewMemNetworkTimeout(2, 0)
	defer n.Close()
	sender, ep := n.Endpoint(0), n.Endpoint(1)
	if err := sender.Send(1, 1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := sender.Send(1, 2, []byte("second")); err != nil {
		t.Fatal(err)
	}
	// Matching tag 2 parks the tag-1 message.
	if got, err := ep.Recv(0, 2); err != nil || string(got) != "second" {
		t.Fatalf("Recv(0,2) = %q, %v", got, err)
	}
	m, err := ep.RecvAny()
	if err != nil {
		t.Fatal(err)
	}
	if m.Src != 0 || m.Tag != 1 || string(m.Payload) != "first" {
		t.Fatalf("RecvAny = src %d tag %d %q, want parked (0, 1, first)", m.Src, m.Tag, m.Payload)
	}
}

// TestFaultyRecvErrInjection checks hard-fault mode: the target receive
// reports ErrInjected, and InjectedAt reports the landing.
func TestFaultyRecvErrInjection(t *testing.T) {
	f := NewFaultyNetwork(NewMemNetworkTimeout(2, 0), 0, 0)
	defer f.Close()
	f.ArmRecvErr(2)
	sender, ep := f.Endpoint(0), f.Endpoint(1)
	for i := 0; i < 2; i++ {
		if err := sender.Send(1, 3, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ep.Recv(0, 3); err != nil {
		t.Fatalf("first receive: %v", err)
	}
	if _, _, landed := f.InjectedAt(); landed {
		t.Fatal("injected too early")
	}
	if _, err := ep.Recv(0, 3); !errors.Is(err, ErrInjected) {
		t.Fatalf("second receive = %v, want ErrInjected", err)
	}
	if _, _, landed := f.InjectedAt(); !landed {
		t.Fatal("InjectedAt reports no landing")
	}
}
