package comm

import (
	"errors"
	"testing"
)

// TestRecvShim holds Endpoint.Recv, which only benchmark/ calls, to what
// its callers rely on, on every transport: out-of-order matching by tag
// and by source, an out-of-range source rejected at once, an injected
// receive fault returned to the caller it was addressed to, and
// ErrClosed once the network is down.
func TestRecvShim(t *testing.T) {
	const p = 3
	builds := []struct {
		name  string
		build func() (Network, error)
	}{
		{"mem", func() (Network, error) { return NewMemNetworkTimeout(p, 0), nil }},
		{"simnet", func() (Network, error) { return NewSimNetworkTimeout(p, 1000, 1, 0), nil }},
		{"tcp", func() (Network, error) { return NewTCPNetwork(p) }},
		{"faulty", func() (Network, error) { return disarmedFaulty(NewMemNetworkTimeout(p, 0)), nil }},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			net, err := b.build()
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			defer net.Close()
			ep := net.Endpoint(0)
			send := func(src, tag int, b byte) {
				t.Helper()
				if err := net.Endpoint(src).Send(0, tag, []byte{b}); err != nil {
					t.Fatalf("send %d->0 tag %d: %v", src, tag, err)
				}
			}
			recv := func(src, tag int, want byte) {
				t.Helper()
				if got, err := ep.Recv(src, tag); err != nil || len(got) != 1 || got[0] != want {
					t.Fatalf("Recv(%d, %d) = %v, %v; want [%d]", src, tag, got, err, want)
				}
			}

			send(1, 2, 12)
			send(1, 1, 11)
			recv(1, 1, 11)
			recv(1, 2, 12)

			send(1, 5, 15)
			send(2, 5, 25)
			recv(2, 5, 25)
			recv(1, 5, 15)

			for _, src := range []int{-1, p} {
				if _, err := ep.Recv(src, 0); err == nil {
					t.Fatalf("Recv(%d, 0) on %d PEs succeeded", src, p)
				}
			}

			if fn, ok := net.(*FaultyNetwork); ok {
				fn.ArmRecvErr(1)
				send(1, 6, 16)
				if _, err := ep.Recv(1, 6); !errors.Is(err, ErrInjected) {
					t.Fatalf("armed Recv(1, 6) = %v, want ErrInjected", err)
				}
				send(1, 6, 17)
				recv(1, 6, 17)
			}

			net.Close()
			if _, err := ep.Recv(1, 0); !errors.Is(err, ErrClosed) {
				t.Fatalf("Recv on a closed network = %v, want ErrClosed", err)
			}
		})
	}
}
