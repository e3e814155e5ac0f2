package comm

import "testing"

// Every network and wrapper in the package implements Meterer —
// including TCPNode, whose cross-process form the in-process sweep
// below cannot exercise.
var (
	_ Meterer = (*memNetwork)(nil)
	_ Meterer = (*SimNetwork)(nil)
	_ Meterer = (*TCPNetwork)(nil)
	_ Meterer = (*TCPNode)(nil)
	_ Meterer = (*FaultyNetwork)(nil)
)

// exchange pushes one metered message each way between ranks 0 and 1.
func exchange(t *testing.T, n Network, payload int) {
	t.Helper()
	buf := make([]byte, payload)
	done := make(chan error, 1)
	go func() {
		if err := n.Endpoint(1).Send(0, 7, make([]byte, payload)); err != nil {
			done <- err
			return
		}
		_, err := n.Endpoint(1).Recv(0, 8)
		done <- err
	}()
	if err := n.Endpoint(0).Send(1, 8, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint(0).Recv(1, 7); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestMeterAllTransportsAndWrappers is the Meterer conformance sweep:
// every network — and every wrapper, which used to hide the inner
// transport's counters — must expose a coherent unified meter after
// identical traffic.
func TestMeterAllTransportsAndWrappers(t *testing.T) {
	const payload = 64
	cases := []struct {
		name         string
		build        func(t *testing.T) Network
		connected    bool // ConnsOpen ≥ 0 expected
		wantWire     bool // WireSent/WireRecv > 0 expected
		payloadExact bool // BytesSent exactly 2×payload
	}{
		{"mem", func(t *testing.T) Network { return NewMemNetworkTimeout(2, 0) }, false, false, true},
		{"simnet", func(t *testing.T) Network { return NewSimNetwork(2, 1000, 1) }, false, false, false},
		{"tcp", func(t *testing.T) Network {
			n, err := NewTCPNetwork(2)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}, true, true, true},
		{"faulty-over-mem", func(t *testing.T) Network {
			return NewFaultyNetwork(NewMemNetworkTimeout(2, 0), 0, 0)
		}, false, false, true},
		{"faulty-over-tcp", func(t *testing.T) Network {
			n, err := NewTCPNetwork(2)
			if err != nil {
				t.Fatal(err)
			}
			return NewFaultyNetwork(n, 0, 0)
		}, true, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.build(t)
			defer n.Close()
			exchange(t, n, payload)
			s := NetworkMeter(n)
			if s.MsgsSent != 2 || s.MsgsRecv != 2 {
				t.Fatalf("msgs = %d/%d, want 2/2", s.MsgsSent, s.MsgsRecv)
			}
			if tc.payloadExact && (s.BytesSent != 2*payload || s.BytesRecv != 2*payload) {
				t.Fatalf("bytes = %d/%d, want %d/%d", s.BytesSent, s.BytesRecv, 2*payload, 2*payload)
			}
			if !tc.payloadExact && s.BytesSent < 2*payload {
				t.Fatalf("bytes sent = %d, want ≥ %d", s.BytesSent, 2*payload)
			}
			if tc.connected {
				if s.ConnsOpen < 1 {
					t.Fatalf("ConnsOpen = %d, want ≥ 1", s.ConnsOpen)
				}
				if s.Dials < 1 {
					t.Fatalf("Dials = %d, want ≥ 1", s.Dials)
				}
			} else if s.ConnsOpen != -1 {
				t.Fatalf("ConnsOpen = %d, want -1 for connectionless", s.ConnsOpen)
			}
			if tc.wantWire {
				// Wire traffic includes framing, so it must exceed payload.
				if s.WireSent <= 2*payload || s.WireRecv <= 2*payload {
					t.Fatalf("wire = %d/%d, want > %d (framing included)", s.WireSent, s.WireRecv, 2*payload)
				}
			} else if s.WireSent != 0 || s.WireRecv != 0 {
				t.Fatalf("wire = %d/%d, want 0/0 for non-socket transport", s.WireSent, s.WireRecv)
			}
		})
	}
}

// TestMeterPeerDownEvents pins the FaultyNetwork-specific counter.
func TestMeterPeerDownEvents(t *testing.T) {
	fn := NewFaultyNetwork(NewMemNetworkTimeout(4, 0), 0, 0)
	defer fn.Close()
	if got := fn.Meter().PeerDowns; got != 0 {
		t.Fatalf("PeerDowns = %d before any kill", got)
	}
	fn.ArmPeerDown(2)
	if got := fn.Meter().PeerDowns; got != 1 {
		t.Fatalf("PeerDowns = %d after ArmPeerDown, want 1", got)
	}
}
