package comm

import (
	"errors"
	"testing"
)

// TestArmPeerDown pins the crash semantics a dead peer's attribution
// builds on: the dead rank's own operations fail like a local crash,
// with an error naming the rank, while survivors' sends to it vanish
// silently — death is silence to them, never a send error.
func TestArmPeerDown(t *testing.T) {
	inner := NewMemNetworkTimeout(3, 0)
	defer inner.Close()
	fn := NewFaultyNetwork(inner, 0, 0)
	if int(fn.dead.Load()) != -1 {
		t.Fatalf("fresh network reports dead rank %d", int(fn.dead.Load()))
	}
	fn.ArmPeerDown(1)
	if int(fn.dead.Load()) != 1 {
		t.Fatalf("DeadRank = %d, want 1", int(fn.dead.Load()))
	}

	// The dead rank's own operations fail with ErrClosed and name it.
	_, recvErr := fn.Endpoint(1).Recv(0, 5)
	_, anyErr := fn.Endpoint(1).RecvAny()
	for op, err := range map[string]error{
		"send":    fn.Endpoint(1).Send(0, 5, []byte{1}),
		"recv":    recvErr,
		"recvany": anyErr,
	} {
		var pd *PeerDownError
		if !errors.Is(err, ErrClosed) || !errors.As(err, &pd) || pd.Rank != 1 {
			t.Fatalf("dead %s: %v, want ErrClosed and PeerDownError{Rank: 1}", op, err)
		}
	}

	// Survivors' sends to the dead rank are blackholed: nil error, no
	// delivery, no failure signal to detect a death from.
	if err := fn.Endpoint(0).Send(1, 5, []byte{2}); err != nil {
		t.Fatalf("send to dead rank surfaced an error: %v", err)
	}

	// Survivor-to-survivor traffic is untouched.
	if err := fn.Endpoint(0).Send(2, 7, []byte{3}); err != nil {
		t.Fatalf("survivor send: %v", err)
	}
	got, err := fn.Endpoint(2).Recv(0, 7)
	if err != nil || len(got) != 1 || got[0] != 3 {
		t.Fatalf("survivor recv: %v %v", got, err)
	}
}

// TestArmPeerDownOutOfRange must be a no-op.
func TestArmPeerDownOutOfRange(t *testing.T) {
	inner := NewMemNetworkTimeout(2, 0)
	defer inner.Close()
	fn := NewFaultyNetwork(inner, 0, 0)
	fn.ArmPeerDown(-1)
	fn.ArmPeerDown(2)
	if int(fn.dead.Load()) != -1 {
		t.Fatalf("out-of-range ArmPeerDown killed rank %d", int(fn.dead.Load()))
	}
	if err := fn.Endpoint(0).Send(1, 3, []byte{9}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := fn.Endpoint(1).Recv(0, 3); err != nil {
		t.Fatalf("recv: %v", err)
	}
}
