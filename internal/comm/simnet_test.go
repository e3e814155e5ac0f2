package comm

import (
	"errors"
	"sync"
	"testing"
)

func TestSimNetworkModelsAlphaBeta(t *testing.T) {
	n := NewSimNetworkTimeout(2, 100, 2, 0) // alpha=100ns, beta=2ns/byte
	defer n.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ep := n.Endpoint(0)
		if err := ep.Send(1, 0, make([]byte, 50)); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := NewMux(n.Endpoint(1)).Recv(0, 0); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	// Sender: 100 + 2*50 = 200 ns. Receiver clock jumps to arrival.
	if got := n.eps[0].clockNs(); got != 200 {
		t.Errorf("sender clock %f, want 200", got)
	}
	if got := n.eps[1].clockNs(); got != 200 {
		t.Errorf("receiver clock %f, want 200", got)
	}
	if n.MakespanNs() != 200 {
		t.Errorf("makespan %f", n.MakespanNs())
	}
}

func TestSimNetworkSequentialSendsAccumulate(t *testing.T) {
	n := NewSimNetworkTimeout(2, 10, 1, 0)
	defer n.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ep := n.Endpoint(0)
		for i := 0; i < 3; i++ {
			if err := ep.Send(1, i, make([]byte, 10)); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		mux := NewMux(n.Endpoint(1))
		for i := 0; i < 3; i++ {
			if _, err := mux.Recv(0, i); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	// Three sends of 10 bytes: 3 * (10 + 10) = 60 ns at the sender; the
	// last arrival dominates the receiver.
	if got := n.eps[0].clockNs(); got != 60 {
		t.Errorf("sender clock %f, want 60", got)
	}
	if got := n.eps[1].clockNs(); got != 60 {
		t.Errorf("receiver clock %f, want 60", got)
	}
}

func TestSimNetworkIdleReceiverWaits(t *testing.T) {
	// A receiver that was already ahead keeps its clock.
	n := NewSimNetworkTimeout(2, 10, 0, 0)
	defer n.Close()
	n.eps[1].advance(1000)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		n.Endpoint(0).Send(1, 0, nil)
	}()
	go func() {
		defer wg.Done()
		NewMux(n.Endpoint(1)).Recv(0, 0)
	}()
	wg.Wait()
	if got := n.eps[1].clockNs(); got != 1000 {
		t.Errorf("receiver clock %f, want 1000 (already ahead)", got)
	}
}

func TestSimNetworkResetClocks(t *testing.T) {
	n := NewSimNetworkTimeout(1, 10, 1, 0)
	defer n.Close()
	n.eps[0].advance(500)
	n.ResetClocks()
	if n.MakespanNs() != 0 {
		t.Error("clocks not reset")
	}
}

func TestSimNetworkPayloadIntact(t *testing.T) {
	n := NewSimNetworkTimeout(2, 1, 1, 0)
	defer n.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n.Endpoint(0).Send(1, 5, []byte("payload"))
	}()
	got, err := NewMux(n.Endpoint(1)).Recv(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("payload corrupted: %q", got)
	}
	wg.Wait()
}

// TestSimNetworkClockThroughFaultyNetwork checks that a receiver's clock
// reaches the modeled arrival through a FaultyNetwork: the arrival rides
// the Message, which the wrapper passes on, and a message the wrapper
// fails (ArmRecvErr) still completed its modeled transfer.
func TestSimNetworkClockThroughFaultyNetwork(t *testing.T) {
	sim := NewSimNetworkTimeout(2, 100, 2, 0) // alpha=100ns, beta=2ns/byte
	fn := NewFaultyNetwork(sim, 0, 0)
	defer fn.Close()
	send, mux := fn.Endpoint(0), NewMux(fn.Endpoint(1))
	// Each 50-byte message costs 100 + 2*50 = 200 ns at the sender.
	if err := send.Send(1, 0, make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := mux.Recv(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := sim.eps[1].clockNs(); got != 200 {
		t.Errorf("receiver clock %f after a clean message, want 200", got)
	}
	fn.ArmRecvErr(1)
	if err := send.Send(1, 1, make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := mux.Recv(0, 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("recv of the armed message = %v, want ErrInjected", err)
	}
	if got := sim.eps[1].clockNs(); got != 400 {
		t.Errorf("receiver clock %f after a failed message, want 400", got)
	}
}
