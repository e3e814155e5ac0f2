package comm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// conformanceNetworks enumerates every transport and every wrapper
// combination the runtime composes in practice: the Endpoint contract
// (matched Send and Mux.Recv, RecvAny delivery, per-message fault
// scoping through a Mux, control-tag handling) must hold identically on
// all of them, or chaos injection and the service mux fall apart on
// exactly one stack.
func conformanceNetworks(t *testing.T, p int) map[string]Network {
	t.Helper()
	nets := map[string]Network{
		"mem":           NewMemNetworkTimeout(p, 0),
		"simnet":        NewSimNetworkTimeout(p, 1000, 1, 0),
		"faulty+mem":    disarmedFaulty(NewMemNetworkTimeout(p, 0)),
		"faulty+simnet": disarmedFaulty(NewSimNetworkTimeout(p, 1000, 1, 0)),
	}
	tcp, err := NewTCPNetwork(p)
	if err != nil {
		t.Fatalf("tcp setup: %v", err)
	}
	nets["tcp"] = tcp
	tcp2, err := NewTCPNetwork(p)
	if err != nil {
		t.Fatalf("tcp setup: %v", err)
	}
	nets["faulty+tcp"] = disarmedFaulty(tcp2)
	return nets
}

func disarmedFaulty(inner Network) Network {
	n := NewFaultyNetwork(inner, 0, 0)
	n.Disarm()
	return n
}

// TestConformanceRoundtrip drives matched Send and Mux.Recv pairs
// across every (src, dst, tag) combination on each stack.
func TestConformanceRoundtrip(t *testing.T) {
	const p = 3
	for name, net := range conformanceNetworks(t, p) {
		t.Run(name, func(t *testing.T) {
			defer net.Close()
			var wg sync.WaitGroup
			errs := make(chan error, p*p)
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					ep := net.Endpoint(r)
					mux := NewMux(ep)
					for dst := 0; dst < p; dst++ {
						payload := []byte(fmt.Sprintf("%d->%d", r, dst))
						if err := ep.Send(dst, 100+r, payload); err != nil {
							errs <- fmt.Errorf("send %d->%d: %w", r, dst, err)
							return
						}
					}
					for src := 0; src < p; src++ {
						got, err := mux.Recv(src, 100+src)
						if err != nil {
							errs <- fmt.Errorf("recv %d<-%d: %w", r, src, err)
							return
						}
						if want := fmt.Sprintf("%d->%d", src, r); string(got) != want {
							errs <- fmt.Errorf("recv %d<-%d: got %q want %q", r, src, got, want)
						}
					}
				}(r)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestConformanceMuxRouting demultiplexes interleaved concurrent
// streams over each stack: two receiver goroutines per endpoint on
// distinct tags must each see their own messages in order.
func TestConformanceMuxRouting(t *testing.T) {
	const p, msgs = 2, 16
	for name, net := range conformanceNetworks(t, p) {
		t.Run(name, func(t *testing.T) {
			defer net.Close()
			muxes := []*Mux{NewMux(net.Endpoint(0)), NewMux(net.Endpoint(1))}
			var wg sync.WaitGroup
			errs := make(chan error, 4*msgs)
			for r := 0; r < p; r++ {
				ep := net.Endpoint(r)
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < msgs; i++ {
						for _, tag := range []int{7, 8} {
							if err := ep.Send(1-r, tag, []byte{byte(tag), byte(i)}); err != nil {
								errs <- err
								return
							}
						}
					}
				}(r)
				for _, tag := range []int{7, 8} {
					wg.Add(1)
					go func(r, tag int) {
						defer wg.Done()
						for i := 0; i < msgs; i++ {
							got, err := muxes[r].Recv(1-r, tag)
							if err != nil {
								errs <- fmt.Errorf("%s rank %d tag %d: %w", name, r, tag, err)
								return
							}
							if got[0] != byte(tag) || got[1] != byte(i) {
								errs <- fmt.Errorf("rank %d tag %d msg %d: got % x", r, tag, i, got)
							}
						}
					}(r, tag)
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestConformanceFaultScoping checks that a hard injected fault
// delivered through a Mux fails exactly the stream that absorbed the
// target message, while a concurrent stream on the same endpoint keeps
// receiving — the property the service pool's per-job isolation rests
// on, and the reason FaultyNetwork attaches RecvAny faults to the
// message instead of returning them.
func TestConformanceFaultScoping(t *testing.T) {
	for _, base := range []string{"mem", "tcp"} {
		t.Run("faulty+"+base, func(t *testing.T) {
			var inner Network
			if base == "mem" {
				inner = NewMemNetworkTimeout(2, 0)
			} else {
				var err error
				if inner, err = NewTCPNetwork(2); err != nil {
					t.Fatalf("tcp setup: %v", err)
				}
			}
			fn := NewFaultyNetwork(inner, 0, 0)
			fn.Disarm()
			defer fn.Close()
			mux := NewMux(fn.Endpoint(1))
			sender := fn.Endpoint(0)

			// Warm stream on tag 5 works while disarmed.
			if err := sender.Send(1, 5, []byte{1}); err != nil {
				t.Fatal(err)
			}
			if _, err := mux.Recv(0, 5); err != nil {
				t.Fatalf("disarmed recv: %v", err)
			}

			// Arm: next non-empty payload dies. Send the victim on tag 6,
			// then a healthy follow-up on tag 5 — the tag-5 stream must
			// survive the tag-6 fault.
			fn.ArmRecvErr(1)
			if err := sender.Send(1, 6, []byte{2}); err != nil {
				t.Fatal(err)
			}
			if _, err := mux.Recv(0, 6); !errors.Is(err, ErrInjected) {
				t.Fatalf("victim stream: got %v, want ErrInjected", err)
			}
			rank, tag, ok := fn.InjectedAt()
			if !ok || rank != 1 || tag != 6 {
				t.Fatalf("InjectedAt = (%d, %d, %v), want (1, 6, true)", rank, tag, ok)
			}
			fn.Disarm()
			if err := sender.Send(1, 5, []byte{3}); err != nil {
				t.Fatal(err)
			}
			if got, err := mux.Recv(0, 5); err != nil || got[0] != 3 {
				t.Fatalf("survivor stream after fault: %v %v", got, err)
			}
		})
	}
}

// TestConformanceBitflipPropagates checks ArmBitflip corrupts exactly
// one payload on every stack, visible through the Mux, and records the
// injection site.
func TestConformanceBitflipPropagates(t *testing.T) {
	for name, net := range conformanceNetworks(t, 2) {
		fn, ok := net.(*FaultyNetwork)
		if !ok {
			net.Close()
			continue
		}
		t.Run(name, func(t *testing.T) {
			defer fn.Close()
			mux := NewMux(fn.Endpoint(1))
			fn.ArmBitflip(1, 3)
			if err := fn.Endpoint(0).Send(1, 9, []byte{0, 0}); err != nil {
				t.Fatal(err)
			}
			got, err := mux.Recv(0, 9)
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			if got[0] != 1<<3 {
				t.Fatalf("payload after bitflip: % x, want bit 3 set", got)
			}
			if _, tag, ok := fn.InjectedAt(); !ok || tag != 9 {
				t.Fatalf("InjectedAt tag = %d, ok=%v", tag, ok)
			}
		})
	}
}

// TestConformanceKickTagDropped checks the control-tag contract on
// every stack: a KickTag message wakes a parked RecvAny puller without
// being delivered to any receiver.
func TestConformanceKickTagDropped(t *testing.T) {
	for name, net := range conformanceNetworks(t, 2) {
		t.Run(name, func(t *testing.T) {
			defer net.Close()
			mux := NewMux(net.Endpoint(1))
			mux.PoisonRange(50, 60, errors.New("test poison"))
			// A receiver on a poisoned tag parks in the pull; the kick
			// must wake it to observe the poison, and must not surface as
			// a message.
			done := make(chan error, 1)
			go func() {
				_, err := mux.Recv(0, 55)
				done <- err
			}()
			// Poisoned tags fail immediately (queued check) — this also
			// asserts the kick is never delivered as data.
			if err := net.Endpoint(0).Send(1, KickTag, nil); err != nil {
				t.Fatalf("kick send: %v", err)
			}
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("recv on poisoned tag succeeded")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("poisoned recv never returned")
			}
			// The healthy path still works after the kick was dropped.
			if err := net.Endpoint(0).Send(1, 70, []byte{42}); err != nil {
				t.Fatal(err)
			}
			if got, err := mux.Recv(0, 70); err != nil || got[0] != 42 {
				t.Fatalf("post-kick recv: %v %v", got, err)
			}
		})
	}
}

// TestConformanceClosedBeatsDeadline pins the taxonomy of a receive
// that blocks with nothing to match, on every transport: a likely
// deadlock while the network is open, ErrClosed once it is closed —
// also when the deadline is as due as the close signal. select picks
// among ready cases at random, so with a 1 ns deadline a transport
// whose deadline branch does not look at the close signal again reports
// "timeout … likely deadlock" for about half of these receives. The
// "Recv" row is Mux.Recv on a fresh Mux per receive (freshMuxRecv),
// because a Mux keeps a transport error sticky, and its timeout must
// name the stuck receive's src and tag, the deadlock diagnosis a
// collective reports.
func TestConformanceClosedBeatsDeadline(t *testing.T) {
	const p = 2
	tcp, err := NewTCPNetworkOpts(p, TCPOptions{Timeout: time.Nanosecond})
	if err != nil {
		t.Fatalf("tcp setup: %v", err)
	}
	nets := map[string]Network{
		"mem":    NewMemNetworkTimeout(p, time.Nanosecond),
		"simnet": NewSimNetworkTimeout(p, 1000, 1, time.Nanosecond),
		"tcp":    tcp,
	}
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			defer net.Close()
			ep := net.Endpoint(0)
			receives := map[string]func() error{
				"Recv":    func() error { return freshMuxRecv(ep) },
				"RecvAny": func() error { _, err := ep.RecvAny(); return err },
			}
			for op, recv := range receives {
				err := recv()
				if err == nil || errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "likely deadlock") {
					t.Errorf("%s on an open, silent network: got %v, want a likely-deadlock timeout", op, err)
				} else if op == "Recv" && !strings.Contains(err.Error(), "recv (src=1, tag=3)") {
					t.Errorf("Recv timeout %q does not name the stuck receive's src and tag", err)
				}
			}
			net.Close()
			for op, recv := range receives {
				for i := 0; i < 100; i++ {
					if err := recv(); !errors.Is(err, ErrClosed) {
						t.Fatalf("%s #%d on a closed network: got %v, want ErrClosed", op, i, err)
					}
				}
			}
		})
	}
}

// freshMuxRecv receives (1, 3) on PE ep through a Mux of its own, so a
// transport error an earlier receive left sticky on its Mux does not
// answer this one.
func freshMuxRecv(ep Endpoint) error {
	_, err := NewMux(ep).Recv(1, 3)
	return err
}

// TestConformanceDeadlineRearms pins the receive deadline on every
// transport now that one timer per endpoint serves all of the owner's
// receives. A silent receive times out, and not early; the next two
// receives each get their message 30 ms after the call, inside the
// 50 ms deadline, so an expiry left over from the first would fail
// them; and a last silent receive waits the whole deadline again. The
// "Recv" rows are Mux.Recv on a fresh Mux per receive (freshMuxRecv).
func TestConformanceDeadlineRearms(t *testing.T) {
	const timeout, late = 50 * time.Millisecond, 30 * time.Millisecond
	builds := map[string]func() (Network, error){
		"mem":    func() (Network, error) { return NewMemNetworkTimeout(2, timeout), nil },
		"simnet": func() (Network, error) { return NewSimNetworkTimeout(2, 1000, 1, timeout), nil },
		"tcp":    func() (Network, error) { return NewTCPNetworkOpts(2, TCPOptions{Timeout: timeout}) },
	}
	receives := map[string]func(ep Endpoint) error{
		"Recv":    freshMuxRecv,
		"RecvAny": func(ep Endpoint) error { _, err := ep.RecvAny(); return err },
	}
	for name, build := range builds {
		for op, recv := range receives {
			t.Run(name+"/"+op, func(t *testing.T) {
				net, err := build()
				if err != nil {
					t.Fatalf("setup: %v", err)
				}
				defer net.Close()
				ep, peer := net.Endpoint(0), net.Endpoint(1)
				silent := func(which string) {
					start := time.Now()
					err := recv(ep)
					if waited := time.Since(start); err == nil || !strings.Contains(err.Error(), "likely deadlock") || waited < timeout {
						t.Fatalf("%s silent %s: got %v after %v, want a likely-deadlock timeout after at least %v", which, op, err, waited, timeout)
					}
				}
				silent("first")
				for i := range 2 {
					sent := make(chan error, 1)
					time.AfterFunc(late, func() { sent <- peer.Send(0, 3, []byte{byte(i)}) })
					start := time.Now()
					if err := recv(ep); err != nil {
						t.Fatalf("%s #%d, message sent %v after the call: got %v after %v", op, i, late, err, time.Since(start))
					}
					if err := <-sent; err != nil {
						t.Fatalf("send #%d: %v", i, err)
					}
				}
				silent("last")
			})
		}
	}
}
