package collective

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
)

// asyncNetworks builds each transport at size p; the returned cleanup
// closes it. TCP may be unavailable in sandboxed environments — the
// builder returns an error and the subtest skips.
func asyncNetworks(p int) []struct {
	name string
	mk   func() (comm.Network, error)
} {
	return []struct {
		name string
		mk   func() (comm.Network, error)
	}{
		{"mem", func() (comm.Network, error) { return comm.NewMemNetworkTimeout(p, 0), nil }},
		{"simnet", func() (comm.Network, error) { return comm.NewSimNetwork(p, 1000, 1), nil }},
		{"tcp", func() (comm.Network, error) { return comm.NewTCPNetwork(p) }},
	}
}

// runNet mirrors runSPMD over an arbitrary network.
func runNet(t *testing.T, net comm.Network, body func(c *Comm) error) {
	t.Helper()
	p := net.Size()
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = body(New(net.Endpoint(r)))
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("PE %d: %v", r, err)
		}
	}
}

// TestSubConcurrentCollectives runs two collectives concurrently on
// independent sub-communicators of one endpoint, across all three
// transports, and checks both produce exactly the synchronous results.
// Run with -race: this is the tag-safety satellite.
func TestSubConcurrentCollectives(t *testing.T) {
	const p = 4
	for _, tc := range asyncNetworks(p) {
		t.Run(tc.name, func(t *testing.T) {
			net, err := tc.mk()
			if err != nil {
				t.Skipf("transport unavailable: %v", err)
			}
			defer net.Close()
			runNet(t, net, func(c *Comm) error {
				// SPMD-ordered Sub calls: every PE derives the same two blocks.
				s1, err := c.Sub()
				if err != nil {
					return err
				}
				s2, err := c.Sub()
				if err != nil {
					return err
				}
				rank := uint64(c.Rank())
				var wg sync.WaitGroup
				var err1, err2 error
				var sum []uint64
				var parts [][]uint64
				wg.Add(2)
				go func() {
					defer wg.Done()
					sum, err1 = s1.AllReduce([]uint64{rank + 1, rank * rank}, OpSum)
				}()
				go func() {
					defer wg.Done()
					parts, err2 = s2.AllGather([]uint64{rank * 10})
				}()
				wg.Wait()
				if err1 != nil {
					return fmt.Errorf("sub1 allreduce: %w", err1)
				}
				if err2 != nil {
					return fmt.Errorf("sub2 allgather: %w", err2)
				}
				if want := uint64(p * (p + 1) / 2); sum[0] != want {
					return fmt.Errorf("allreduce sum = %d, want %d", sum[0], want)
				}
				if want := uint64(0 + 1 + 4 + 9); sum[1] != want {
					return fmt.Errorf("allreduce squares = %d, want %d", sum[1], want)
				}
				for r := 0; r < p; r++ {
					if len(parts[r]) != 1 || parts[r][0] != uint64(r*10) {
						return fmt.Errorf("allgather part %d = %v", r, parts[r])
					}
				}
				// The parent communicator stayed usable throughout.
				n, err := c.AllReduce([]uint64{1}, OpSum)
				if err != nil || n[0] != uint64(p) {
					return fmt.Errorf("parent AllReduce after concurrent subs: %v %v", n, err)
				}
				return nil
			})
		})
	}
}

// TestAsyncFirstErrorTeardown runs two all-reductions concurrently per
// PE, each on its own sub-communicator in its own goroutine — how the
// service pool runs concurrent jobs on one resident mesh — injects a hard receive fault into one of them, and checks the failure
// (a) surfaces on a faulted round, (b) does not deadlock the sibling
// round once the network is torn down, mirroring dist's first-error
// semantics. The whole dance is bounded by the network timeout; we
// require it to finish far sooner.
func TestAsyncFirstErrorTeardown(t *testing.T) {
	const p = 4
	net := comm.NewFaultyNetwork(comm.NewMemNetworkTimeout(p, time.Minute), 0, 0)
	net.ArmRecvErr(3)
	defer net.Close()

	var failed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			c := New(net.Endpoint(r))
			for round := uint64(1); round <= 2; round++ {
				sub, err := c.Sub()
				if err != nil {
					t.Error(err)
					return
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					// First-error teardown, as dist does it: the moment either
					// in-flight round fails, close the network so every sibling
					// unblocks (with ErrClosed or the same fault) instead of
					// waiting for messages that will never come.
					if _, err := sub.AllReduce([]uint64{uint64(r) * round}, OpSum); err != nil {
						failed.Add(1)
						net.Close()
					}
				}()
			}
		}
		wg.Wait()
	}()

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("teardown deadlocked: sibling collective never unblocked")
	}
	if _, _, landed := net.InjectedAt(); !landed {
		t.Fatal("fault was never injected")
	}
	if failed.Load() == 0 {
		t.Fatal("the injected fault surfaced on no round")
	}
}

// TestTagAllocationRace hammers tag allocation from many goroutines and
// checks every allocated tag is distinct — the nextTag
// concurrency-safety satellite.
func TestTagAllocationRace(t *testing.T) {
	net := comm.NewMemNetworkTimeout(1, 0)
	defer net.Close()
	c := New(net.Endpoint(0))
	const (
		workers = 16
		each    = 200
	)
	got := make([][]int, workers)
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				got[wkr] = append(got[wkr], c.nextTag())
			}
		}()
	}
	wg.Wait()
	seen := map[int]bool{}
	for _, g := range got {
		for _, tag := range g {
			if seen[tag] {
				t.Fatalf("tag %d allocated twice", tag)
			}
			seen[tag] = true
		}
	}
	if c.OpsStarted() != workers*each {
		t.Fatalf("OpsStarted = %d after %d allocations", c.OpsStarted(), workers*each)
	}
	// Sub blocks are distinct too.
	s1, err := c.Sub()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Sub()
	if err != nil {
		t.Fatal(err)
	}
	if s1.base == s2.base {
		t.Fatal("two Sub calls returned the same tag block")
	}
}
