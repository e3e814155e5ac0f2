package collective

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"repro/internal/comm"
)

// treeWorkout runs every collective that is a sweep of the tree — the
// whole checker resolution path — once.
func treeWorkout(c *Comm, rank int) error {
	if _, err := c.Broadcast([]uint64{7}); err != nil {
		return err
	}
	if _, err := c.Reduce([]uint64{uint64(rank)}, OpSum); err != nil {
		return err
	}
	if _, err := c.Gather([]uint64{uint64(rank)}); err != nil {
		return err
	}
	if _, err := c.AllReduce([]uint64{uint64(rank)}, opMax); err != nil {
		return err
	}
	if _, err := c.AllGather([]uint64{uint64(rank)}); err != nil {
		return err
	}
	_, _, err := c.ExclusiveScan([]uint64{1}, OpSum, []uint64{0})
	return err
}

// edgeRecorder is an endpoint that notes every send to a rank differing
// from its own in more than one bit.
type edgeRecorder struct {
	comm.Endpoint
	mu  *sync.Mutex
	off *[]string
}

func (e edgeRecorder) Send(dst, tag int, payload []byte) error {
	if bits.OnesCount(uint(e.Rank()^dst)) > 1 {
		e.mu.Lock()
		*e.off = append(*e.off, fmt.Sprintf("%d->%d", e.Rank(), dst))
		e.mu.Unlock()
	}
	return e.Endpoint.Send(dst, tag, payload)
}

// checkOneBitEdges runs treeWorkout, and the barrier if barrier is set,
// on p recording mem endpoints and fails on any send between ranks more
// than one bit apart.
func checkOneBitEdges(t *testing.T, p int, barrier bool) {
	t.Helper()
	net := comm.NewMemNetworkTimeout(p, 0)
	var (
		mu  sync.Mutex
		off []string
		wg  sync.WaitGroup
	)
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := New(edgeRecorder{Endpoint: net.Endpoint(r), mu: &mu, off: &off})
			if errs[r] = treeWorkout(c, r); errs[r] == nil && barrier {
				errs[r] = c.Barrier()
			}
		}(r)
	}
	wg.Wait()
	net.Close()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("p=%d rank %d: %v", p, r, err)
		}
	}
	if len(off) > 0 {
		t.Fatalf("p=%d (barrier %v): %d sends left the one-bit edges, e.g. %v", p, barrier, len(off), off[0])
	}
}

// TestHypercubeCollectivesStayOnEdges: at a power of two every
// collective, barrier included, sends only along hypercube edges (ranks
// one bit apart).
func TestHypercubeCollectivesStayOnEdges(t *testing.T) {
	for _, p := range []int{8, 32} {
		checkOneBitEdges(t, p, true)
	}
}

// TestHypercubeNonPowerOfTwoStaysOnEdges: every tree edge joins ranks
// one bit apart whatever p is, so the tree collectives and the scan send
// nothing else at p = 6 and 24. The barrier is left out: its
// dissemination schedule for such p leaves those edges.
func TestHypercubeNonPowerOfTwoStaysOnEdges(t *testing.T) {
	for _, p := range []int{6, 24} {
		checkOneBitEdges(t, p, false)
	}
}
