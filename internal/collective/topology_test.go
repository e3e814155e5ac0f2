package collective

import (
	"sync"
	"testing"

	"repro/internal/comm"
)

// runRanks runs body on every rank of a fresh communicator set over
// net, propagating the first failure.
func runRanks(t *testing.T, p int, net comm.Network, body func(c *Comm, rank int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = body(New(net.Endpoint(r)), r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

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

// cubeEdges counts the pairs (r, r^mask) with both ends below p: what a
// TopoHypercube transport pre-opens.
func cubeEdges(p int) (edges int64) {
	for r := 0; r < p; r++ {
		for mask := 1; mask < p; mask <<= 1 {
			if q := r ^ mask; r < q && q < p {
				edges++
			}
		}
	}
	return edges
}

// TestHypercubeNonPowerOfTwoStaysOnEdges: every tree edge joins ranks
// one bit apart whatever p is, so the tree collectives and the scan dial
// nothing beyond a hypercube's pre-opened edges at p = 6 — with no
// topology hint anywhere. (The barrier's dissemination schedule, which a
// non-power-of-two needs, is the one thing that leaves the cube.)
func TestHypercubeNonPowerOfTwoStaysOnEdges(t *testing.T) {
	const p = 6
	net, err := comm.NewTCPNetworkOpts(p, comm.TCPOptions{Topology: comm.TopoHypercube})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	edges := cubeEdges(p)
	if got := net.ConnsOpen(); got != edges {
		t.Fatalf("setup: ConnsOpen=%d, want %d", got, edges)
	}
	runRanks(t, p, net, treeWorkout)
	if got := net.ConnsOpen(); got != edges {
		t.Fatalf("tree collectives dialed off-topology: ConnsOpen=%d, want %d", got, edges)
	}
}

// TestHypercubeCollectivesStayOnEdges is the core O(p log p) claim at
// the collective layer: a full workout of the collectives, barrier
// included, over a power-of-two hypercube TCP network must not dial a
// single off-topology connection.
func TestHypercubeCollectivesStayOnEdges(t *testing.T) {
	const p = 8
	net, err := comm.NewTCPNetworkOpts(p, comm.TCPOptions{Topology: comm.TopoHypercube})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	edges := int64(p / 2 * 3) // the hypercube's p/2·log2(p)
	if got := net.ConnsOpen(); got != edges {
		t.Fatalf("setup: ConnsOpen=%d, want %d", got, edges)
	}
	runRanks(t, p, net, func(c *Comm, rank int) error {
		if c.ConnsOpen() < 0 {
			t.Error("TCP endpoint does not meter connections")
		}
		if err := treeWorkout(c, rank); err != nil {
			return err
		}
		return c.Barrier()
	})
	if got := net.ConnsOpen(); got != edges {
		t.Fatalf("collectives dialed off-topology: ConnsOpen=%d, want %d", got, edges)
	}
	// Sanity: the mem transport reports "no metering" rather than 0.
	mem := comm.NewMemNetworkTimeout(2, 0)
	defer mem.Close()
	if got := New(mem.Endpoint(0)).ConnsOpen(); got != -1 {
		t.Fatalf("mem ConnsOpen = %d, want -1", got)
	}
}
