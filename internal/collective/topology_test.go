package collective

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/comm"
)

// runRanks runs body on every rank of a fresh communicator set over
// net, propagating the first failure.
func runRanks(t *testing.T, p int, topo comm.Topology, net comm.Network, body func(c *Comm, rank int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := New(net.Endpoint(r))
			if topo != "" {
				c.SetTopology(topo)
			}
			errs[r] = body(c, r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestHypercubeCollectivesMatchDefault runs every collective under both
// routings on identical inputs and requires bit-identical results: the
// XOR-mapped hypercube variants are a rewiring, not a re-semantics.
// Ops are commutative, as ExclusiveScan and non-zero roots require.
func TestHypercubeCollectivesMatchDefault(t *testing.T) {
	const p = 8
	type result struct {
		bcast  [][]uint64
		reduce [][]uint64
		allred [][]uint64
		gather [][][]uint64
		scan   [][]uint64
		agree  []bool
	}
	inputs := make([][]uint64, p)
	rng := rand.New(rand.NewSource(42))
	for r := range inputs {
		inputs[r] = []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
	}
	run := func(topo comm.Topology) result {
		res := result{
			bcast:  make([][]uint64, p),
			reduce: make([][]uint64, p),
			allred: make([][]uint64, p),
			gather: make([][][]uint64, p),
			scan:   make([][]uint64, p),
			agree:  make([]bool, p),
		}
		net := comm.NewMemNetwork(p)
		defer net.Close()
		runRanks(t, p, topo, net, func(c *Comm, rank int) error {
			for root := 0; root < p; root += 3 { // roots 0, 3, 6: rotation ≠ XOR
				got, err := c.Broadcast(root, inputs[root])
				if err != nil {
					return err
				}
				if root == 3 {
					res.bcast[rank] = got
				}
				red, err := c.Reduce(root, inputs[rank], OpSum)
				if err != nil {
					return err
				}
				if root == 6 && rank == 6 {
					res.reduce[rank] = red
				}
				parts, err := c.Gather(root, inputs[rank][:1+rank%3])
				if err != nil {
					return err
				}
				if root == 3 && rank == 3 {
					res.gather[rank] = parts
				}
			}
			ar, err := c.AllReduce(inputs[rank], opMin)
			if err != nil {
				return err
			}
			res.allred[rank] = ar
			sc, err := c.ExclusiveScan(inputs[rank], OpSum, []uint64{0, 0, 0})
			if err != nil {
				return err
			}
			res.scan[rank] = sc
			if err := c.Barrier(); err != nil {
				return err
			}
			ok, err := c.AllAgree(rank != -1)
			if err != nil {
				return err
			}
			res.agree[rank] = ok
			return nil
		})
		return res
	}
	plain := run("")
	cube := run(comm.TopoHypercube)
	for r := 0; r < p; r++ {
		assertWordsEq(t, "broadcast", r, plain.bcast[r], cube.bcast[r])
		assertWordsEq(t, "reduce", r, plain.reduce[r], cube.reduce[r])
		assertWordsEq(t, "allreduce", r, plain.allred[r], cube.allred[r])
		assertWordsEq(t, "scan", r, plain.scan[r], cube.scan[r])
		if plain.agree[r] != cube.agree[r] {
			t.Fatalf("allagree rank %d: %v vs %v", r, plain.agree[r], cube.agree[r])
		}
		if len(plain.gather[r]) != len(cube.gather[r]) {
			t.Fatalf("gather rank %d: %d vs %d parts", r, len(plain.gather[r]), len(cube.gather[r]))
		}
		for i := range plain.gather[r] {
			assertWordsEq(t, "gather part", r, plain.gather[r][i], cube.gather[r][i])
		}
	}
}

func assertWordsEq(t *testing.T, what string, rank int, a, b []uint64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s rank %d: length %d vs %d", what, rank, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s rank %d: word %d differs: %d vs %d", what, rank, i, a[i], b[i])
		}
	}
}

// TestHypercubeNonPowerOfTwoFallsBack ensures the XOR variants stay off
// when p is not a power of two — XOR virtual ranks would leave [0,p).
func TestHypercubeNonPowerOfTwoFallsBack(t *testing.T) {
	const p = 6
	net := comm.NewMemNetwork(p)
	defer net.Close()
	want := uint64(0)
	for r := 0; r < p; r++ {
		want += uint64(r + 1)
	}
	runRanks(t, p, comm.TopoHypercube, net, func(c *Comm, rank int) error {
		if c.onHypercube() {
			t.Errorf("rank %d: onHypercube true at p=%d", rank, p)
		}
		got, err := c.AllReduce([]uint64{uint64(rank + 1)}, OpSum)
		if err != nil {
			return err
		}
		if got[0] != want {
			t.Errorf("rank %d: allreduce = %d, want %d", rank, got[0], want)
		}
		if _, err := c.Broadcast(4, []uint64{7}); err != nil {
			return err
		}
		return c.Barrier()
	})
}

// TestHypercubeCollectivesStayOnEdges is the core O(p log p) claim at
// the collective layer: a full workout of the recursive-doubling
// collectives — all roots — over a hypercube TCP network must not dial
// a single off-topology connection.
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
	runRanks(t, p, comm.TopoHypercube, net, func(c *Comm, rank int) error {
		if c.ConnsOpen() < 0 {
			t.Error("TCP endpoint does not meter connections")
		}
		for root := 0; root < p; root++ {
			if _, err := c.Broadcast(root, []uint64{uint64(root)}); err != nil {
				return err
			}
			if _, err := c.Reduce(root, []uint64{uint64(rank)}, OpSum); err != nil {
				return err
			}
			if _, err := c.Gather(root, []uint64{uint64(rank)}); err != nil {
				return err
			}
		}
		if _, err := c.AllReduce([]uint64{uint64(rank)}, opMax); err != nil {
			return err
		}
		if _, err := c.AllGather([]uint64{uint64(rank)}); err != nil {
			return err
		}
		if _, err := c.ExclusiveScan([]uint64{1}, OpSum, []uint64{0}); err != nil {
			return err
		}
		if _, err := c.AllAgree(true); err != nil {
			return err
		}
		return c.Barrier()
	})
	if got := net.ConnsOpen(); got != edges {
		t.Fatalf("collectives dialed off-topology: ConnsOpen=%d, want %d", got, edges)
	}
	// Sanity: the mem transport reports "no metering" rather than 0.
	mem := comm.NewMemNetwork(2)
	defer mem.Close()
	if got := New(mem.Endpoint(0)).ConnsOpen(); got != -1 {
		t.Fatalf("mem ConnsOpen = %d, want -1", got)
	}
}

// TestSubInheritsTopology checks that sub-communicators keep the
// routing hint, so async rounds and service jobs stay on-topology too.
func TestSubInheritsTopology(t *testing.T) {
	net := comm.NewMemNetwork(4)
	defer net.Close()
	runRanks(t, 4, comm.TopoHypercube, net, func(c *Comm, rank int) error {
		sub, err := c.Sub()
		if err != nil {
			return err
		}
		defer sub.Release()
		if sub.Topology() != comm.TopoHypercube {
			t.Errorf("rank %d: sub topology = %q", rank, sub.Topology())
		}
		got, err := sub.AllReduce([]uint64{1}, OpSum)
		if err != nil {
			return err
		}
		if got[0] != 4 {
			t.Errorf("rank %d: sub allreduce = %d", rank, got[0])
		}
		return nil
	})
}
