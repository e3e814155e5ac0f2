package comm

import (
	"math/bits"
	"testing"
)

// TestTopologyNeighbors spot-checks each graph and verifies the two
// invariants every topology must satisfy: symmetry (q ∈ N(r) ⇔ r ∈
// N(q), or pre-opened edges and tie-breaks would disagree between the
// two ends) and no self-loops.
func TestTopologyNeighbors(t *testing.T) {
	cases := []struct {
		topo Topology
		rank int
		p    int
		want []int
	}{
		{TopoRing, 0, 5, []int{1, 4}},
		{TopoRing, 2, 5, []int{1, 3}},
		{TopoRing, 0, 2, []int{1}},
		{TopoRing, 0, 1, nil},
		{TopoHypercube, 0, 8, []int{1, 2, 4}},
		{TopoHypercube, 5, 8, []int{1, 4, 7}},
		{TopoHypercube, 0, 6, []int{1, 2, 4}},
		{TopoHypercube, 5, 6, []int{1, 4}}, // 5^2=7 >= p: partner absent
		{TopoNone, 3, 8, nil},
		{TopoFullMesh, 1, 4, []int{0, 2, 3}},
	}
	for _, c := range cases {
		got := c.topo.Neighbors(c.rank, c.p)
		if len(got) != len(c.want) {
			t.Fatalf("%s.Neighbors(%d, %d) = %v, want %v", c.topo, c.rank, c.p, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%s.Neighbors(%d, %d) = %v, want %v", c.topo, c.rank, c.p, got, c.want)
			}
		}
	}
	for _, topo := range []Topology{TopoFullMesh, TopoRing, TopoHypercube, TopoNone} {
		for _, p := range []int{1, 2, 3, 5, 8, 13, 32} {
			adj := make([]map[int]bool, p)
			for r := 0; r < p; r++ {
				adj[r] = make(map[int]bool)
				for _, q := range topo.Neighbors(r, p) {
					if q == r {
						t.Fatalf("%s p=%d: rank %d is its own neighbor", topo, p, r)
					}
					if q < 0 || q >= p {
						t.Fatalf("%s p=%d: rank %d has out-of-range neighbor %d", topo, p, r, q)
					}
					adj[r][q] = true
				}
			}
			for r := 0; r < p; r++ {
				for q := range adj[r] {
					if !adj[q][r] {
						t.Fatalf("%s p=%d: edge %d->%d not symmetric", topo, p, r, q)
					}
				}
			}
		}
	}
}

// edges counts the undirected connections a topology pre-opens for p
// PEs — the setup-time connection bill the tests compare ConnsOpen with.
func edges(t Topology, p int) int {
	n := 0
	for r := 0; r < p; r++ {
		for _, q := range t.Neighbors(r, p) {
			if q > r {
				n++
			}
		}
	}
	return n
}

// TestTopologyEdges pins the connection bills the benchmarks and the
// O(p log p) acceptance test reason about.
func TestTopologyEdges(t *testing.T) {
	for _, c := range []struct {
		topo Topology
		p    int
		want int
	}{
		{TopoFullMesh, 8, 28}, // p(p-1)/2
		{TopoFullMesh, 32, 496},
		{TopoRing, 8, 8},
		{TopoRing, 2, 1},
		{TopoHypercube, 8, 12}, // p/2 * log2(p)
		{TopoHypercube, 32, 80},
		{TopoNone, 32, 0},
	} {
		if got := edges(c.topo, c.p); got != c.want {
			t.Fatalf("%s.Edges(%d) = %d, want %d", c.topo, c.p, got, c.want)
		}
	}
	// The headline bound: for power-of-two p the hypercube's bill stays
	// under p*(log2(p)+1), far below the mesh's quadratic bill.
	for p := 2; p <= 64; p *= 2 {
		limit := p * (bits.Len(uint(p-1)) + 1)
		if e := edges(TopoHypercube, p); e > limit {
			t.Fatalf("hypercube p=%d: %d edges exceeds p(log2(p)+1)=%d", p, e, limit)
		}
	}
}

// TestParseTopology covers the aliases and the rejection path.
func TestParseTopology(t *testing.T) {
	for in, want := range map[string]Topology{
		"":          TopoFullMesh,
		"full":      TopoFullMesh,
		"mesh":      TopoFullMesh,
		"Full-Mesh": TopoFullMesh,
		"ring":      TopoRing,
		"hypercube": TopoHypercube,
		"cube":      TopoHypercube,
		"none":      TopoNone,
		"lazy":      TopoNone,
	} {
		got, err := ParseTopology(in)
		if err != nil || got != want {
			t.Fatalf("ParseTopology(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseTopology("torus"); err == nil {
		t.Fatal("ParseTopology accepted an unknown topology")
	}
}
