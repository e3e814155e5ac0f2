package comm

import (
	"fmt"
	"strings"
)

// Topology names the connection graph a TCP transport pre-opens at
// setup. It decouples the connection graph from the communication
// pattern's *worst case*: any pair of PEs may still talk — a send along
// an edge outside the topology triggers a lazy, handshake-deduplicated
// dial — but only the pre-opened neighbor set costs connections up
// front. Since the collectives are sweeps of a binomial tree, whose
// edges join ranks one bit apart, a hypercube keeps a whole checked
// pipeline on O(p log p) connections network-wide instead of the full
// mesh's O(p^2).
type Topology string

const (
	// TopoFullMesh pre-opens every pair eagerly at setup — the historic
	// behavior, and the default. Setup cost: p(p-1)/2 connections.
	TopoFullMesh Topology = "full"
	// TopoRing pre-opens each PE's ±1 neighbors: p connections. The
	// sort checker's boundary exchange and the membership heartbeat
	// ring live entirely on these edges.
	TopoRing Topology = "ring"
	// TopoHypercube pre-opens rank^2^k for all k: ~p/2*ceil(log2 p)
	// connections. The tree collectives and the scan (broadcast, reduce,
	// allreduce, gather — the whole checker resolution path) run
	// entirely on these edges for every p, the barrier when p is a power
	// of two.
	TopoHypercube Topology = "hypercube"
	// TopoNone pre-opens nothing: every connection is dialed lazily on
	// first use. Minimal setup latency; first-message latency pays the
	// handshake.
	TopoNone Topology = "none"
)

// ParseTopology converts a flag value into a Topology. It accepts
// "full" (aliases "mesh", "full-mesh", ""), "ring", "hypercube" (alias
// "cube"), and "none" (alias "lazy").
func ParseTopology(s string) (Topology, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "full", "mesh", "full-mesh", "fullmesh":
		return TopoFullMesh, nil
	case "ring":
		return TopoRing, nil
	case "hypercube", "cube":
		return TopoHypercube, nil
	case "none", "lazy":
		return TopoNone, nil
	}
	return "", fmt.Errorf("comm: unknown topology %q (want full, ring, hypercube, or none)", s)
}

// Neighbors returns the peers of rank whose connections the topology
// pre-opens in a p-PE network, in ascending order. Self is never a
// neighbor. For TopoHypercube with p not a power of two, partners
// beyond p-1 are simply absent (the binomial tree skips them the same
// way).
func (t Topology) Neighbors(rank, p int) []int {
	switch t {
	case TopoRing:
		if p < 2 {
			return nil
		}
		prev, next := (rank-1+p)%p, (rank+1)%p
		if prev == next { // p == 2
			return []int{prev}
		}
		if prev < next {
			return []int{prev, next}
		}
		return []int{next, prev}
	case TopoHypercube:
		var out []int
		for mask := 1; mask < p; mask <<= 1 {
			if q := rank ^ mask; q < p {
				out = append(out, q)
			}
		}
		// rank^mask descends through set bits then ascends; normalize.
		sortInts(out)
		return out
	case TopoNone:
		return nil
	default: // TopoFullMesh and unknown values behave like full mesh
		out := make([]int, 0, p-1)
		for q := 0; q < p; q++ {
			if q != rank {
				out = append(out, q)
			}
		}
		return out
	}
}

// sortInts is a tiny insertion sort: neighbor lists are O(log p) long,
// not worth pulling in package sort.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
