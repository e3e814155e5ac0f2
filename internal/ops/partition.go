package ops

import "repro/internal/hashing"

// Partitioner assigns keys to PEs by hash, the redistribution rule of
// reductions, GroupBy and hash Join. The GroupBy/Join redistribution
// checkers (Corollaries 14, 15) verify data movement against the order
// this partitioner induces, so it is part of the public contract.
type Partitioner struct {
	seed uint64
	p    int
}

// NewPartitioner returns the hash partitioner for p PEs keyed by seed.
func NewPartitioner(seed uint64, p int) Partitioner {
	return Partitioner{seed: hashing.Mix64(seed), p: p}
}

// PE returns the processing element responsible for key.
func (pt Partitioner) PE(key uint64) int {
	return int(hashing.Mix64(key^pt.seed) % uint64(pt.p))
}
