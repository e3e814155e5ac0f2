//go:build !race

// The alloc guards live behind !race: race instrumentation inserts its
// own allocations and would report false positives.

package core

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/hashing"
	"repro/internal/workload"
)

// resolveAllocsCeiling is what one warmed resolve of a sum state and a
// permutation state on four mem PEs may allocate, summed over the PEs.
// Measured at 8 once payloads came from comm's pool and ResolveOn built
// its vector once and reduced in place (33 before): each PE's vector
// and its verdict slice. 4 since the vector is the communicator's
// scratch (collective.Comm.Words): each PE's verdict slice.
const resolveAllocsCeiling = 4

// TestResolveOnAllocs pins the resolve path: resident PE goroutines
// resolve the same two sealed states once per round (Combine and
// Verdict only read them), so only what ResolveOn and the collectives
// beneath it allocate is counted.
func TestResolveOnAllocs(t *testing.T) {
	const p, runs = 4, 50
	pairs := workload.ZipfPairs(4000, 500, 1000, 3)
	values := workload.UniformU64s(4000, 1<<40, 4)
	permCfg := PermConfig{Family: hashing.FamilyTab, LogH: 32, Iterations: 2}
	net := comm.NewMemNetwork(p)
	defer net.Close()
	start := make([]chan struct{}, p)
	done := make(chan error, p)
	for r := range start {
		start[r] = make(chan struct{})
		c := collective.New(net.Endpoint(r))
		states := []CheckState{
			NewSumAggState("sum", smallCfg, 7, shardPairs(pairs, p, r), shardPairs(refSumAgg(pairs), p, r)),
			NewPermState("perm", permCfg, 8, [][]uint64{shardU64(values, p, r)}, shardU64(values, p, r)),
		}
		go func() {
			for range start[r] {
				v, err := ResolveOn(c, states...)
				if err == nil && (!v[0] || !v[1]) {
					t.Errorf("PE %d: clean states rejected: %v", r, v)
				}
				done <- err
			}
		}()
		defer close(start[r])
	}
	round := func() {
		for _, s := range start {
			s <- struct{}{}
		}
		for range p {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	n := testing.AllocsPerRun(runs, round)
	t.Logf("%.2f objects per resolve over %d PEs", n, p)
	if n > resolveAllocsCeiling {
		t.Errorf("warmed resolve of a sum and a perm state on %d mem PEs allocates %.2f objects, want at most %d", p, n, resolveAllocsCeiling)
	}
}
