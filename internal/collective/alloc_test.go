//go:build !race

// The alloc guards live behind !race: race instrumentation inserts its
// own allocations and would report false positives.

package collective

import (
	"testing"

	"repro/internal/comm"
)

// allReduceAllocsCeiling is what one warmed 32-word AllReduce on four
// mem PEs may allocate, summed over the PEs. Measured at 13 after the
// receive deadline became one timer per endpoint and sweepUp started
// decoding into the communicator's buffer (40 before), and at 4 once
// payloads came from comm's pool and the broadcast decoded into the
// communicator's buffer too: what is left is each PE's result.
const allReduceAllocsCeiling = 4

// TestAllReduceAllocs pins the collective message path: resident PE
// goroutines run one AllReduce per round, so only what the collective
// itself allocates is counted.
func TestAllReduceAllocs(t *testing.T) {
	const p, runs = 4, 50
	net := comm.NewMemNetworkTimeout(p, 0)
	defer net.Close()
	start := make([]chan struct{}, p)
	done := make(chan error, p)
	for r := range start {
		start[r] = make(chan struct{})
		c, words := New(net.Endpoint(r)), make([]uint64, 32)
		go func() {
			for range start[r] {
				_, err := c.AllReduce(words, OpSum)
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
	t.Logf("%.2f objects per AllReduce over %d PEs", n, p)
	if n > allReduceAllocsCeiling {
		t.Errorf("warmed 32-word AllReduce on %d mem PEs allocates %.2f objects, want at most %d", p, n, allReduceAllocsCeiling)
	}
}
