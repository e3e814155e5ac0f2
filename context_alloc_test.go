//go:build !race

// The alloc guards live behind !race: race instrumentation inserts its
// own allocations and would report false positives.

package repro_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/workload"
)

// contextStageAllocsCeiling is what a warmed one-stage deferred
// pipeline — NewContext, AssertSum, Verify — may allocate over four
// mem PEs. Before the Context kept its first stages' bookkeeping inline
// and ResolveOn built its vector in the communicator's scratch this
// test measured 80 objects (a label, the pending, stats and summary
// entries, the state slices and their concatenation, the resolve
// vector and the checker's pieces, on every PE); now 24: on every PE
// the Context, the builder with its checker and state, the checker's
// arrays, the tables, its hash function and the verdict slice.
const contextStageAllocsCeiling = 24

// TestContextStageAllocs pins the bookkeeping a stage costs in the
// Context and the resolve: resident PE goroutines run the pipeline once
// per round on their resident root communicators. Measured on one P
// with the collector held off, after warming rounds there, since the
// checker's scratch lives in a sync.Pool.
func TestContextStageAllocs(t *testing.T) {
	const p, runs = 4, 64
	input := workload.ZipfPairs(8000, 500, 1<<30, 3)
	output := sumByKey(input)
	opts := repro.DefaultOptions()
	opts.Mode = repro.CheckDeferred
	net := comm.NewMemNetworkTimeout(p, 0)
	defer net.Close()
	ws, err := dist.NewWorkers(net, 7)
	if err != nil {
		t.Fatal(err)
	}
	start := make([]chan struct{}, p)
	done := make(chan error, p)
	for r, w := range ws {
		start[r] = make(chan struct{})
		in, out := shardPairs(input, p, r), shardPairs(output, p, r)
		go func() {
			for range start[r] {
				ctx, err := repro.NewContext(w, opts)
				if err == nil {
					err = ctx.AssertSum(in, out)
				}
				if err == nil {
					err = ctx.Verify()
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 4 {
		round()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		round()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%.1f objects per one-stage deferred pipeline over %d PEs", got, p)
	if got > contextStageAllocsCeiling {
		t.Errorf("warmed one-stage deferred pipeline on %d mem PEs allocates %.1f objects, want at most %d", p, got, contextStageAllocsCeiling)
	}
}
