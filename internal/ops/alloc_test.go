//go:build !race

// The alloc guards live behind !race: race instrumentation inserts its
// own allocations and would report false positives.

package ops

import (
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/workload"
)

func reduceOnce(t *testing.T, w *dist.Worker, pairs []data.Pair) {
	if _, err := ReduceByKey(w, NewPartitioner(1, 1), pairs, SumFn); err != nil {
		t.Fatal(err)
	}
}

// TestReduceByKeyWarmAllocs pins what a warmed ReduceByKey allocates:
// the result slice and the all-to-all's slice of received parts. The
// table, the partition bookkeeping and the payload buffers come from
// the kernel pool.
func TestReduceByKeyWarmAllocs(t *testing.T) {
	w := soloWorker(t)
	pairs := workload.ZipfPairs(100_000, 1_000_000, 1000, 3)
	reduceOnce(t, w, pairs)
	if n := testing.AllocsPerRun(10, func() { reduceOnce(t, w, pairs) }); n > 4 {
		t.Errorf("warmed ReduceByKey of 100k pairs allocates %.0f objects per call, want at most 4", n)
	}
}

// TestSmallReduceAfterBigStaysSmall is the small-job-after-big-job
// trap: once a 125k-pair call has grown the pooled kernel, a 2000-pair
// call must still allocate in proportion to its own input, not to the
// table it inherited.
func TestSmallReduceAfterBigStaysSmall(t *testing.T) {
	w := soloWorker(t)
	reduceOnce(t, w, workload.ZipfPairs(125_000, 1_000_000, 1000, 4))
	small := workload.ZipfPairs(2000, 1_000_000, 1000, 5)
	reduceOnce(t, w, small)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		reduceOnce(t, w, small)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	// The result is at most 16 bytes per input pair; twice that leaves
	// room for the runtime's own bookkeeping.
	if limit := uint64(32 * len(small)); perCall > limit {
		t.Errorf("2000-pair ReduceByKey after a 125k-pair one allocates %d bytes per call, want at most %d", perCall, limit)
	}
}
