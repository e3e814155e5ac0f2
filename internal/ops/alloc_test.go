//go:build !race

// The alloc guards live behind !race: race instrumentation inserts its
// own allocations and would report false positives.

package ops

import (
	"runtime"
	"runtime/debug"
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

func sortOnce(t *testing.T, w *dist.Worker, xs []uint64) {
	if _, err := Sort(w, xs); err != nil {
		t.Fatal(err)
	}
}

// bytesPerCall returns what one call of f allocates, averaged over runs.
// The kernel scratch lives in a sync.Pool, and two things make a warmed
// call find it empty and bill the re-allocation to the call: a
// collector cycle in the middle of the loop (ten 0.8 MB sort results
// are enough to trigger one), and the goroutine moving to another P,
// whose private pool slot is not the one it put the kernel in. So the
// loop runs with the collector held off and, like testing.AllocsPerRun,
// on one P, after one more warming call there.
func bytesPerCall(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestReduceByKeyWarmAllocs pins what a warmed ReduceByKey allocates:
// the result slice. The table and the partition bookkeeping come from
// the kernel pool, the payloads from comm's payload pool, and the slice
// of received parts is the communicator's scratch.
func TestReduceByKeyWarmAllocs(t *testing.T) {
	w := soloWorker(t)
	pairs := workload.ZipfPairs(100_000, 1_000_000, 1000, 3)
	reduceOnce(t, w, pairs)
	if n := testing.AllocsPerRun(10, func() { reduceOnce(t, w, pairs) }); n > 1 {
		t.Errorf("warmed ReduceByKey of 100k pairs allocates %.1f objects per call, want at most 1", n)
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
	perCall := bytesPerCall(20, func() { reduceOnce(t, w, small) })
	// The result is at most 16 bytes per input pair; twice that leaves
	// room for the runtime's own bookkeeping.
	if limit := uint64(32 * len(small)); perCall > limit {
		t.Errorf("2000-pair ReduceByKey after a 125k-pair one allocates %d bytes per call, want at most %d", perCall, limit)
	}
}

// TestSortWarmAllocs pins what a warmed Sort allocates: the result
// slice. The partition bookkeeping, the decoded words and the radix
// scratch come from the kernel pool, the payloads from comm's payload
// pool, and the slice of received parts is the communicator's scratch.
func TestSortWarmAllocs(t *testing.T) {
	w := soloWorker(t)
	xs := workload.UniformU64s(100_000, ^uint64(0), 6)
	sortOnce(t, w, xs)
	if n := testing.AllocsPerRun(10, func() { sortOnce(t, w, xs) }); n > 1 {
		t.Errorf("warmed Sort of 100k values allocates %.1f objects per call, want at most 1", n)
	}
	// The result is 8 bytes per value; a tenth more leaves room for the
	// size class it is rounded up to.
	if got, limit := bytesPerCall(10, func() { sortOnce(t, w, xs) }), uint64(8*len(xs)*11/10); got > limit {
		t.Errorf("warmed Sort of 100k values allocates %d bytes per call, want at most %d", got, limit)
	}
}

// TestSmallSortAfterBigStaysSmall is the same trap for the sequence
// plane: a 2000-value Sort that inherits the scratch of a 125k-value
// one must allocate in proportion to its own input.
func TestSmallSortAfterBigStaysSmall(t *testing.T) {
	w := soloWorker(t)
	sortOnce(t, w, workload.UniformU64s(125_000, ^uint64(0), 7))
	small := workload.UniformU64s(2000, ^uint64(0), 8)
	sortOnce(t, w, small)
	// The result is 8 bytes per value; twice that leaves room for the
	// runtime's own bookkeeping.
	if got, limit := bytesPerCall(20, func() { sortOnce(t, w, small) }), uint64(16*len(small)); got > limit {
		t.Errorf("2000-value Sort after a 125k-value one allocates %d bytes per call, want at most %d", got, limit)
	}
}
