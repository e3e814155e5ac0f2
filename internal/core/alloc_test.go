//go:build !race

// The alloc guards live behind !race: race instrumentation inserts its
// own allocations and would report false positives.

package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/hashing"
	"repro/internal/workload"
)

// TestSmallChunkAccumulationAllocs pins the streaming fast path: one
// chunk of an accumulation kernel on a stream-sized chunk (4 095
// elements) allocates nothing, on every accumulation kind — a sum
// builder's cells come from scratchPool with its first chunk and stay
// with it. Chunked verification feeds millions of such chunks; one
// table allocation per chunk would dominate the hot loop.
func TestSmallChunkAccumulationAllocs(t *testing.T) {
	const chunk = 4095
	pairs := workload.UniformPairs(chunk, 1<<62, 1<<62, 31)
	xs := workload.UniformU64s(chunk, 1e9, 37)

	for _, count := range []bool{false, true} {
		b := NewSumAggBuilder("chunk", SumConfig{Iterations: 4, Buckets: 16, RHatLog: 7, Family: hashing.FamilyCRC}, 1, Serial, count)
		if n := testing.AllocsPerRun(10, func() { b.AddInput(pairs) }); n != 0 {
			t.Errorf("SumAggBuilder.AddInput (count %v) allocates %.0f objects per chunk, want 0", count, n)
		}
		sinkState = b.Seal()
	}

	hc := NewHashSumChecker(HashSumConfig{Family: hashing.FamilyTab, LogH: 32, Iterations: 2}, 1)
	sums := make([]uint64, 2)
	if n := testing.AllocsPerRun(10, func() { hc.AccumulateInto(sums, xs, false) }); n != 0 {
		t.Errorf("hash sum AccumulateInto allocates %.0f objects per chunk, want 0", n)
	}

	prod := newPermChecker(PermConfig{Iterations: 2}, 1)
	slots := newSums(prod.cfg)
	if n := testing.AllocsPerRun(10, func() { prod.accumulateInto(slots, xs, true) }); n != 0 {
		t.Errorf("product accumulateInto allocates %.0f objects per chunk, want 0", n)
	}
}

// TestWarmSumAggStateAllocs pins what a whole sum-checker state costs
// the heap once the scratch pool is warm, on the benchmark of
// record's reduce_zipf share (125k Zipf pairs in, their reduction out,
// 6×32 CRC m9, serial): the builder with its checker and state, the
// checker's per-iteration arrays, its one table — and no cell scratch,
// which at 24 KiB would be most of the total if a state allocated its
// own. The byte ceiling is what this test measured before the kernel
// had cells: 3 560 bytes, in 11 objects. A builder that held its
// checker and state made them 4 objects and 3 572 bytes, and one that
// keeps a single table (output subtracted in its cells) 4 objects and
// 2 036 bytes. The ceiling keeps its slack, and the test reads the
// least of three ten-run windows: now and then a stray runtime
// allocation lands in a window, mostly about 5 KB (549 bytes a run),
// once about 59 KB (7 928 bytes a run).
func TestWarmSumAggStateAllocs(t *testing.T) {
	cfg := SumConfig{Iterations: 6, Buckets: 32, RHatLog: 9, Family: hashing.FamilyCRC}
	input := workload.ZipfPairs(125000, 1000000, 1<<30, 1)
	output := refSumAgg(input)
	run := func() { sinkState = NewSumAggState("warm", cfg, 7, input, output) }
	run()
	// Counted by hand: testing.AllocsPerRun changes GOMAXPROCS, which
	// makes sync.Pool drop what it holds — the measurement would start
	// cold.
	const runs, windows = 10, 3
	objects, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range windows {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		objects = min(objects, (after.Mallocs-before.Mallocs)/runs)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	t.Logf("warm 125k-pair sum state: %d objects, %d bytes", objects, bytes)
	if objects > 4 {
		t.Errorf("warm state allocates %d objects, want at most 4", objects)
	}
	// A stray runtime allocation during the loop is a few bytes a
	// run; one cell scratch is 24 576.
	if bytes > 3600 {
		t.Errorf("warm state allocates %d bytes, parent allocated 3560", bytes)
	}
}

// TestPackedCombineAllocs pins that combining two packed 6×32 m9 tables,
// what every tree edge of a resolve does, works lane by lane in place.
func TestPackedCombineAllocs(t *testing.T) {
	st := packedSumState()
	dst, src := append([]uint64(nil), st.Words()...), st.Words()
	if n := testing.AllocsPerRun(100, func() { st.Combine(dst, src) }); n != 0 {
		t.Errorf("Combine allocates %.0f objects per call, want 0", n)
	}
}

// TestCheckerSetupAllocs pins what building and sealing a permutation,
// sort or zip checker costs the heap in the steady state: no product
// offsets, which come with a scratch from scratchPool, and for the zip
// state just its words and the state, 2 objects: each iteration's point
// (z, y, w, z^4 and the offsets y·q) stays on the stack. Measured on
// one P with the collector held off, after a warming call there: a
// sync.Pool hands back what was put on the same P and drops its
// contents over two collections.
func TestCheckerSetupAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	xs := workload.UniformU64s(64, 1e9, 3)
	ys := workload.UniformU64s(64, 1e9, 4)
	zipped := zipPairsOf(xs, ys)
	perCall := func(run func(seed uint64)) (objects, bytes uint64) {
		run(0)
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := uint64(1); i <= runs; i++ {
			run(i)
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	for _, cfg := range []PermConfig{{Iterations: 1}, {Iterations: 2}} {
		for name, run := range map[string]func(seed uint64){
			"NewPermBuilder": func(seed uint64) {
				b := NewPermBuilder("setup", cfg, seed, Serial)
				b.AddInput(xs)
				sinkAlloc += b.Seal().Words()[0]
			},
			"NewSortedBuilder": func(seed uint64) {
				b := NewSortedBuilder("setup", cfg, seed, Serial)
				b.AddInput(xs)
				sinkAlloc += b.Seal().Words()[0]
			},
		} {
			if _, per := perCall(run); per >= 1024 {
				t.Errorf("%s Poly61 ×%d + Seal allocates %d bytes per call in the steady state, want under 1024 (one scratch is 24 576)",
					name, cfg.Iterations, per)
			}
		}
	}
	for _, cfg := range []ZipConfig{{Iterations: 1}, {Iterations: 2}} {
		objects, bytes := perCall(func(seed uint64) {
			sinkAlloc += NewZipState("setup", cfg, seed, xs, ys, zipped, 0, 0, 0, true).Words()[0]
		})
		if objects > 2 || bytes >= 1024 {
			t.Errorf("NewZipState ×%d allocates %d objects, %d bytes per call, want at most 2 objects (words and state) under 1024 bytes",
				cfg.Iterations, objects, bytes)
		}
	}
}

// sinkAlloc and sinkState defeat dead-code elimination in the alloc
// guards.
var (
	sinkAlloc uint64
	sinkState CheckState
)
