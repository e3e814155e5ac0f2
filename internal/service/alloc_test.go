//go:build !race

// The alloc guards live behind !race: race instrumentation inserts its
// own allocations and would report false positives.

package service

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro"
)

// poolJobAllocCeilings is what one warmed job may allocate on a 4-PE
// mem pool, summed over everything the job touches: admission, the
// ranks, their Contexts and checkers, the resolve and the handle. The
// claim kinds are service_mixed's, at 2 000 elements per PE. Before
// resident job frames and allocation-free stage bookkeeping this test
// measured 33 / 116 / 104 / 108 / 128 (empty / sum / sorted / streamed
// permutation / streamed count); now 6 / 28 / 16 / 28 / 40. What is
// left is what a job hands back (its handle, rank 0's stats), a Context
// per rank, the checkers' builders and tables, and the body's own
// sources.
var poolJobAllocCeilings = map[string]float64{
	"empty":       6,
	"assert-sum":  28,
	"sorted":      16,
	"stream-perm": 28,
	"stream-cnt":  40,
}

// TestPoolJobAllocs pins what a warmed pool job allocates, per claim
// kind, with jobs run one after another so each reuses the frame of the
// one before. Measured on one P with the collector held off, after
// warming jobs there: the hash tables live in sync.Pools, which hand
// back only what was put on the same P.
func TestPoolJobAllocs(t *testing.T) {
	const p, n, chunk = 4, 2000, 256
	pool := newMemPool(t, p, Options{Seed: 11, MaxConcurrent: 2})
	pairIn := make([][]repro.Pair, p)
	sumOut := make([][]repro.Pair, p)
	cntOut := make([][]repro.Pair, p)
	seqIn := make([][]uint64, p)
	sorted := make([][]uint64, p)
	for r := range p {
		pairIn[r] = jobData(1, r, p, n)
		sums, counts := map[uint64]uint64{}, map[uint64]uint64{}
		for _, pr := range pairIn[r] {
			sums[pr.Key] += pr.Value
			counts[pr.Key]++
		}
		// Each rank claims its own share's reduction: the checkers are
		// linear, so the shares' claims add up to the global one.
		for k, v := range sums {
			sumOut[r] = append(sumOut[r], repro.Pair{Key: k, Value: v})
			cntOut[r] = append(cntOut[r], repro.Pair{Key: k, Value: counts[k]})
		}
		seqIn[r] = jobSeq(1, r, p, n)
	}
	all := slices.Concat(seqIn...)
	slices.Sort(all)
	for r := range p {
		sorted[r] = all[r*n : (r+1)*n]
	}
	bodies := map[string]Body{
		"empty": func(*repro.Context) error { return nil },
		"assert-sum": func(ctx *repro.Context) error {
			r := ctx.Worker().Rank()
			return ctx.AssertSum(pairIn[r], sumOut[r])
		},
		"sorted": func(ctx *repro.Context) error {
			r := ctx.Worker().Rank()
			return ctx.AssertSorted(seqIn[r], sorted[r])
		},
		"stream-perm": func(ctx *repro.Context) error {
			r := ctx.Worker().Rank()
			return ctx.StreamSeq(repro.SliceSeq(seqIn[r], chunk)).AssertPermutation(repro.SliceSeq(seqIn[(r+1)%p], chunk))
		},
		"stream-cnt": func(ctx *repro.Context) error {
			r := ctx.Worker().Rank()
			return ctx.StreamPairs(repro.SlicePairs(pairIn[r], chunk)).AssertCount(repro.SlicePairs(cntOut[r], chunk))
		},
	}
	runJob := func(name string) {
		j, err := pool.Submit(name, bodies[name])
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Await(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, ceiling := range poolJobAllocCeilings {
		const warm, runs = 8, 64
		for range warm {
			runJob(name)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			runJob(name)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / runs
		t.Logf("%s: %.1f objects per job", name, got)
		if got > ceiling {
			t.Errorf("warmed %s job on a %d-PE mem pool allocates %.1f objects, want at most %.0f", name, p, got, ceiling)
		}
	}
}
