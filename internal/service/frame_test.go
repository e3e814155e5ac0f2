package service

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/comm"
)

// reuseBody is a deferred two-stage job whose data come from the job
// worker's generator, so a frame that handed a job the previous job's
// generator, counters or scratch would change what the job reports.
func reuseBody(ctx *repro.Context) error {
	w := ctx.Worker()
	local := make([]repro.Pair, 300)
	for i := range local {
		local[i] = repro.Pair{Key: w.Rng.Uint64n(64), Value: w.Rng.Uint64n(1 << 20)}
	}
	sums, err := ctx.Pairs(local).ReduceByKey(repro.SumFn).Collect()
	if err != nil {
		return err
	}
	return ctx.AssertSum(local, sums)
}

// jobReport is what a finished job reports, without wall times.
type jobReport struct {
	cost  JobCost
	stats []repro.CheckStats
	sums  []repro.VerifySummary
}

func reportOf(t *testing.T, j *Job) jobReport {
	t.Helper()
	if err := j.Await(); err != nil {
		t.Fatalf("job %d: %v", j.id, err)
	}
	r := jobReport{cost: j.Cost(), stats: j.Stats(), sums: j.Summaries()}
	r.cost.WallNs = 0
	for i := range r.stats {
		r.stats[i].OpNs, r.stats[i].CheckNs = 0, 0
	}
	for i := range r.sums {
		r.sums[i].WallNs = 0
	}
	return r
}

// TestFrameReuseDoesNotLeak runs two jobs back to back in one slot, so
// the second reuses the first's frame, and the same two jobs on a
// fresh pool whose second job gets a frame of its own (two slots, taken
// in turn). Both jobs report the same cost, stats and summaries either
// way.
func TestFrameReuseDoesNotLeak(t *testing.T) {
	run := func(slots int) ([]jobReport, [][2]int) {
		pool := newMemPool(t, 4, Options{Seed: 17, MaxConcurrent: slots})
		var reports []jobReport
		var blocks [][2]int
		for i := range 2 {
			j, err := pool.Submit("reuse", reuseBody)
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, reportOf(t, j))
			lo, hi := j.TagBlock()
			blocks = append(blocks, [2]int{lo, hi})
			if j.id != int64(i) {
				t.Fatalf("job ID %d, want %d", j.id, i)
			}
		}
		return reports, blocks
	}
	reused, reusedBlocks := run(1)
	fresh, freshBlocks := run(2)
	if reusedBlocks[0] != reusedBlocks[1] {
		t.Fatalf("one slot ran its jobs on blocks %v: the frame was not reused", reusedBlocks)
	}
	if freshBlocks[0] == freshBlocks[1] {
		t.Fatalf("two slots ran their jobs on one block %v", freshBlocks[0])
	}
	for i := range reused {
		if !reflect.DeepEqual(reused[i], fresh[i]) {
			t.Errorf("job %d on a reused frame reports\n%+v\non a fresh one\n%+v", i, reused[i], fresh[i])
		}
	}
	if reused[0].cost.Rounds == 0 || len(reused[0].stats) != 2 || len(reused[0].sums) != 1 {
		t.Fatalf("implausible report %+v", reused[0])
	}
}

// TestAbortedFrameQuarantined aborts a job with an injected receive
// error and checks that its tag block is never handed out again: not
// to the next job in its slot, nor to any of the jobs after it.
func TestAbortedFrameQuarantined(t *testing.T) {
	const p, slots = 4, 3
	inner := comm.NewMemNetworkTimeout(p, 0)
	fn := comm.NewFaultyNetwork(inner, 0, 0)
	pool, err := NewOnNetwork(fn, Options{Seed: 23, MaxConcurrent: slots, JobTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	defer pool.Close()
	runOne := func() *Job {
		t.Helper()
		j, err := pool.Submit("q", reuseBody)
		if err != nil {
			t.Fatal(err)
		}
		j.Await()
		return j
	}
	var seen [][2]int
	for range slots { // every slot holds a frame
		j := runOne()
		if err := j.err; err != nil {
			t.Fatalf("warm job: %v", err)
		}
		lo, hi := j.TagBlock()
		seen = append(seen, [2]int{lo, hi})
	}
	fn.ArmRecvErr(1)
	bad := runOne()
	if bad.err == nil || bad.Rejected() {
		t.Fatalf("job under an injected receive error: %v", bad.err)
	}
	lo, hi := bad.TagBlock()
	if !slices.Contains(seen, [2]int{lo, hi}) {
		t.Fatalf("aborted job ran on block [%d,%d), not on a warm frame's %v", lo, hi, seen)
	}
	for range 2 * slots {
		j := runOne()
		if err := j.err; err != nil {
			t.Fatalf("job after the abort: %v", err)
		}
		if l, h := j.TagBlock(); l == lo && h == hi {
			t.Fatalf("job %d ran on the aborted job's quarantined block [%d,%d)", j.id, lo, hi)
		}
	}
}
