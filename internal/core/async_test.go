package core

import (
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/workload"
)

// TestResolveAsyncMatchesSync resolves identical batches of checker
// states synchronously and asynchronously across randomized clean and
// corrupted trials: verdict slices must be bit-identical (the async
// path is the same ResolveOn, just on a sub-communicator).
func TestResolveAsyncMatchesSync(t *testing.T) {
	input := workload.ZipfPairs(2500, 400, 900, 11)
	output := refSumAgg(input)
	mans := manipulate.PairManipulators()
	for _, p := range []int{1, 2, 4} {
		for trial := uint64(0); trial < 6; trial++ {
			asserted := data.ClonePairs(output)
			corrupted := false
			if trial%2 == 1 {
				m := mans[int(trial/2)%len(mans)]
				if m.Apply(asserted, hashing.NewMT19937_64(trial+3), 50) &&
					manipulate.ChangesAggregation(output, asserted) {
					corrupted = true
				}
			}
			seed := trial * 101
			build := func(w *dist.Worker) []CheckState {
				r := w.Rank()
				return []CheckState{
					NewSumAggState("agg", smallCfg, seed, Serial, shardPairs(input, p, r), shardPairs(asserted, p, r)),
					NewSumAggState("agg2", smallCfg, seed+1, Serial, shardPairs(input, p, r), shardPairs(output, p, r)),
				}
			}
			var syncV, asyncV []bool
			err := dist.Run(p, seed, func(w *dist.Worker) error {
				// States are single-use: build a fresh batch per path.
				sv, err := Resolve(w, build(w)...)
				if err != nil {
					return err
				}
				pend := ResolveAsync(w, build(w)...)
				// Overlap: parent communicator stays usable while the
				// round is in flight.
				if _, err := w.Coll.AllReduce([]uint64{uint64(w.Rank())}, func(dst, src []uint64) { dst[0] += src[0] }); err != nil {
					return err
				}
				av, err := pend.Await()
				if err != nil {
					return err
				}
				if w.Rank() == 0 {
					syncV, asyncV = sv, av
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d trial=%d: %v", p, trial, err)
			}
			if len(syncV) != 2 || len(asyncV) != 2 {
				t.Fatalf("p=%d trial=%d: verdict lengths %d/%d", p, trial, len(syncV), len(asyncV))
			}
			for i := range syncV {
				if syncV[i] != asyncV[i] {
					t.Fatalf("p=%d trial=%d state=%d: sync %v async %v", p, trial, i, syncV[i], asyncV[i])
				}
			}
			if corrupted && syncV[0] {
				t.Errorf("p=%d trial=%d: corrupted batch accepted", p, trial)
			}
			if !syncV[1] {
				t.Errorf("p=%d trial=%d: clean state rejected", p, trial)
			}
		}
	}
}

// TestResolveAsyncCost checks the pending handle's metering: a resolved
// round reports its own traffic (one reduce + one broadcast), and the
// empty batch costs nothing.
func TestResolveAsyncCost(t *testing.T) {
	input := workload.ZipfPairs(1000, 200, 500, 21)
	output := refSumAgg(input)
	const p = 3
	err := dist.Run(p, 5, func(w *dist.Worker) error {
		st := NewSumAggState("agg", smallCfg, 9, Serial, shardPairs(input, p, w.Rank()), shardPairs(output, p, w.Rank()))
		pend := ResolveAsync(w, st)
		if _, err := pend.Await(); err != nil {
			return err
		}
		bytes, msgs, rounds, wallNs := pend.Cost()
		if rounds != 2 {
			t.Errorf("rank %d: rounds = %d, want 2 (reduce+broadcast)", w.Rank(), rounds)
		}
		if wallNs <= 0 {
			t.Errorf("rank %d: wallNs = %d", w.Rank(), wallNs)
		}
		if p > 1 && (bytes <= 0 || msgs <= 0) {
			t.Errorf("rank %d: bytes=%d msgs=%d, want traffic on p=%d", w.Rank(), bytes, msgs, p)
		}
		empty := ResolveAsync(w)
		if v, err := empty.Await(); err != nil || len(v) != 0 {
			t.Errorf("empty batch: verdicts=%v err=%v", v, err)
		}
		if b, m, r, _ := empty.Cost(); b != 0 || m != 0 || r != 0 {
			t.Errorf("empty batch cost: bytes=%d msgs=%d rounds=%d", b, m, r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
