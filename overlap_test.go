package repro_test

import (
	"errors"
	"reflect"
	"testing"

	"repro"
	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/workload"
)

// The two stage-boundary functions the equivalence tests compare.
var (
	overlapped  = (*repro.Context).VerifyAsync
	synchronous = (*repro.Context).Verify
)

// overlapRun executes a four-stage pipeline — ReduceByKey, Sort, a
// streamed AssertSum, and a one-shot AssertSum over possibly corrupted
// data — calling boundary at every stage boundary and a final Verify,
// and returns rank 0's verdicts, summaries (wall times zeroed: only
// placement differs between overlapped and synchronous runs), and
// whether the pipeline rejected. boundary is overlapped (VerifyAsync)
// or synchronous (Verify, the equivalence baseline); the program is
// otherwise the same.
func overlapRun(t *testing.T, boundary func(*repro.Context) error, corrupt *manipulate.PairManipulator) ([]repro.Verdict, []repro.VerifySummary, bool) {
	t.Helper()
	const p = 3
	clean := workload.ZipfPairs(1200, 100, 600, 51)
	seq := workload.UniformU64s(900, 1e8, 52)

	var verdicts []repro.Verdict
	var sums []repro.VerifySummary
	var rejected bool
	opts := repro.DefaultOptions()
	opts.Mode = repro.CheckDeferred
	err := repro.Run(p, 61, func(w *repro.Worker) error {
		ctx, err := repro.NewContext(w, opts)
		if err != nil {
			return err
		}
		r := w.Rank()
		local := shardPairs(clean, p, r)

		out, err := ctx.Pairs(local).ReduceByKey(repro.SumFn).Collect()
		if err != nil {
			return err
		}
		if err := boundary(ctx); err != nil {
			return err
		}
		if _, err := ctx.Seq(shardU64(seq, p, r)).Sort().Collect(); err != nil {
			return err
		}
		if err := boundary(ctx); err != nil {
			return err
		}
		// A streamed stage's chunk drains run while the previous round
		// is on the wire — the PR 5 machinery under overlap.
		serr := ctx.StreamPairs(repro.SlicePairs(local, 97)).AssertSum(repro.SlicePairs(data.ClonePairs(out), 97))
		if serr != nil && !errors.Is(serr, repro.ErrCheckFailed) {
			return serr
		}
		if err := boundary(ctx); err != nil && !errors.Is(err, repro.ErrCheckFailed) {
			return err
		}
		asserted := data.ClonePairs(out)
		if corrupt != nil {
			corrupt.Apply(asserted, hashing.NewMT19937_64(uint64(91+r)), 80)
		}
		aerr := ctx.AssertSum(local, asserted)
		if aerr != nil && !errors.Is(aerr, repro.ErrCheckFailed) {
			return aerr
		}
		verr := ctx.Verify()
		if verr != nil && !errors.Is(verr, repro.ErrCheckFailed) {
			return verr
		}
		if ctx.Outstanding() {
			return errors.New("round still outstanding after Verify")
		}
		if r == 0 {
			for _, st := range ctx.Stats() {
				verdicts = append(verdicts, st.Verdict)
			}
			sums = ctx.VerifySummaries()
			for i := range sums {
				sums[i].WallNs = 0
			}
			rejected = verr != nil
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return verdicts, sums, rejected
}

// TestOverlapEquivalenceClean checks a clean overlapped-deferred
// pipeline produces exactly the verdicts and VerifySummary attribution
// of the synchronous deferred path — Bytes, Msgs, Rounds, Words, batch
// boundaries, everything except wall-clock placement.
func TestOverlapEquivalenceClean(t *testing.T) {
	ov, osums, orej := overlapRun(t, overlapped, nil)
	sv, ssums, srej := overlapRun(t, synchronous, nil)
	if orej || srej {
		t.Fatalf("clean pipeline rejected: overlap=%v sync=%v", orej, srej)
	}
	for _, v := range ov {
		if v != repro.VerdictPass {
			t.Fatalf("overlapped verdicts not all pass: %v", ov)
		}
	}
	if !reflect.DeepEqual(ov, sv) {
		t.Fatalf("verdicts differ: overlap %v, sync %v", ov, sv)
	}
	if !reflect.DeepEqual(osums, ssums) {
		t.Fatalf("verify summaries differ:\noverlap: %+v\nsync:    %+v", osums, ssums)
	}
	if len(osums) != 4 {
		t.Fatalf("got %d summaries, want 4 (one per stage boundary)", len(osums))
	}
}

// TestOverlapEquivalenceCorrupted corrupts the final stage with every
// applicable Table 4 manipulator: the overlapped and synchronous runs
// must reject identically, attribute the failure to the same stage, and
// agree on every summary.
func TestOverlapEquivalenceCorrupted(t *testing.T) {
	clean := workload.ZipfPairs(1200, 100, 600, 51)
	for _, m := range manipulate.PairManipulators() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			probe := data.ClonePairs(clean)
			if !m.Apply(probe, hashing.NewMT19937_64(7), 80) || !manipulate.ChangesAggregation(clean, probe) {
				t.Skip("manipulator not applicable to this workload")
			}
			ov, osums, orej := overlapRun(t, overlapped, &m)
			sv, ssums, srej := overlapRun(t, synchronous, &m)
			if !orej || !srej {
				t.Fatalf("corruption not rejected: overlap=%v sync=%v", orej, srej)
			}
			if !reflect.DeepEqual(ov, sv) {
				t.Fatalf("verdicts differ: overlap %v, sync %v", ov, sv)
			}
			if !reflect.DeepEqual(osums, ssums) {
				t.Fatalf("summaries differ:\noverlap: %+v\nsync:    %+v", osums, ssums)
			}
			if ov[len(ov)-1] != repro.VerdictFail {
				t.Errorf("final stage verdict %s, want fail", ov[len(ov)-1])
			}
		})
	}
}

// TestOverlapStreamedCorruption corrupts one chunk of a streamed
// stage's asserted output while the previous round is in flight; the
// overlapped and synchronous paths must both pin the failure on the
// streamed stage.
func TestOverlapStreamedCorruption(t *testing.T) {
	const p = 3
	clean := workload.ZipfPairs(1500, 120, 700, 71)
	run := func(boundary func(*repro.Context) error) (string, bool) {
		var failedStage string
		var rejected bool
		opts := repro.DefaultOptions()
		opts.Mode = repro.CheckDeferred
		err := repro.Run(p, 72, func(w *repro.Worker) error {
			ctx, err := repro.NewContext(w, opts)
			if err != nil {
				return err
			}
			r := w.Rank()
			local := shardPairs(clean, p, r)
			out, err := ctx.Pairs(local).ReduceByKey(repro.SumFn).Collect()
			if err != nil {
				return err
			}
			if err := boundary(ctx); err != nil {
				return err
			}
			asserted := data.ClonePairs(out)
			if r == 0 && len(asserted) > 3 {
				asserted[3].Value += 5 // one corrupted element inside a chunk
			}
			serr := ctx.StreamPairs(repro.SlicePairs(local, 64)).AssertSum(repro.SlicePairs(asserted, 64))
			if serr != nil && !errors.Is(serr, repro.ErrCheckFailed) {
				return serr
			}
			verr := ctx.Verify()
			if verr != nil && !errors.Is(verr, repro.ErrCheckFailed) {
				return verr
			}
			if r == 0 {
				rejected = verr != nil
				for _, st := range ctx.Stats() {
					if st.Verdict == repro.VerdictFail {
						failedStage = st.Stage
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return failedStage, rejected
	}
	oStage, oRej := run(overlapped)
	sStage, sRej := run(synchronous)
	if !oRej || !sRej {
		t.Fatalf("streamed corruption not rejected: overlap=%v sync=%v", oRej, sRej)
	}
	if oStage != sStage || oStage == "" {
		t.Fatalf("failure attribution differs: overlap %q, sync %q", oStage, sStage)
	}
}

// TestVerifyAsyncDegrades checks that outside deferred mode VerifyAsync
// is exactly Verify: verdicts immediate, no round left outstanding.
func TestVerifyAsyncDegrades(t *testing.T) {
	pairs := workload.ZipfPairs(600, 60, 300, 81)
	for _, mode := range []repro.CheckMode{repro.CheckEager, repro.CheckOff} {
		t.Run(mode.String(), func(t *testing.T) {
			const p = 2
			opts := repro.DefaultOptions()
			opts.Mode = mode
			err := repro.Run(p, 82, func(w *repro.Worker) error {
				ctx, err := repro.NewContext(w, opts)
				if err != nil {
					return err
				}
				local := shardPairs(pairs, p, w.Rank())
				if _, err := ctx.Pairs(local).ReduceByKey(repro.SumFn).Collect(); err != nil {
					return err
				}
				if err := ctx.VerifyAsync(); err != nil {
					return err
				}
				if ctx.Outstanding() {
					return errors.New("VerifyAsync left a round outstanding outside deferred mode")
				}
				want := repro.VerdictPass
				if mode == repro.CheckOff {
					want = repro.VerdictSkipped
				}
				if got := ctx.Stats()[0].Verdict; got != want {
					return errors.New("verdict not settled after degraded VerifyAsync: " + got.String())
				}
				return ctx.Verify()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOverlapVerdictsDeferOneBoundary pins the contract: under overlap
// a stage's verdict is still pending right after its VerifyAsync and
// settles at the next boundary.
func TestOverlapVerdictsDeferOneBoundary(t *testing.T) {
	pairs := workload.ZipfPairs(600, 60, 300, 91)
	const p = 2
	opts := repro.DefaultOptions()
	opts.Mode = repro.CheckDeferred
	err := repro.Run(p, 92, func(w *repro.Worker) error {
		ctx, err := repro.NewContext(w, opts)
		if err != nil {
			return err
		}
		local := shardPairs(pairs, p, w.Rank())
		if _, err := ctx.Pairs(local).ReduceByKey(repro.SumFn).Collect(); err != nil {
			return err
		}
		if err := ctx.VerifyAsync(); err != nil {
			return err
		}
		if !ctx.Outstanding() {
			return errors.New("no round outstanding after VerifyAsync in deferred mode")
		}
		if got := ctx.Stats()[0].Verdict; got != repro.VerdictPending {
			return errors.New("verdict settled too early: " + got.String())
		}
		if err := ctx.Verify(); err != nil {
			return err
		}
		if got := ctx.Stats()[0].Verdict; got != repro.VerdictPass {
			return errors.New("verdict not settled after Verify: " + got.String())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
