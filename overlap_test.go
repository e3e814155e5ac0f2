package repro_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/workload"
)

// The two stage-boundary placements the equivalence tests compare: a
// Verify at every boundary resolves each stage in a round of its own,
// and no boundary leaves every stage to the final Verify's one batch.
var (
	perBoundary = (*repro.Context).Verify
	batched     = func(*repro.Context) error { return nil }
)

// overlapRun executes a four-stage pipeline — ReduceByKey, Sort, a
// streamed AssertSum, and a one-shot AssertSum over possibly corrupted
// data — calling boundary at every stage boundary and a final Verify,
// and returns rank 0's verdicts, summaries (wall times zeroed), and
// whether the pipeline rejected. boundary is perBoundary or batched;
// the program is otherwise the same.
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

// checkBatches checks the per-boundary run's summaries against the
// batched run's: one single-stage batch per stage, each resolved in as
// many rounds as the one batch, together carrying its words, and only
// the final batch naming the failures the one batch names.
func checkBatches(t *testing.T, batches, one []repro.VerifySummary) {
	t.Helper()
	if len(batches) != 4 || len(one) != 1 {
		t.Fatalf("got %d per-boundary and %d batched summaries, want 4 (one per stage boundary) and 1", len(batches), len(one))
	}
	words := 0
	for i, b := range batches {
		if b.Stages != 1 || b.Rounds != one[0].Rounds || b.Bytes <= 0 || b.Msgs <= 0 {
			t.Errorf("batch %d: %+v, want one stage resolved in %d rounds", i, b, one[0].Rounds)
		}
		if i < len(batches)-1 && len(b.Failed) != 0 {
			t.Errorf("batch %d names failures %v before the corrupted stage", i, b.Failed)
		}
		words += b.Words
	}
	if words != one[0].Words {
		t.Errorf("per-boundary batches carry %d words, the one batch %d", words, one[0].Words)
	}
	if last := batches[len(batches)-1]; !reflect.DeepEqual(last.Failed, one[0].Failed) {
		t.Errorf("final batch failures %v, batched run's %v", last.Failed, one[0].Failed)
	}
}

// TestOverlapEquivalenceClean checks a clean deferred pipeline with a
// Verify at every stage boundary accepts with exactly the verdicts of
// the same pipeline resolved in one batch, and that its VerifySummary
// attribution splits the one batch stage by stage.
func TestOverlapEquivalenceClean(t *testing.T) {
	bv, bsums, brej := overlapRun(t, perBoundary, nil)
	ov, osums, orej := overlapRun(t, batched, nil)
	if brej || orej {
		t.Fatalf("clean pipeline rejected: per-boundary=%v batched=%v", brej, orej)
	}
	for _, v := range bv {
		if v != repro.VerdictPass {
			t.Fatalf("per-boundary verdicts not all pass: %v", bv)
		}
	}
	if !reflect.DeepEqual(bv, ov) {
		t.Fatalf("verdicts differ: per-boundary %v, batched %v", bv, ov)
	}
	checkBatches(t, bsums, osums)
}

// TestOverlapEquivalenceCorrupted corrupts the final stage with every
// applicable Table 4 manipulator: the per-boundary and batched runs
// must reject identically, attribute the failure to the same stage,
// and name it only in the per-boundary run's final batch.
func TestOverlapEquivalenceCorrupted(t *testing.T) {
	clean := workload.ZipfPairs(1200, 100, 600, 51)
	for _, m := range manipulate.PairManipulators() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			probe := data.ClonePairs(clean)
			if !m.Apply(probe, hashing.NewMT19937_64(7), 80) || !manipulate.ChangesAggregation(clean, probe) {
				t.Skip("manipulator not applicable to this workload")
			}
			bv, bsums, brej := overlapRun(t, perBoundary, &m)
			ov, osums, orej := overlapRun(t, batched, &m)
			if !brej || !orej {
				t.Fatalf("corruption not rejected: per-boundary=%v batched=%v", brej, orej)
			}
			if !reflect.DeepEqual(bv, ov) {
				t.Fatalf("verdicts differ: per-boundary %v, batched %v", bv, ov)
			}
			checkBatches(t, bsums, osums)
			if len(osums[0].Failed) != 1 {
				t.Errorf("batched run names failures %v, want the final stage only", osums[0].Failed)
			}
			if bv[len(bv)-1] != repro.VerdictFail {
				t.Errorf("final stage verdict %s, want fail", bv[len(bv)-1])
			}
		})
	}
}

// TestOverlapStreamedCorruption corrupts one chunk of a streamed
// stage's asserted output; with a Verify at the boundary before the
// streamed stage and without one, the failure must be pinned on the
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
	bStage, bRej := run(perBoundary)
	oStage, oRej := run(batched)
	if !bRej || !oRej {
		t.Fatalf("streamed corruption not rejected: per-boundary=%v batched=%v", bRej, oRej)
	}
	if bStage != oStage || !strings.HasPrefix(bStage, "StreamSum#") {
		t.Fatalf("failure attribution differs or misses the streamed stage: per-boundary %q, batched %q", bStage, oStage)
	}
}
