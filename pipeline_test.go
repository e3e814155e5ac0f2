package repro_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/workload"
)

// chainedPipeline runs the canonical three-stage checked pipeline
// (ReduceByKey, Sort, Union) on ctx and returns the terminal error.
// All stages use independent inputs so each checker verdict stands
// alone.
func chainedPipeline(ctx *repro.Context, pairs []repro.Pair, seqA, seqB []uint64) error {
	if _, err := ctx.Pairs(pairs).ReduceByKey(repro.SumFn).Collect(); err != nil {
		return err
	}
	if _, err := ctx.Seq(seqA).Sort().Collect(); err != nil {
		return err
	}
	if _, err := ctx.Seq(seqA).Union(ctx.Seq(seqB)).Collect(); err != nil {
		return err
	}
	return nil
}

// pendingStages counts the stages whose verdict awaits Verify.
func pendingStages(ctx *repro.Context) int {
	n := 0
	for _, st := range ctx.Stats() {
		if st.Verdict == repro.VerdictPending {
			n++
		}
	}
	return n
}

// runChained executes the chained pipeline at p PEs in the given mode
// and returns rank 0's stats and verify summaries.
func runChained(t *testing.T, p int, mode repro.CheckMode) ([]repro.CheckStats, []repro.VerifySummary) {
	t.Helper()
	pairs := workload.ZipfPairs(2400, 200, 1000, 21)
	seqA := workload.UniformU64s(1800, 1e9, 22)
	seqB := workload.UniformU64s(1200, 1e9, 23)
	var stats []repro.CheckStats
	var sums []repro.VerifySummary
	opts := repro.DefaultOptions()
	opts.Mode = mode
	err := repro.Run(p, 5, func(w *repro.Worker) error {
		ctx, err := repro.NewContext(w, opts)
		if err != nil {
			return err
		}
		r := w.Rank()
		if err := chainedPipeline(ctx, shardPairs(pairs, p, r), shardU64(seqA, p, r), shardU64(seqB, p, r)); err != nil {
			return err
		}
		if err := ctx.Verify(); err != nil {
			return err
		}
		if r == 0 {
			stats = ctx.Stats()
			sums = ctx.VerifySummaries()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, sums
}

// TestPipelineDeferredBatchesRounds is the acceptance check of the
// deferred mode: a pipeline of three checked operations resolves all
// verdicts in a single Verify with fewer collective rounds (and fewer
// checker bytes) than eager per-operation resolution, with identical
// verdicts.
func TestPipelineDeferredBatchesRounds(t *testing.T) {
	const p = 4
	eagerStats, eagerSums := runChained(t, p, repro.CheckEager)
	defStats, defSums := runChained(t, p, repro.CheckDeferred)

	if len(eagerStats) != 3 || len(defStats) != 3 {
		t.Fatalf("stage counts: eager %d, deferred %d, want 3", len(eagerStats), len(defStats))
	}
	for i := range eagerStats {
		if eagerStats[i].Verdict != repro.VerdictPass {
			t.Errorf("eager stage %s verdict %s", eagerStats[i].Stage, eagerStats[i].Verdict)
		}
		if defStats[i].Verdict != repro.VerdictPass {
			t.Errorf("deferred stage %s verdict %s", defStats[i].Stage, defStats[i].Verdict)
		}
	}
	if len(eagerSums) != 0 {
		t.Errorf("eager mode recorded %d verify summaries, want 0", len(eagerSums))
	}
	if len(defSums) != 1 {
		t.Fatalf("deferred mode recorded %d verify summaries, want 1 (single Verify)", len(defSums))
	}
	if defSums[0].Stages != 3 {
		t.Errorf("batched verify covered %d stages, want 3", defSums[0].Stages)
	}

	eagerRounds := 0
	var eagerBytes, eagerMsgs int64
	for _, st := range eagerStats {
		if st.CheckerRounds < 2 {
			t.Errorf("eager stage %s used %d collective rounds, want >= 2 (reduce+broadcast)", st.Stage, st.CheckerRounds)
		}
		eagerRounds += st.CheckerRounds
		eagerBytes += st.CheckerBytes
		eagerMsgs += st.CheckerMsgs
	}
	if defSums[0].Rounds >= eagerRounds {
		t.Errorf("deferred verify used %d collective rounds, eager used %d — batching must win", defSums[0].Rounds, eagerRounds)
	}
	if defSums[0].Rounds != 2 {
		t.Errorf("deferred verify used %d collective rounds, want exactly 2 (one all-reduction)", defSums[0].Rounds)
	}
	if defSums[0].Msgs >= eagerMsgs {
		t.Errorf("deferred verify sent %d messages, eager sent %d — batching must cut message count", defSums[0].Msgs, eagerMsgs)
	}
	// Concatenation shifts the cost from alpha (rounds, messages) to a
	// single larger payload; the payload itself must not grow.
	if defSums[0].Bytes > eagerBytes {
		t.Errorf("deferred verify sent %d checker bytes, eager sent %d — concatenation must not cost more", defSums[0].Bytes, eagerBytes)
	}
}

// TestModeEquivalenceCleanAndCorrupted runs the same pipelines eagerly
// and deferred on clean data and on data corrupted by every Table 4
// manipulator; the per-stage verdicts must agree between the modes.
func TestModeEquivalenceCleanAndCorrupted(t *testing.T) {
	const p = 3
	clean := workload.ZipfPairs(900, 80, 500, 31)
	seq := workload.UniformU64s(600, 1e8, 32)

	// verdictsFor runs ReduceByKey + Sort + AssertSum(input, asserted)
	// as the final stage; asserted == nil means "assert the true
	// reduction" (clean).
	verdictsFor := func(mode repro.CheckMode, corrupt *manipulate.PairManipulator) ([]repro.Verdict, bool) {
		var verdicts []repro.Verdict
		var rejected bool
		opts := repro.DefaultOptions()
		opts.Mode = mode
		err := repro.Run(p, 41, func(w *repro.Worker) error {
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
			if _, err := ctx.Seq(shardU64(seq, p, r)).Sort().Collect(); err != nil {
				return err
			}
			asserted := data.ClonePairs(out)
			if corrupt != nil {
				// Same corruption on every PE's share, seeded per rank so
				// at least rank 0's share is manipulable.
				rng := hashing.NewMT19937_64(uint64(77 + r))
				corrupt.Apply(asserted, rng, 80)
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
				rejected = aerr != nil || verr != nil
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return verdicts, rejected
	}

	// Clean pipelines accept identically.
	ev, erj := verdictsFor(repro.CheckEager, nil)
	dv, drj := verdictsFor(repro.CheckDeferred, nil)
	if erj || drj {
		t.Fatalf("clean pipeline rejected: eager=%v deferred=%v", erj, drj)
	}
	if !reflect.DeepEqual(ev, dv) {
		t.Fatalf("clean verdicts differ: eager %v, deferred %v", ev, dv)
	}

	// Corrupted pipelines reject identically, stage by stage.
	for _, m := range manipulate.PairManipulators() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			probe := data.ClonePairs(clean)
			if !m.Apply(probe, hashing.NewMT19937_64(7), 80) || !manipulate.ChangesAggregation(clean, probe) {
				t.Skip("manipulator not applicable to this workload")
			}
			ev, erj := verdictsFor(repro.CheckEager, &m)
			dv, drj := verdictsFor(repro.CheckDeferred, &m)
			if !erj || !drj {
				t.Fatalf("corruption not rejected: eager=%v deferred=%v", erj, drj)
			}
			if !reflect.DeepEqual(ev, dv) {
				t.Fatalf("corrupted verdicts differ: eager %v, deferred %v", ev, dv)
			}
			if ev[len(ev)-1] != repro.VerdictFail {
				t.Errorf("final stage verdict %s, want fail", ev[len(ev)-1])
			}
		})
	}
}

// TestCheckOffSkipsCheckerCommunication asserts via stats that CheckOff
// spends no checker communication at all and marks every stage skipped.
func TestCheckOffSkipsCheckerCommunication(t *testing.T) {
	const p = 4
	offStats, offSums := runChained(t, p, repro.CheckOff)
	if len(offStats) != 3 {
		t.Fatalf("got %d stages, want 3", len(offStats))
	}
	for _, st := range offStats {
		if st.Verdict != repro.VerdictSkipped {
			t.Errorf("stage %s verdict %s, want skipped", st.Stage, st.Verdict)
		}
		if st.CheckerBytes != 0 || st.CheckerMsgs != 0 || st.CheckerRounds != 0 || st.BatchWords != 0 {
			t.Errorf("stage %s spent checker communication under CheckOff: %d bytes, %d msgs, %d rounds, %d batch words",
				st.Stage, st.CheckerBytes, st.CheckerMsgs, st.CheckerRounds, st.BatchWords)
		}
		if st.CheckNs != 0 {
			t.Errorf("stage %s spent %d ns on checker accumulation under CheckOff", st.Stage, st.CheckNs)
		}
		// Union is local (Thrill's Union): it sends nothing, and every
		// other stage exchanges data.
		if st.Op == "Union" && st.OpBytes != 0 {
			t.Errorf("stage %s recorded %d bytes of operation traffic, want 0", st.Stage, st.OpBytes)
		}
		if st.Op != "Union" && st.OpBytes <= 0 {
			t.Errorf("stage %s recorded no operation traffic", st.Stage)
		}
	}
	if len(offSums) != 0 {
		t.Errorf("CheckOff recorded %d verify summaries, want 0", len(offSums))
	}
	// The eager run of the same pipeline must show actual checker cost,
	// so the zero above is meaningful.
	eagerStats, _ := runChained(t, p, repro.CheckEager)
	for _, st := range eagerStats {
		if st.CheckerBytes <= 0 {
			t.Errorf("eager stage %s shows no checker bytes; stats cannot distinguish modes", st.Stage)
		}
	}
}

// TestStatsPlausibility sanity-checks the per-stage instrumentation on
// an eager pipeline.
func TestStatsPlausibility(t *testing.T) {
	const p = 4
	pairs := workload.ZipfPairs(2000, 150, 800, 51)
	var stats []repro.CheckStats
	err := repro.Run(p, 9, func(w *repro.Worker) error {
		ctx, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		local := shardPairs(pairs, p, w.Rank())
		out, err := ctx.Pairs(local).ReduceByKey(repro.SumFn).Collect()
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			stats = ctx.Stats()
			if got := stats[0].ElementsIn; got != len(local) {
				t.Errorf("ElementsIn %d, want %d", got, len(local))
			}
			if got := stats[0].ElementsOut; got != len(out) {
				t.Errorf("ElementsOut %d, want %d", got, len(out))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := stats[0]
	if st.Stage != "ReduceByKey#0" || st.Op != "ReduceByKey" {
		t.Errorf("stage labels wrong: %q / %q", st.Stage, st.Op)
	}
	if st.ElementsOut > st.ElementsIn {
		t.Errorf("reduction grew data: %d -> %d", st.ElementsIn, st.ElementsOut)
	}
	if st.OpBytes <= 0 || st.CheckerBytes <= 0 {
		t.Errorf("traffic not metered: op %d, checker %d", st.OpBytes, st.CheckerBytes)
	}
	if st.CheckerRounds < 2 {
		t.Errorf("eager checker resolution used %d collective rounds, want >= 2", st.CheckerRounds)
	}
	if st.OpNs <= 0 {
		t.Errorf("operation wall time not recorded: %d", st.OpNs)
	}
	if st.Verdict != repro.VerdictPass {
		t.Errorf("verdict %s, want pass", st.Verdict)
	}
}

// TestDeferredFailureAttribution corrupts the middle stage of a
// three-stage deferred pipeline; Verify must name exactly that stage,
// and the surrounding stages must pass.
func TestDeferredFailureAttribution(t *testing.T) {
	const p = 3
	pairs := workload.ZipfPairs(900, 70, 400, 61)
	seq := workload.UniformU64s(700, 1e8, 62)
	opts := repro.DefaultOptions()
	opts.Mode = repro.CheckDeferred
	err := repro.Run(p, 19, func(w *repro.Worker) error {
		ctx, err := repro.NewContext(w, opts)
		if err != nil {
			return err
		}
		r := w.Rank()
		local := shardPairs(pairs, p, r)
		out, err := ctx.Pairs(local).ReduceByKey(repro.SumFn).Collect()
		if err != nil {
			return err
		}
		bad := data.ClonePairs(out)
		if r == 0 && len(bad) > 0 {
			bad[0].Value += 7 // corrupt the asserted reduction
		}
		if err := ctx.AssertSum(local, bad); err != nil {
			return err // deferred: must not fail inline
		}
		if _, err := ctx.Seq(shardU64(seq, p, r)).Sort().Collect(); err != nil {
			return err
		}
		verr := ctx.Verify()
		if verr == nil {
			return errors.New("corrupted stage not rejected")
		}
		if !errors.Is(verr, repro.ErrCheckFailed) {
			return verr
		}
		if !strings.Contains(verr.Error(), "AssertSum#1") {
			t.Errorf("verify error does not name the offending stage: %v", verr)
		}
		var se *repro.StageError
		if !errors.As(verr, &se) || se.Op != "AssertSum" {
			t.Errorf("verify error does not expose a StageError for AssertSum: %v", verr)
		}
		if r == 0 {
			want := []repro.Verdict{repro.VerdictPass, repro.VerdictFail, repro.VerdictPass}
			var got []repro.Verdict
			for _, st := range ctx.Stats() {
				got = append(got, st.Verdict)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("stage verdicts %v, want %v", got, want)
			}
			sums := ctx.VerifySummaries()
			if len(sums) != 1 || len(sums[0].Failed) != 1 || sums[0].Failed[0] != "AssertSum#1" {
				t.Errorf("verify summary misattributes the failure: %+v", sums)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestJoinDeterministicOrder asserts Join output is sorted by
// (key, left, right) and identical across repeated runs — the build
// side is a hash map, so unsorted output would vary with map iteration
// order.
func TestJoinDeterministicOrder(t *testing.T) {
	const p = 3
	left := workload.UniformPairs(600, 30, 100, 71)
	right := workload.UniformPairs(500, 30, 100, 72)
	collect := func() [][]repro.JoinRow {
		perPE := make([][]repro.JoinRow, p)
		err := repro.Run(p, 3, func(w *repro.Worker) error {
			ctx, err := repro.NewContext(w, repro.DefaultOptions())
			if err != nil {
				return err
			}
			rows, err := ctx.Pairs(shardPairs(left, p, w.Rank())).Join(ctx.Pairs(shardPairs(right, p, w.Rank())))
			if err != nil {
				return err
			}
			perPE[w.Rank()] = rows
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return perPE
	}
	first := collect()
	for r, rows := range first {
		for i := 1; i < len(rows); i++ {
			a, b := rows[i-1], rows[i]
			if a.Key > b.Key || (a.Key == b.Key && (a.Left > b.Left || (a.Left == b.Left && a.Right > b.Right))) {
				t.Fatalf("rank %d: rows not sorted at %d: %+v > %+v", r, i, a, b)
			}
		}
	}
	for trial := 0; trial < 3; trial++ {
		if again := collect(); !reflect.DeepEqual(first, again) {
			t.Fatalf("join output differs between identical runs (trial %d)", trial)
		}
	}
}

// TestZipCheckOffSkipsOffsetPrefixSum asserts the zip checker's
// global-offset prefix sum — checker-side communication — is charged to
// the checker and skipped under CheckOff.
func TestZipCheckOffSkipsOffsetPrefixSum(t *testing.T) {
	const p = 3
	a := workload.UniformU64s(900, 1e8, 81)
	b := workload.UniformU64s(900, 1e8, 82)
	zipStats := func(mode repro.CheckMode) repro.CheckStats {
		var st repro.CheckStats
		opts := repro.DefaultOptions()
		opts.Mode = mode
		err := repro.Run(p, 4, func(w *repro.Worker) error {
			ctx, err := repro.NewContext(w, opts)
			if err != nil {
				return err
			}
			r := w.Rank()
			if _, err := ctx.Seq(shardU64(a, p, r)).Zip(ctx.Seq(shardU64(b, p, r))).Collect(); err != nil {
				return err
			}
			if err := ctx.Verify(); err != nil {
				return err
			}
			if r == 0 {
				st = ctx.Stats()[0]
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	off := zipStats(repro.CheckOff)
	if off.CheckerBytes != 0 || off.CheckerRounds != 0 {
		t.Errorf("CheckOff zip spent checker communication: %d bytes, %d rounds", off.CheckerBytes, off.CheckerRounds)
	}
	deferred := zipStats(repro.CheckDeferred)
	if deferred.CheckerBytes <= 0 || deferred.CheckerRounds <= 0 {
		t.Errorf("deferred zip did not charge the offset prefix sum to the checker: %d bytes, %d rounds",
			deferred.CheckerBytes, deferred.CheckerRounds)
	}
	if deferred.OpBytes != off.OpBytes {
		t.Errorf("zip operation bytes differ between modes (%d vs %d): checker traffic leaked into OpBytes",
			deferred.OpBytes, off.OpBytes)
	}
}

// TestZipValidatesIterations: a hand-built Options with a zero-value
// Zip config must be rejected by the Zip stage — a zero-iteration zip
// checker has an empty fingerprint and would silently accept anything —
// while partial Options keep working for stages that don't need the
// missing config.
func TestZipValidatesIterations(t *testing.T) {
	err := repro.Run(2, 1, func(w *repro.Worker) error {
		opts := repro.DefaultOptions()
		opts.Zip.Iterations = 0
		ctx, err := repro.NewContext(w, opts)
		if err != nil {
			return err
		}
		// A stage that doesn't use the broken Zip config still works.
		if _, err := ctx.Seq([]uint64{3, 1}).Sort().Collect(); err != nil {
			return err
		}
		_, zerr := ctx.Seq([]uint64{1}).Zip(ctx.Seq([]uint64{2})).Collect()
		if zerr == nil {
			return errors.New("zero-iteration zip checker accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBadCheckerConfigFailsStageBeforeExec: a stage whose checker
// configuration is invalid fails the Context with an error naming the
// Options field — on every rank alike, before the operation sent a byte
// — instead of panicking in the checker's constructor after the
// operation ran. Without checking the configuration is never read. A
// sum checker whose bucket count is not a power of two is one such
// configuration: the stage error carries Validate's.
func TestBadCheckerConfigFailsStageBeforeExec(t *testing.T) {
	pairs := []repro.Pair{{Key: 1, Value: 2}, {Key: 3, Value: 4}, {Key: 1, Value: 6}}
	seq := []uint64{5, 1, 4}
	zeroSum := func(o *repro.Options) { o.Sum = core.SumConfig{} }
	zeroPerm := func(o *repro.Options) { o.Perm = core.PermConfig{} }
	tenBuckets := repro.DefaultOptions().Sum
	tenBuckets.Buckets = 10
	cases := []struct {
		stage, option string
		breakIt       func(*repro.Options)
		run           func(ctx *repro.Context) error
		carries       error // the configuration's error the stage error wraps, if set
	}{
		{"ReduceByKey", "Options.Sum", zeroSum, func(ctx *repro.Context) error {
			_, err := ctx.Pairs(pairs).ReduceByKey(repro.SumFn).Collect()
			return err
		}, nil},
		{"StreamSum", "Options.Sum", zeroSum, func(ctx *repro.Context) error {
			return ctx.StreamPairs(repro.SlicePairs(pairs, 2)).AssertSum(repro.SlicePairs(pairs, 2))
		}, nil},
		{"AssertSum", "Options.Sum", func(o *repro.Options) { o.Sum = tenBuckets }, func(ctx *repro.Context) error {
			return ctx.AssertSum(pairs, pairs)
		}, tenBuckets.Validate()},
		{"Sort", "Options.Perm", zeroPerm, func(ctx *repro.Context) error {
			_, err := ctx.Seq(seq).Sort().Collect()
			return err
		}, nil},
		{"GroupByKey", "Options.Perm", zeroPerm, func(ctx *repro.Context) error {
			_, err := ctx.Pairs(pairs).GroupByKey()
			return err
		}, nil},
		{"StreamPerm", "Options.Perm", zeroPerm, func(ctx *repro.Context) error {
			return ctx.StreamSeq(repro.SliceSeq(seq, 2)).AssertPermutation(repro.SliceSeq(seq, 2))
		}, nil},
		{"Zip", "Options.Zip", func(o *repro.Options) { o.Zip.Iterations = 0 }, func(ctx *repro.Context) error {
			_, err := ctx.Seq(seq).Zip(ctx.Seq(seq)).Collect()
			return err
		}, nil},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 3} {
			for _, mode := range []repro.CheckMode{repro.CheckEager, repro.CheckDeferred, repro.CheckOff} {
				t.Run(fmt.Sprintf("%s/p%d/%s", tc.stage, p, mode), func(t *testing.T) {
					stageErrs := make([]error, p)
					stats := make([][]repro.CheckStats, p)
					err := repro.Run(p, 5, func(w *repro.Worker) error {
						opts := repro.DefaultOptions()
						opts.Mode = mode
						tc.breakIt(&opts)
						ctx, err := repro.NewContext(w, opts)
						if err != nil {
							return err
						}
						stageErrs[w.Rank()] = tc.run(ctx)
						stats[w.Rank()] = ctx.Stats()
						// The error is sticky and nothing is left pending. Returned
						// through neither: a failing body tears the run down under
						// ranks that have not got this far.
						if verr := ctx.Verify(); verr != stageErrs[w.Rank()] || pendingStages(ctx) != 0 {
							t.Errorf("rank %d: Verify = %v after stage error %v, %d pending",
								w.Rank(), verr, stageErrs[w.Rank()], pendingStages(ctx))
						}
						return nil
					})
					if err != nil {
						t.Fatalf("run failed (a panic is reported here): %v", err)
					}
					if mode == repro.CheckOff {
						if stageErrs[0] != nil {
							t.Fatalf("CheckOff read the checker configuration: %v", stageErrs[0])
						}
						return
					}
					for r, serr := range stageErrs {
						if serr == nil || !strings.HasPrefix(serr.Error(), "repro: "+tc.option+": ") {
							t.Fatalf("rank %d: stage error %v does not name %s", r, serr, tc.option)
						}
						if tc.carries != nil && !strings.Contains(serr.Error(), tc.carries.Error()) {
							t.Errorf("rank %d: stage error %q does not carry %q", r, serr, tc.carries)
						}
						if serr.Error() != stageErrs[0].Error() {
							t.Errorf("rank %d: error %q differs from rank 0's %q", r, serr, stageErrs[0])
						}
						if errors.Is(serr, repro.ErrCheckFailed) {
							t.Errorf("rank %d: a configuration error reads as a checker rejection", r)
						}
						if len(stats[r]) != 1 {
							t.Fatalf("rank %d: %d stats entries, want the failed stage alone", r, len(stats[r]))
						}
						st := stats[r][0]
						if st.Op != tc.stage || st.Verdict != repro.VerdictError || st.OpBytes != 0 || st.CheckerBytes != 0 {
							t.Errorf("rank %d: stage ran before its configuration was checked: %+v", r, st)
						}
					}
				})
			}
		}
	}
}

// TestContextMixingRejected guards the API misuse of zipping datasets
// from different Contexts.
func TestContextMixingRejected(t *testing.T) {
	err := repro.Run(2, 1, func(w *repro.Worker) error {
		ctx1, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		ctx2, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		_, zerr := ctx1.Seq([]uint64{1}).Union(ctx2.Seq([]uint64{2})).Collect()
		if zerr == nil {
			return errors.New("cross-context operation not rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParallelismEquivalence runs the same pipeline with Parallelism
// 1, 4 and 0 and requires identical outputs and identical (accepting)
// verdicts: the field is a shim that nothing reads, and must stay so.
func TestParallelismEquivalence(t *testing.T) {
	const p = 2
	pairs := workload.ZipfPairs(40000, 3000, 1000, 61)
	seq := workload.UniformU64s(30000, 1e12, 62)

	run := func(parallelism int) ([]repro.Pair, []uint64, []repro.Verdict) {
		var outPairs []repro.Pair
		var outSeq []uint64
		var verdicts []repro.Verdict
		opts := repro.DefaultOptions().WithParallelism(parallelism)
		opts.Mode = repro.CheckDeferred
		err := repro.Run(p, 51, func(w *repro.Worker) error {
			ctx, err := repro.NewContext(w, opts)
			if err != nil {
				return err
			}
			r := w.Rank()
			rp, err := ctx.Pairs(shardPairs(pairs, p, r)).ReduceByKey(repro.SumFn).Collect()
			if err != nil {
				return err
			}
			rs, err := ctx.Seq(shardU64(seq, p, r)).Sort().Collect()
			if err != nil {
				return err
			}
			if err := ctx.Verify(); err != nil {
				return err
			}
			if r == 0 {
				outPairs = rp
				outSeq = rs
				for _, st := range ctx.Stats() {
					verdicts = append(verdicts, st.Verdict)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return outPairs, outSeq, verdicts
	}

	refPairs, refSeq, refVerdicts := run(1)
	for _, par := range []int{4, 0} {
		gotPairs, gotSeq, gotVerdicts := run(par)
		if !reflect.DeepEqual(refPairs, gotPairs) || !reflect.DeepEqual(refSeq, gotSeq) {
			t.Fatalf("parallelism=%d changed pipeline output", par)
		}
		if !reflect.DeepEqual(refVerdicts, gotVerdicts) {
			t.Fatalf("parallelism=%d verdicts %v, want %v", par, gotVerdicts, refVerdicts)
		}
	}
	for _, v := range refVerdicts {
		if v != repro.VerdictPass {
			t.Fatalf("clean pipeline verdicts %v, want all pass", refVerdicts)
		}
	}
}

// TestReduceByKeyEdgeShapesOneSided is the one-sidedness gate for the
// reduce data plane: an eagerly checked ReduceByKey over the edge
// shapes, on every PE count and over mem and tcp, is never rejected,
// returns the sequential sums, and pays the same checker bytes on
// every shape — the checker's volume depends on its configuration and
// p, never on the data. The "wraparound" shape is left out: the sum
// checker verifies sums over the integers, so it rejects a SumFn
// result that wrapped around 2^64 however it was computed.
func TestReduceByKeyEdgeShapesOneSided(t *testing.T) {
	opts := repro.DefaultOptions()
	opts.Mode = repro.CheckEager
	// The bottleneck PE's checker bytes under the default options: the
	// 15×4 m10 table packed (660 bits = 11 words) and the flag word up,
	// plus one verdict word down per tree child — 12 words at p = 2 and
	// 3, 13 at p = 5, 14 at p = 8.
	wantMaxBytes := map[int]int64{1: 0, 2: 96, 3: 96, 5: 104, 8: 112}
	for _, transport := range []repro.Transport{dist.TransportMem, dist.TransportTCP} {
		for _, p := range []int{1, 2, 3, 5, 8} {
			shapes := slices.DeleteFunc(workload.EdgePairShares(p, uint64(200+p)), func(s workload.PairShares) bool {
				return s.Name == "wraparound"
			})
			// bytes[shape][rank], outs[shape][rank]; each rank writes its own column.
			bytes := make([][]int64, len(shapes))
			outs := make([][][]repro.Pair, len(shapes))
			for s := range shapes {
				bytes[s], outs[s] = make([]int64, p), make([][]repro.Pair, p)
			}
			err := repro.RunConfig(repro.Config{Transport: transport}, p, 9, func(w *repro.Worker) error {
				for s, shape := range shapes {
					ctx, err := repro.NewContext(w, opts)
					if err != nil {
						return err
					}
					out, err := ctx.Pairs(shape.Shares[w.Rank()]).ReduceByKey(repro.SumFn).Collect()
					if err != nil {
						return fmt.Errorf("%s: %w", shape.Name, err)
					}
					if err := ctx.Verify(); err != nil {
						return fmt.Errorf("%s: %w", shape.Name, err)
					}
					outs[s][w.Rank()], bytes[s][w.Rank()] = out, ctx.TotalCheckerBytes()
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s p=%d: clean run rejected or failed: %v", transport, p, err)
			}
			if got := slices.Max(bytes[0]); got != wantMaxBytes[p] {
				t.Errorf("%s p=%d: bottleneck checker bytes = %d, want %d", transport, p, got, wantMaxBytes[p])
			}
			for s, shape := range shapes {
				if !reflect.DeepEqual(bytes[s], bytes[0]) {
					t.Errorf("%s p=%d %s: checker bytes per PE %v differ from %s's %v", transport, p, shape.Name, bytes[s], shapes[0].Name, bytes[0])
				}
				var all, got []repro.Pair
				for r := range shape.Shares {
					all = append(all, shape.Shares[r]...)
					got = append(got, outs[s][r]...)
				}
				data.SortPairsByKey(got)
				if want := data.MapToPairs(data.PairsToMapSum(all)); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Errorf("%s p=%d %s: reduced to %v, want %v", transport, p, shape.Name, got, want)
				}
			}
		}
	}
}

// TestSeqOpsEdgeShapesOneSided is the one-sidedness gate for the
// sequence data plane: eagerly checked Sort, Merge, Union and Zip over
// the edge shapes, on every PE count and over mem and tcp, are never
// rejected, return the right sequence, and pay the same checker bytes
// on every shape. The second input of the binary operations is the
// same shape shifted by one PE.
func TestSeqOpsEdgeShapesOneSided(t *testing.T) {
	opts := repro.DefaultOptions()
	opts.Mode = repro.CheckEager
	// The bottleneck PE's checker bytes for the four stages together
	// under the default options: a pin that data-plane work must not
	// move (the Zip stage's share includes its one-scan preparation).
	// Sort, Merge and Union each send their one product word: 8 bytes a
	// stage below 200/280/360 for two words. Zip sends its one word.
	wantMaxBytes := map[int]int64{1: 0, 2: 152, 3: 160, 5: 240, 8: 312}
	for _, transport := range []repro.Transport{dist.TransportMem, dist.TransportTCP} {
		for _, p := range []int{1, 2, 3, 5, 8} {
			shapes := workload.EdgeSeqShares(p, uint64(400+p))
			// bytes[shape][rank]; each rank writes its own column.
			bytes := make([][]int64, len(shapes))
			sorted, merged, unioned := make([][][]uint64, len(shapes)), make([][][]uint64, len(shapes)), make([][][]uint64, len(shapes))
			zipped := make([][][]repro.Pair, len(shapes))
			for s := range shapes {
				bytes[s] = make([]int64, p)
				sorted[s], merged[s], unioned[s] = make([][]uint64, p), make([][]uint64, p), make([][]uint64, p)
				zipped[s] = make([][]repro.Pair, p)
			}
			err := repro.RunConfig(repro.Config{Transport: transport}, p, 9, func(w *repro.Worker) error {
				r := w.Rank()
				for s, shape := range shapes {
					ctx, err := repro.NewContext(w, opts)
					if err != nil {
						return err
					}
					a, b := shape.Shares[r], shape.Shares[(r+1)%p]
					if sorted[s][r], err = ctx.Seq(a).Sort().Collect(); err != nil {
						return fmt.Errorf("%s: Sort: %w", shape.Name, err)
					}
					if merged[s][r], err = ctx.Seq(a).Merge(ctx.Seq(b)).Collect(); err != nil {
						return fmt.Errorf("%s: Merge: %w", shape.Name, err)
					}
					if unioned[s][r], err = ctx.Seq(a).Union(ctx.Seq(b)).Collect(); err != nil {
						return fmt.Errorf("%s: Union: %w", shape.Name, err)
					}
					if zipped[s][r], err = ctx.Seq(a).Zip(ctx.Seq(b)).Collect(); err != nil {
						return fmt.Errorf("%s: Zip: %w", shape.Name, err)
					}
					if err := ctx.Verify(); err != nil {
						return fmt.Errorf("%s: %w", shape.Name, err)
					}
					bytes[s][r] = ctx.TotalCheckerBytes()
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s p=%d: clean run rejected or failed: %v", transport, p, err)
			}
			if got := slices.Max(bytes[0]); got != wantMaxBytes[p] {
				t.Errorf("%s p=%d: bottleneck checker bytes = %d, want %d", transport, p, got, wantMaxBytes[p])
			}
			for s, shape := range shapes {
				if !reflect.DeepEqual(bytes[s], bytes[0]) {
					t.Errorf("%s p=%d %s: checker bytes per PE %v differ from %s's %v", transport, p, shape.Name, bytes[s], shapes[0].Name, bytes[0])
				}
				all := slices.Concat(shape.Shares...)
				twice := slices.Concat(all, all)
				slices.Sort(all)
				slices.Sort(twice)
				if got := slices.Concat(sorted[s]...); !slices.Equal(got, all) {
					t.Errorf("%s p=%d %s: sorted to %v, want %v", transport, p, shape.Name, got, all)
				}
				if got := slices.Concat(merged[s]...); !slices.Equal(got, twice) {
					t.Errorf("%s p=%d %s: merged to %v, want %v", transport, p, shape.Name, got, twice)
				}
				got := slices.Concat(unioned[s]...)
				slices.Sort(got)
				if !slices.Equal(got, twice) {
					t.Errorf("%s p=%d %s: union holds %v, want %v", transport, p, shape.Name, got, twice)
				}
				// Zipped against itself shifted by one PE: the keys are
				// the shares in rank order, the values start at PE 1's.
				var keys, values []uint64
				for _, pr := range slices.Concat(zipped[s]...) {
					keys, values = append(keys, pr.Key), append(values, pr.Value)
				}
				if want := slices.Concat(shape.Shares...); !slices.Equal(keys, want) {
					t.Errorf("%s p=%d %s: zip keys %v, want %v", transport, p, shape.Name, keys, want)
				}
				if want := slices.Concat(slices.Concat(shape.Shares[1:]...), shape.Shares[0]); !slices.Equal(values, want) {
					t.Errorf("%s p=%d %s: zip values %v, want %v", transport, p, shape.Name, values, want)
				}
			}
		}
	}
}
