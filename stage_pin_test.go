package repro_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/workload"
)

// statPin is the deterministic part of a CheckStats entry: everything
// but the labels, the operation's own bytes and the wall times.
type statPin struct {
	Verdict          repro.Verdict
	In, Out          int
	Bytes, Msgs      int64
	Rounds, Batch    int
	Chunks, Resident int
}

func pinOf(st repro.CheckStats) statPin {
	return statPin{st.Verdict, st.ElementsIn, st.ElementsOut, st.CheckerBytes, st.CheckerMsgs,
		st.CheckerRounds, st.BatchWords, st.Chunks, st.PeakResident}
}

// TestStageRunnerStatsPinned drives each kind of stage the Context's one
// stage runner serves — a materialised operation, the zip stage (the
// only one with a communicating checker preparation) and a streamed
// assertion — in every check mode, and compares the CheckStats entry on
// every rank, field by field, with the values recorded from the commit
// that still had three runners (runStage, runStagePrep, runStreamStage)
// — the Zip rows from the commit that made its preparation one scan.
// The three error exits are pinned the same way. The sum-checked rows
// carry the default 15×4 m10 table packed: 11 words and the flag, 96
// bytes up eagerly, and 12 batch words deferred (the 6×32 m9 default
// before it: 248 bytes, 31 words).
func TestStageRunnerStatsPinned(t *testing.T) {
	const p = 3
	pairs := workload.ZipfPairs(1500, 120, 1000, 31)
	seqA := workload.UniformU64s(900, 1e8, 32)
	seqB := workload.UniformU64s(900, 1e8, 33)
	// The streamed stage asserts the serial reduce of pairs, dealt out by
	// key: the sum checker does not care how the output is distributed.
	sums := map[uint64]uint64{}
	for _, pr := range pairs {
		sums[pr.Key] += pr.Value
	}
	reduced := make([][]repro.Pair, p)
	for k := uint64(0); k < 1000; k++ {
		if v, ok := sums[k]; ok {
			reduced[k%p] = append(reduced[k%p], repro.Pair{Key: k, Value: v})
		}
	}
	stages := map[string]func(ctx *repro.Context, r int) error{
		"ReduceByKey": func(ctx *repro.Context, r int) error {
			_, err := ctx.Pairs(shardPairs(pairs, p, r)).ReduceByKey(repro.SumFn).Collect()
			return err
		},
		// b is dealt out unevenly so the zip has data to move.
		"Zip": func(ctx *repro.Context, r int) error {
			b := [][]uint64{seqB[:100], seqB[100:250], seqB[250:]}[r]
			_, err := ctx.Seq(shardU64(seqA, p, r)).Zip(ctx.Seq(b)).Collect()
			return err
		},
		"StreamSum": func(ctx *repro.Context, r int) error {
			return ctx.StreamPairs(repro.SlicePairs(shardPairs(pairs, p, r), 64)).AssertSum(repro.SlicePairs(reduced[r], 50))
		},
		// The three error exits of the runner.
		"ReduceByKey/badSum": func(ctx *repro.Context, r int) error {
			_, err := ctx.Pairs(shardPairs(pairs, p, r)).ReduceByKey(repro.SumFn).Collect()
			return err
		},
		"Zip/execError": func(ctx *repro.Context, r int) error {
			_, err := ctx.Seq(shardU64(seqA, p, r)).Zip(ctx.Seq(seqB[:10*r])).Collect()
			return err
		},
	}
	pass, skip, fail := repro.VerdictPass, repro.VerdictSkipped, repro.VerdictError
	cases := []struct {
		stage   string
		mode    repro.CheckMode
		wantErr string // substring of the stage's error; "" for a clean stage
		want    [p]statPin
	}{
		{"ReduceByKey", repro.CheckEager, "", [p]statPin{
			{pass, 500, 32, 16, 2, 2, 0, 0, 0}, {pass, 500, 40, 96, 1, 2, 0, 0, 0}, {pass, 500, 46, 96, 1, 2, 0, 0, 0}}},
		{"ReduceByKey", repro.CheckDeferred, "", [p]statPin{
			{pass, 500, 32, 0, 0, 0, 12, 0, 0}, {pass, 500, 40, 0, 0, 0, 12, 0, 0}, {pass, 500, 46, 0, 0, 0, 12, 0, 0}}},
		{"ReduceByKey", repro.CheckOff, "", [p]statPin{
			{skip, 500, 32, 0, 0, 0, 0, 0, 0}, {skip, 500, 40, 0, 0, 0, 0, 0, 0}, {skip, 500, 46, 0, 0, 0, 0, 0, 0}}},
		// Eager zip: the preparation's one round (the scan, a sweep up and
		// down the tree that yields offsets and totals) plus the two of the
		// resolve; deferred keeps the preparation's alone.
		{"Zip", repro.CheckEager, "", [p]statPin{
			{pass, 400, 300, 112, 4, 3, 0, 0, 0}, {pass, 450, 300, 64, 2, 3, 0, 0, 0}, {pass, 950, 300, 64, 2, 3, 0, 0, 0}}},
		{"Zip", repro.CheckDeferred, "", [p]statPin{
			{pass, 400, 300, 96, 2, 1, 5, 0, 0}, {pass, 450, 300, 24, 1, 1, 5, 0, 0}, {pass, 950, 300, 24, 1, 1, 5, 0, 0}}},
		{"Zip", repro.CheckOff, "", [p]statPin{
			{skip, 400, 300, 0, 0, 0, 0, 0, 0}, {skip, 450, 300, 0, 0, 0, 0, 0, 0}, {skip, 950, 300, 0, 0, 0, 0, 0, 0}}},
		{"StreamSum", repro.CheckEager, "", [p]statPin{
			{pass, 500, 39, 16, 2, 2, 0, 9, 64}, {pass, 500, 40, 96, 1, 2, 0, 9, 64}, {pass, 500, 39, 96, 1, 2, 0, 9, 64}}},
		{"StreamSum", repro.CheckDeferred, "", [p]statPin{
			{pass, 500, 39, 0, 0, 0, 12, 9, 64}, {pass, 500, 40, 0, 0, 0, 12, 9, 64}, {pass, 500, 39, 0, 0, 0, 12, 9, 64}}},
		// Under CheckOff a streamed stage consumes nothing.
		{"StreamSum", repro.CheckOff, "", [p]statPin{{Verdict: skip}, {Verdict: skip}, {Verdict: skip}}},
		{"ReduceByKey/badSum", repro.CheckEager, "repro: Options.Sum: ", [p]statPin{
			{Verdict: fail, In: 500}, {Verdict: fail, In: 500}, {Verdict: fail, In: 500}}},
		{"ReduceByKey/badSum", repro.CheckDeferred, "repro: Options.Sum: ", [p]statPin{
			{Verdict: fail, In: 500}, {Verdict: fail, In: 500}, {Verdict: fail, In: 500}}},
		{"Zip/execError", repro.CheckEager, "ops: Zip length mismatch", [p]statPin{
			{Verdict: fail, In: 300}, {Verdict: fail, In: 310}, {Verdict: fail, In: 320}}},
		{"Zip/execError", repro.CheckDeferred, "ops: Zip length mismatch", [p]statPin{
			{Verdict: fail, In: 300}, {Verdict: fail, In: 310}, {Verdict: fail, In: 320}}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%s", tc.stage, tc.mode), func(t *testing.T) {
			var got [p]statPin
			err := repro.Run(p, 7, func(w *repro.Worker) error {
				opts := repro.DefaultOptions()
				opts.Mode = tc.mode
				if strings.HasSuffix(tc.stage, "/badSum") {
					opts.Sum.Iterations = 0
				}
				ctx, err := repro.NewContext(w, opts)
				if err != nil {
					return err
				}
				serr := stages[tc.stage](ctx, w.Rank())
				if verr := ctx.Verify(); serr == nil {
					serr = verr
				}
				if tc.wantErr == "" && serr != nil {
					return serr
				}
				if tc.wantErr != "" && (serr == nil || !strings.Contains(serr.Error(), tc.wantErr)) {
					t.Errorf("rank %d: stage error %v, want one containing %q", w.Rank(), serr, tc.wantErr)
				}
				stats := ctx.Stats()
				if len(stats) != 1 {
					return fmt.Errorf("%d stats entries, want 1", len(stats))
				}
				got[w.Rank()] = pinOf(stats[0])
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("CheckStats moved:\n got  %#v\n want %#v", got, tc.want)
			}
		})
	}
}

// TestStageRunnerPrepErrorPinned is the third error exit: the zip
// checker's preparation (the offset scan) fails on the wire after the
// operation succeeded. The receive that fails is rank 0's, of rank 1's
// partial on the scan's way up — the fourth non-empty message of a
// two-PE run whose zip moves no data — so rank 0's entry is
// deterministic: an error verdict charged with the preparation's traffic
// so far, and nothing pending.
func TestStageRunnerPrepErrorPinned(t *testing.T) {
	for _, mode := range []repro.CheckMode{repro.CheckEager, repro.CheckDeferred} {
		t.Run(mode.String(), func(t *testing.T) {
			net := comm.NewFaultyNetwork(comm.NewMemNetwork(2), 0, 0)
			defer net.Close()
			net.ArmRecvErr(4)
			var got statPin
			var pending int
			err := dist.RunNetwork(net, 7, func(w *dist.Worker) error {
				opts := repro.DefaultOptions()
				opts.Mode = mode
				ctx, err := repro.NewContext(w, opts)
				if err != nil {
					return err
				}
				a := []uint64{1, 2, 3, 4}
				_, serr := ctx.Seq(a).Zip(ctx.Seq(a)).Collect()
				if w.Rank() == 0 {
					if !errors.Is(serr, comm.ErrInjected) {
						t.Errorf("rank 0: zip error %v, want the injected receive fault", serr)
					}
					got, pending = pinOf(ctx.Stats()[0]), ctx.Pending()
				}
				return serr
			})
			if !errors.Is(err, comm.ErrInjected) {
				t.Fatalf("run error %v, want the injected receive fault", err)
			}
			// The scan started and nothing sent yet: rank 0 speaks only on
			// the way down.
			want := statPin{Verdict: repro.VerdictError, In: 8, Out: 4, Rounds: 1}
			if got != want || pending != 0 {
				t.Errorf("CheckStats moved (%d pending):\n got  %#v\n want %#v", pending, got, want)
			}
		})
	}
}
