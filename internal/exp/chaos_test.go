package exp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
)

// row returns the (phase, kind) checker of res, failing if it is absent.
func row(t *testing.T, res SoakResult, phase, kind string) ChaosRow {
	t.Helper()
	for _, r := range res.Rows {
		if r.Phase == phase && r.Kind == kind {
			return r
		}
	}
	t.Fatalf("no %s/%s row in\n%s", phase, kind, RenderSoak(res))
	return ChaosRow{}
}

// TestSoakSmoke runs a scaled-down schedule: enough clean jobs to
// saturate the concurrency bound, doctored claims that must all be
// caught, and one bitflip and one receive-fault row.
func TestSoakSmoke(t *testing.T) {
	res, err := Soak(SoakOptions{P: 4, Concurrency: 16, Jobs: 80, Elements: 400,
		Flips: 1, Faults: 1, WaveJobs: 8, Seed: 7})
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
	t.Logf("\n%s", RenderSoak(res))
	if !res.OK() {
		t.Fatalf("soak failed: %v", res.Violations)
	}
	corrupted := 0
	for _, r := range res.Rows {
		corrupted += r.Corrupted
	}
	if corrupted == 0 {
		t.Fatal("smoke soak doctored no claim")
	}
	for _, ph := range []string{"flip0", "fault0"} {
		if r := row(t, res, ph, "reduce-collect"); r.Absorbed == 0 {
			t.Fatalf("%s: no job absorbed the fault: %+v", ph, r)
		}
	}
	if r := row(t, res, "fault0/probe", "reduce-collect"); r.Passed != r.Total {
		t.Fatalf("probe wave after the receive fault: %+v", r)
	}
}

// TestRecoveryEpisode runs the kill-rank row alone and asserts its full
// contract: bounded detection, exactly one view change, every in-flight
// recoverable job recovered with the verdict of a serial rerun over the
// recovered shares, and clean post-epoch jobs unaffected.
func TestRecoveryEpisode(t *testing.T) {
	res, err := Soak(SoakOptions{P: 4, Concurrency: 8, WaveJobs: 6, Elements: 400,
		KillRank: 2, Seed: 42, Jobs: -1, Flips: -1, Faults: -1})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if !res.OK() {
		t.Fatalf("kill-rank row violated the recovery contract:\n%s", RenderSoak(res))
	}
	k := row(t, res, "kill-rank", "assert-sum")
	if k.Total != 6 || k.NotRecovered != 0 || k.Mismatched != 0 || k.Passed != 3 || k.Rejected != 3 || k.Corrupted != 3 {
		t.Fatalf("in-flight jobs: %+v, want 6 recovered as the serial rerun: 3 passed, 3 doctored and rejected", k)
	}
	if res.ViewChanges != 1 || res.Epoch != 1 || res.Alive != 3 {
		t.Fatalf("membership: %d view changes, view of %d ranks at epoch %d", res.ViewChanges, res.Alive, res.Epoch)
	}
	if post := row(t, res, "kill-rank/post-epoch", "assert-sum"); post.Total != 6 || post.Passed != 6 {
		t.Fatalf("post-epoch jobs: %+v", post)
	}
}

// TestRecoveryEpisodeKillRankValidation rejects an out-of-range victim,
// and a negative size, at entry, before any network is built: a bogus
// transport must not be what fails.
func TestRecoveryEpisodeKillRankValidation(t *testing.T) {
	bogus := dist.Config{Transport: "bogus"}
	for _, c := range []struct {
		opt  SoakOptions
		want string
	}{
		{SoakOptions{P: 4, KillRank: -1}, "kill rank"},
		{SoakOptions{P: 4, KillRank: 4}, "kill rank"},
		{SoakOptions{P: 4, KillRank: 9}, "kill rank"},
		{SoakOptions{P: -1}, "must all be positive"},
		{SoakOptions{Concurrency: -1}, "must all be positive"},
		{SoakOptions{Elements: -1}, "must all be positive"},
		{SoakOptions{WaveJobs: -1}, "must all be positive"},
	} {
		c.opt.Dist = bogus
		if _, err := Soak(c.opt); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%+v: got %v, want an error containing %q", c.opt, err, c.want)
		}
	}
	if _, err := Soak(SoakOptions{P: 4, KillRank: 2, Dist: bogus}); err == nil || strings.Contains(err.Error(), "kill rank") {
		t.Fatalf("valid kill rank over a bogus transport: got %v, want the transport error", err)
	}
}

// TestSoakKillRank runs every row of the schedule, the kill-rank row
// included, and checks it folds into the one verdict.
func TestSoakKillRank(t *testing.T) {
	if testing.Short() {
		t.Skip("full soak in -short mode")
	}
	res, err := Soak(SoakOptions{P: 4, Concurrency: 16, Jobs: 40, Elements: 300,
		Flips: 1, Faults: 1, WaveJobs: 4, KillRank: 2, Seed: 7})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if !res.OK() {
		t.Fatalf("soak failed:\n%s", RenderSoak(res))
	}
	if k := row(t, res, "kill-rank", "assert-sum"); k.Total != 4 || k.NotRecovered != 0 || res.ViewChanges != 1 {
		t.Fatalf("kill-rank row: %+v, %d view changes", k, res.ViewChanges)
	}
}

// TestGateNamesEveryViolation feeds the gate one synthetic outcome per
// invariant: each must yield exactly one violation naming its phase,
// kind and invariant, and a clean outcome none.
func TestGateNamesEveryViolation(t *testing.T) {
	opt := SoakOptions{P: 4, Concurrency: 16, Jobs: 80, KillRank: 2}
	clean := func() SoakResult {
		return SoakResult{HighWater: 16, DetectNs: int64(time.Second), ViewChanges: 1, Epoch: 1, Alive: 3, Rows: []ChaosRow{
			{Phase: "clean", Kind: "assert-sum", Total: 30, Passed: 20, Rejected: 10, Corrupted: 10},
			{Phase: "flip0", Kind: "reduce-collect", Total: 8, Passed: 7, Rejected: 1, Absorbed: 1},
			{Phase: "kill-rank", Kind: "assert-sum", Total: 6, Passed: 3, Rejected: 3, Corrupted: 3},
		}}
	}
	if v := gate(clean(), opt); len(v) != 0 {
		t.Fatalf("clean outcome: %v", v)
	}
	for _, c := range []struct {
		name, want string
		mutate     func(*SoakResult)
	}{
		{"escape", "clean/assert-sum: escape", func(r *SoakResult) { r.Rows[0].Escapes = 1 }},
		{"false alarm", "clean/assert-sum: false alarm", func(r *SoakResult) { r.Rows[0].FalseAlarms = 1 }},
		{"clean success rate", "clean/assert-sum: clean success rate < 1", func(r *SoakResult) { r.Rows[0].Unexplained = 1 }},
		{"fallout", "flip0/reduce-collect: fallout outside the hit job's tag block", func(r *SoakResult) { r.Rows[1].Leaked = 2 }},
		{"detection bound", "kill-rank/membership: detection past", func(r *SoakResult) { r.DetectNs = int64(soakBound) }},
		{"view changes", "kill-rank/membership: 2 view changes", func(r *SoakResult) { r.ViewChanges = 2 }},
		{"serial rerun", "kill-rank/assert-sum: recovered verdict differs from the serial rerun", func(r *SoakResult) { r.Rows[2].Mismatched = 1 }},
		{"not recovered", "kill-rank/assert-sum: not recovered: 1 in-flight job(s)", func(r *SoakResult) { r.Rows[2].NotRecovered = 1 }},
		{"live peer evicted", "kill-rank/membership: view of 2 ranks at epoch 1, want 3", func(r *SoakResult) { r.Alive = 2 }},
		{"epoch", "kill-rank/membership: view of 3 ranks at epoch 2, want 3 at epoch 1", func(r *SoakResult) { r.Epoch = 2 }},
		{"post-epoch", "kill-rank/post-epoch/assert-sum: clean success rate < 1", func(r *SoakResult) {
			r.Rows = append(r.Rows, ChaosRow{Phase: "kill-rank/post-epoch", Kind: "assert-sum", Total: 6, Passed: 5, Errored: 1, Unexplained: 1})
		}},
		{"high-water", "clean/pool: high-water 9 below the concurrency 16", func(r *SoakResult) { r.HighWater = 9 }},
	} {
		res := clean()
		c.mutate(&res)
		if v := gate(res, opt); len(v) != 1 || !strings.HasPrefix(v[0], c.want) {
			t.Errorf("%s: got %q, want one violation starting %q", c.name, v, c.want)
		}
	}
}
