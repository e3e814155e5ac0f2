package exp

import (
	"strings"
	"testing"

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

// TestSoakValidation rejects a non-positive size at entry, before any
// network is built: a bogus transport must not be what fails.
func TestSoakValidation(t *testing.T) {
	bogus := dist.Config{Transport: "bogus"}
	for _, c := range []struct {
		opt  SoakOptions
		want string
	}{
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
	if _, err := Soak(SoakOptions{P: 4, Dist: bogus}); err == nil || strings.Contains(err.Error(), "must all be positive") {
		t.Fatalf("valid sizes over a bogus transport: got %v, want the transport error", err)
	}
}

// TestGateNamesEveryViolation feeds the gate one synthetic outcome per
// invariant: each must yield exactly one violation naming its phase,
// kind and invariant, and a clean outcome none.
func TestGateNamesEveryViolation(t *testing.T) {
	opt := SoakOptions{P: 4, Concurrency: 16, Jobs: 80}
	clean := func() SoakResult {
		return SoakResult{HighWater: 16, Rows: []ChaosRow{
			{Phase: "clean", Kind: "assert-sum", Total: 30, Passed: 20, Rejected: 10, Corrupted: 10},
			{Phase: "flip0", Kind: "reduce-collect", Total: 8, Passed: 7, Rejected: 1, Absorbed: 1},
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
		{"probe", "fault0/probe/reduce-collect: clean success rate < 1", func(r *SoakResult) {
			r.Rows = append(r.Rows, ChaosRow{Phase: "fault0/probe", Kind: "reduce-collect", Total: 6, Passed: 5, Errored: 1, Unexplained: 1})
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
