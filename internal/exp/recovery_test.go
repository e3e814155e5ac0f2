package exp

import "testing"

// TestRecoveryEpisode asserts the full recovery contract on one
// kill-a-rank episode: bounded detection, exactly one view change,
// every in-flight recoverable job recovered with the expected verdict,
// recovered verdicts bit-identical to a serial rerun over the recovered
// shares, and clean post-epoch jobs unaffected.
func TestRecoveryEpisode(t *testing.T) {
	ep, err := RunRecoveryEpisode(SoakOptions{
		P: 4, Concurrency: 8, WaveJobs: 6, Elements: 400,
		KillRank: 2, Seed: 42,
	})
	if err != nil {
		t.Fatalf("episode error: %v", err)
	}
	if !ep.OK {
		t.Fatalf("episode violated the recovery contract: %+v", ep)
	}
	if ep.Recovered != ep.InFlight || ep.VerdictMatch != ep.VerdictTotal {
		t.Fatalf("recovery incomplete: %+v", ep)
	}
}

// TestRecoveryEpisodeKillRankValidation rejects out-of-range victims.
func TestRecoveryEpisodeKillRankValidation(t *testing.T) {
	for _, kill := range []int{0, -1, 4, 9} {
		if _, err := RunRecoveryEpisode(SoakOptions{P: 4, KillRank: kill}); err == nil {
			t.Fatalf("kill rank %d accepted", kill)
		}
	}
}

// TestSoakKillRank runs a small soak with phase C enabled and checks
// the recovery episode folds into the overall verdict.
func TestSoakKillRank(t *testing.T) {
	if testing.Short() {
		t.Skip("full soak in -short mode")
	}
	res, err := Soak(SoakOptions{
		P: 4, Concurrency: 16, Jobs: 40, Elements: 300,
		Flips: 1, Faults: 1, WaveJobs: 4, KillRank: 2, Seed: 7,
	})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if res.Recovery == nil {
		t.Fatal("soak ran without a recovery episode despite KillRank")
	}
	if !res.OK {
		t.Fatalf("soak failed:\n%s", RenderSoak(res))
	}
}
