package exp

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/params"
)

// fastSumOpts keeps accuracy sweeps quick in unit tests.
func fastSumOpts() AccuracySumOptions {
	return AccuracySumOptions{
		Elements:    300,
		KeyUniverse: 10000,
		MinRuns:     300,
		MaxRuns:     300,
		TargetFails: 1,
		Seed:        1,
	}
}

func TestAccuracySumShape(t *testing.T) {
	rows, err := AccuracySum(fastSumOpts())
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(core.AccuracyConfigs()) * 6 // 6 Table 4 manipulators
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(rows), wantRows)
	}
	for _, r := range rows {
		if r.Runs != 300 {
			t.Fatalf("row %s/%s has %d runs", r.Config, r.Manipulator, r.Runs)
		}
		if r.Failures < 0 || r.Failures > r.Runs {
			t.Fatalf("row %s/%s failures out of range", r.Config, r.Manipulator)
		}
	}
}

func TestAccuracySumHighDeltaConfigsFailSometimes(t *testing.T) {
	// The 1×2 m31 configuration has delta = 0.5: across 300 runs it
	// must both fail and succeed sometimes for value-preserving key
	// manipulations. (Bitflip on a value is always caught by m31's
	// huge modulus, so use RandKey rows.)
	rows, err := AccuracySum(fastSumOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Manipulator != "RandKey" {
			continue
		}
		if !strings.HasPrefix(r.Config, "1×2 ") {
			continue
		}
		if r.Failures == 0 {
			t.Errorf("%s/%s: expected some failures at delta 0.5, got none", r.Config, r.Manipulator)
		}
		if r.Failures == r.Runs {
			t.Errorf("%s/%s: checker never detected anything", r.Config, r.Manipulator)
		}
	}
}

func TestAccuracySumRatioWithinBoundForTab(t *testing.T) {
	// Tabulation hashing should respect the theoretical bound within
	// sampling noise (the paper's headline accuracy claim). Allow a
	// generous 1.8x for 300-run noise at delta 0.5/0.25.
	rows, err := AccuracySum(fastSumOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !strings.Contains(r.Config, "Tab") {
			continue
		}
		if r.Delta >= 0.05 && r.Ratio > 1.8 {
			t.Errorf("%s/%s: ratio %.2f far above 1", r.Config, r.Manipulator, r.Ratio)
		}
	}
}

func TestAccuracyPermShape(t *testing.T) {
	opt := AccuracyPermOptions{
		Elements:    300,
		Universe:    1e8,
		MinRuns:     200,
		MaxRuns:     200,
		TargetFails: 1,
		Seed:        2,
	}
	rows, err := AccuracyPerm(opt)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 2 * len(PermLogHs) * 5 // CRC+Tab, 5 Table 6 manipulators
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(rows), wantRows)
	}
}

func TestAccuracyPermCRCIncrementAnomaly(t *testing.T) {
	// The paper's Appendix A observation: CRC-32C misses Increment
	// manipulations far more often than the bound predicts, tabulation
	// does not. Check the contrast at logH=1..4 where statistics are
	// cheap. CRC's linearity makes increments collide structurally, so
	// its ratio should noticeably exceed Tab's.
	opt := AccuracyPermOptions{
		Elements:    500,
		Universe:    1e8,
		MinRuns:     1500,
		MaxRuns:     1500,
		TargetFails: 1,
		Seed:        3,
	}
	rows, err := AccuracyPerm(opt)
	if err != nil {
		t.Fatal(err)
	}
	var crcWorst, tabWorst float64
	for _, r := range rows {
		if r.Manipulator != "Increment" {
			continue
		}
		isCRC := strings.HasPrefix(r.Config, "CRC")
		logHSmall := false
		for _, h := range []string{" 1", " 2", " 3", " 4"} {
			if strings.HasSuffix(r.Config, h) {
				logHSmall = true
			}
		}
		if !logHSmall {
			continue
		}
		if isCRC && r.Ratio > crcWorst {
			crcWorst = r.Ratio
		}
		if !isCRC && r.Ratio > tabWorst {
			tabWorst = r.Ratio
		}
	}
	if crcWorst < 1.5 {
		t.Errorf("CRC Increment worst ratio %.2f; expected the paper's anomaly (>1.5)", crcWorst)
	}
	if tabWorst > 1.6 {
		t.Errorf("Tab Increment worst ratio %.2f; expected near-bound behaviour", tabWorst)
	}
}

func TestWeakScalingSmall(t *testing.T) {
	opt := WeakScalingOptions{
		ItemsPerPE:  2000,
		KeyUniverse: 10000,
		PEs:         []int{1, 2, 4},
		Repeats:     1,
		Seed:        4,
		Configs:     []core.SumConfig{{Iterations: 4, Buckets: 16, RHatLog: 5, Family: hashing.FamilyCRC}},
	}
	rows, err := WeakScaling(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Ratio <= 0 {
			t.Fatalf("nonpositive ratio: %+v", r)
		}
		if r.Ratio > 5 {
			t.Errorf("checker overhead ratio %.2f implausibly high at p=%d", r.Ratio, r.P)
		}
	}
}

func TestOverheadSumSmall(t *testing.T) {
	// Parallelism 1: the Table 5 claim compares single-core checker
	// work against the single-core reduce reference.
	opt := OverheadOptions{Elements: 20000, Repeats: 2, Seed: 5, Parallelism: 1}
	rows := OverheadSum(opt)
	if len(rows) != len(core.ScalingConfigs())+1 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.NsPerElement <= 0 || r.NsPerElement > 10000 {
			t.Errorf("%s: implausible ns/element %.2f", r.Config, r.NsPerElement)
		}
	}
	// The checker must be cheaper than the reduction it checks (the
	// core Table 5 claim), at least for the cheapest CRC config.
	if raceEnabled {
		t.Skip("race instrumentation skews the ns/element comparison")
	}
	var reduceNs, crcNs float64
	for _, r := range rows {
		if r.Config == "Reduce (reference)" {
			reduceNs = r.NsPerElement
		}
		if r.Config == "4×256 CRC m15" {
			crcNs = r.NsPerElement
		}
	}
	if crcNs >= reduceNs {
		t.Errorf("checker (%.1f ns) not cheaper than reduce (%.1f ns)", crcNs, reduceNs)
	}
}

func TestOverheadPermSmall(t *testing.T) {
	opt := OverheadOptions{Elements: 20000, Repeats: 2, Seed: 6, Parallelism: 1}
	rows := OverheadPerm(opt)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.NsPerElement <= 0 {
			t.Errorf("%s: nonpositive ns/element", r.Hash)
		}
	}
}

func TestCommVolumeSublinear(t *testing.T) {
	opt := CommVolumeOptions{
		P:      4,
		Ns:     []int{2000, 20000},
		Config: core.SumConfig{Iterations: 5, Buckets: 16, RHatLog: 5, Family: hashing.FamilyCRC},
		Seed:   7,
	}
	rows, err := CommVolume(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Operation volume grows with n; checker volume must not.
	if rows[1].OpBytes <= rows[0].OpBytes {
		t.Errorf("op volume did not grow: %d -> %d", rows[0].OpBytes, rows[1].OpBytes)
	}
	if rows[1].CheckerBytes != rows[0].CheckerBytes {
		t.Errorf("checker volume depends on n: %d -> %d", rows[0].CheckerBytes, rows[1].CheckerBytes)
	}
	// And the checker must be far below the operation at the larger n.
	if rows[1].CheckerBytes*10 > rows[1].OpBytes {
		t.Errorf("checker volume %d not well below op volume %d", rows[1].CheckerBytes, rows[1].OpBytes)
	}
}

func TestRenderers(t *testing.T) {
	if s := RenderTable1(); !strings.Contains(s, "Sum/Count") {
		t.Error("Table 1 rendering incomplete")
	}
	t2, err := params.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if s := RenderTable2(t2); !strings.Contains(s, "2^8") {
		t.Error("Table 2 rendering incomplete")
	}
	if s := RenderTable3(); !strings.Contains(s, "4×256 CRC m15") {
		t.Error("Table 3 rendering incomplete")
	}
	if s := RenderTable4(); !strings.Contains(s, "IncDec1") {
		t.Error("Table 4 rendering incomplete")
	}
	if s := RenderTable6(); !strings.Contains(s, "SetEqual") {
		t.Error("Table 6 rendering incomplete")
	}
	rows, err := AccuracySum(fastSumOpts())
	if err != nil {
		t.Fatal(err)
	}
	if s := RenderAccuracy("Fig. 3", rows); !strings.Contains(s, "[Bitflip]") {
		t.Error("accuracy rendering incomplete")
	}
}

func TestModeledScalingCheckerGrowsLogarithmically(t *testing.T) {
	opt := ModeledScalingOptions{
		ItemsPerPE: 500,
		PEs:        []int{8, 64, 512},
		AlphaNs:    10000,
		BetaNsPerB: 1,
		Config:     core.SumConfig{Iterations: 6, Buckets: 32, RHatLog: 9, Family: hashing.FamilyCRC},
		Seed:       9,
	}
	rows, err := ModeledScaling(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// The checker's modeled time must fall below the operation's once
	// the operation actually exchanges data (at p=8 with 500 items the
	// all-to-all is nearly empty, so only assert from p=64 up), and the
	// relative overhead must shrink with p.
	for _, r := range rows {
		if r.P >= 64 && r.ChkMakespanMs >= r.OpMakespanMs {
			t.Errorf("p=%d: checker comm %.3f ms not below op %.3f ms", r.P, r.ChkMakespanMs, r.OpMakespanMs)
		}
	}
	if rows[2].Overhead >= rows[0].Overhead {
		t.Errorf("checker relative overhead did not shrink: %.3f at p=8 vs %.3f at p=512",
			rows[0].Overhead, rows[2].Overhead)
	}
	growth := rows[2].ChkMakespanMs / rows[0].ChkMakespanMs
	if growth > 8 {
		t.Errorf("checker modeled time grew %.1fx from p=8 to p=512; want logarithmic growth", growth)
	}
}

func TestRenderModeled(t *testing.T) {
	rows := []ModeledRow{{P: 8, OpMakespanMs: 1, ChkMakespanMs: 0.1, Overhead: 0.1}}
	if s := RenderModeled(rows); !strings.Contains(s, "chk/op") {
		t.Error("modeled rendering incomplete")
	}
}

func TestCommVolumeStageBreakdown(t *testing.T) {
	opt := DefaultCommVolumeOptions()
	opt.P = 2
	opt.Ns = []int{3000}
	opt.Seed = 21
	rows, err := CommVolume(opt)
	if err != nil {
		t.Fatal(err)
	}
	stages := rows[0].Stages
	if len(stages) != 2 || stages[0].Op != "ReduceByKey" || stages[1].Op != "Sort" {
		t.Fatalf("unexpected stage breakdown: %+v", stages)
	}
	for _, st := range stages {
		if st.Verdict != "pass" {
			t.Errorf("stage %s verdict %s", st.Stage, st.Verdict)
		}
		if st.CheckerBytes <= 0 || st.Rounds <= 0 {
			t.Errorf("stage %s missing checker accounting: %+v", st.Stage, st)
		}
	}
	// The totals columns must keep describing the reduce stage alone.
	if rows[0].OpBytes != stages[0].OpBytes || rows[0].CheckerBytes != stages[0].CheckerBytes {
		t.Error("volume totals diverged from the reduce stage's breakdown")
	}
	out := RenderVolume(rows)
	if !strings.Contains(out, "per-stage breakdown") || !strings.Contains(out, "Sort#1") {
		t.Error("volume rendering lacks the stage breakdown")
	}
}

func TestWeakScalingStageBreakdown(t *testing.T) {
	opt := WeakScalingOptions{
		ItemsPerPE:  1500,
		KeyUniverse: 5000,
		PEs:         []int{1, 2},
		Repeats:     1,
		Seed:        23,
	}
	rows, err := WeakScaling(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Stages) != 1 || r.Stages[0].Op != "ReduceByKey" {
			t.Fatalf("row p=%d missing checked-run breakdown: %+v", r.P, r.Stages)
		}
	}
	out := RenderScaling(rows)
	if !strings.Contains(out, "per-stage breakdown, p=2") {
		t.Error("scaling rendering lacks the largest-P stage breakdown")
	}
	if strings.Contains(out, "per-stage breakdown, p=1") {
		t.Error("scaling rendering should only break down the largest P")
	}
}
