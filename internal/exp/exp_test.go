package exp

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/params"
)

// fastSumOpts keeps accuracy sweeps quick in unit tests.
func fastSumOpts() AccuracyOptions {
	return AccuracyOptions{Elements: 300, KeyUniverse: 10000, MinRuns: 300, MaxRuns: 300, Seed: 1}
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
	rows, err := AccuracyPerm(AccuracyOptions{Elements: 300, MinRuns: 200, MaxRuns: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(core.PermAccuracyConfigs()) * 5 // 5 Table 6 manipulators
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
	rows, err := AccuracyPerm(AccuracyOptions{Elements: 500, MinRuns: 1500, MaxRuns: 1500, Seed: 3})
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

// smallConfig is the one checker configuration of the small sweeps.
var smallConfig = []core.SumConfig{{Iterations: 5, Buckets: 16, RHatLog: 5, Family: hashing.FamilyCRC}}

func TestWeakScalingSmall(t *testing.T) {
	rows, err := Sweep(SweepOptions{
		Points:  Grid([]int{1, 2, 4}, 2000),
		Configs: []core.SumConfig{{Iterations: 4, Buckets: 16, RHatLog: 5, Family: hashing.FamilyCRC}},
		Repeats: 1,
		Seed:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		ratio := r.CheckedSec / r.BaseSec
		if r.BaseSec <= 0 || ratio <= 0 {
			t.Fatalf("nonpositive timing: %+v", r)
		}
		if ratio > 5 {
			t.Errorf("checker overhead ratio %.2f implausibly high at p=%d", ratio, r.P)
		}
	}
}

func TestOverheadSumSmall(t *testing.T) {
	// Parallelism 1: the Table 5 claim compares single-core checker
	// work against the single-core reduce reference.
	rows, err := OverheadSum(OverheadOptions{Elements: 20000, Repeats: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
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
	rows, err := OverheadPerm(OverheadOptions{Elements: 20000, Repeats: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[2].Config != "Sort (reference)" {
		t.Fatalf("got rows %+v", rows)
	}
	for _, r := range rows {
		if r.NsPerElement <= 0 {
			t.Errorf("%s: nonpositive ns/element", r.Config)
		}
	}
	// The reference is the operation a pipeline runs — the radix sample
	// sort — so at n = 20000 it must beat a comparison sort's ~n log n.
	if !raceEnabled && rows[2].NsPerElement > 60 {
		t.Errorf("sort reference at %.1f ns/element: not the radix sample sort?", rows[2].NsPerElement)
	}
}

func TestCommVolumeSublinear(t *testing.T) {
	rows, err := Sweep(SweepOptions{Points: []Point{{4, 500}, {4, 5000}}, Configs: smallConfig, Seed: 7})
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

// TestCheckerBytesAreTableBits holds the wire to the paper's count: on
// the commvolume job at p = 4, the bottleneck PE sends its table in
// TableBits rounded up to words, one flag word beside it, and one
// verdict word down the tree — for the default configuration and every
// configuration of Fig. 4.
func TestCheckerBytesAreTableBits(t *testing.T) {
	cfgs := append([]core.SumConfig{repro.DefaultOptions().Sum}, core.ScalingConfigs()...)
	rows, err := Sweep(SweepOptions{Points: []Point{{4, 500}}, Configs: cfgs, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if want := int64(8 * ((r.TableBits+63)/64 + 2)); r.CheckerBytes != want {
			t.Errorf("%s: %d checker bytes, want %d: a %d-bit table in words, a flag and a verdict", r.Config, r.CheckerBytes, want, r.TableBits)
		}
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
	over := RenderOverhead("Section 7.2", "Hash", []OverheadRow{{Config: "CRC", Elements: 10, NsPerElement: 2.5}})
	if !strings.Contains(over, "Hash") || !strings.Contains(over, "2.50") {
		t.Errorf("overhead rendering incomplete:\n%s", over)
	}
}

// modeledSmall is the modeled sweep at test scale: alpha = 10 us,
// beta = 1 ns/byte (the simnet defaults), 500 items per PE.
func modeledSmall(pes ...int) SweepOptions {
	opt := DefaultModeled()
	opt.Points = Grid(pes, 500)
	opt.Seed = 9
	return opt
}

func TestModeledScalingCheckerGrowsLogarithmically(t *testing.T) {
	rows, err := Sweep(modeledSmall(8, 64, 512))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// The checker's share of the critical path is the checked job's
	// makespan over the CheckOff job's. It must fall below the
	// operation's once the operation actually exchanges data (at p=8
	// with 500 items the all-to-all is nearly empty, so only assert
	// from p=64 up), and the checked/CheckOff ratio must shrink with p.
	chk := func(r Row) float64 { return r.CheckedModelMs - r.BaseModelMs }
	for _, r := range rows {
		if r.BaseModelMs <= 0 || chk(r) <= 0 {
			t.Fatalf("p=%d: makespans %.4f -> %.4f ms: the checker must add to a positive base", r.P, r.BaseModelMs, r.CheckedModelMs)
		}
		if r.P >= 64 && chk(r) >= r.BaseModelMs {
			t.Errorf("p=%d: checker increment %.3f ms not below the job's %.3f ms", r.P, chk(r), r.BaseModelMs)
		}
	}
	ratio := func(r Row) float64 { return r.CheckedModelMs / r.BaseModelMs }
	if ratio(rows[2]) >= ratio(rows[0]) {
		t.Errorf("modeled overhead ratio did not shrink: %.3f at p=8 vs %.3f at p=512", ratio(rows[0]), ratio(rows[2]))
	}
	// alpha*log p: log2 512 / log2 8 = 3, so the increment triples —
	// nowhere near the 64x of anything linear in p.
	if growth := chk(rows[2]) / chk(rows[0]); growth > 4 {
		t.Errorf("checker increment grew %.1fx from p=8 to p=512; want logarithmic growth", growth)
	}
}

func TestRenderModeled(t *testing.T) {
	rows := []Row{{P: 8, BaseModelMs: 1, CheckedModelMs: 1.1}}
	s := ModeledTable().Render(rows)
	if !strings.Contains(s, "checked/off") || !strings.Contains(s, "0.1000") || !strings.Contains(s, "1.1000") {
		t.Errorf("modeled rendering incomplete:\n%s", s)
	}
	if strings.Contains(s, "per-stage breakdown") {
		t.Error("modeled rendering must not carry wall-clock stage times: its output is deterministic")
	}
}

func TestCommVolumeStageBreakdown(t *testing.T) {
	opt := DefaultCommVolume()
	opt.Points = []Point{{2, 1500}}
	opt.Seed = 21
	rows, err := Sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	stages := rows[0].Stages
	if len(stages) != 1 || stages[0].Op != "ReduceByKey" {
		t.Fatalf("unexpected stage breakdown: %+v", stages)
	}
	st := stages[0]
	if st.Verdict != repro.VerdictPass {
		t.Errorf("stage %s verdict %s", st.Stage, st.Verdict)
	}
	if st.CheckerBytes <= 0 || st.CheckerRounds <= 0 {
		t.Errorf("stage %s missing checker accounting: %+v", st.Stage, st)
	}
	// The totals columns describe the same run as the breakdown.
	if rows[0].OpBytes != st.OpBytes || rows[0].CheckerBytes != st.CheckerBytes || rows[0].CheckerRounds != st.CheckerRounds {
		t.Errorf("volume totals diverged from the stage breakdown: %+v vs %+v", rows[0], st)
	}
	out := VolumeTable().Render(rows)
	if !strings.Contains(out, "per-stage breakdown, p=2 n=3000") || !strings.Contains(out, "ReduceByKey#0") {
		t.Errorf("volume rendering lacks the stage breakdown:\n%s", out)
	}
}

func TestWeakScalingStageBreakdown(t *testing.T) {
	opt := DefaultFig4()
	opt.Points = Grid([]int{1, 2}, 1500)
	opt.Repeats = 1
	opt.Seed = 23
	rows, err := Sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(core.ScalingConfigs()) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.Stages) != 1 || r.Stages[0].Op != "ReduceByKey" {
			t.Fatalf("row p=%d missing checked-run breakdown: %+v", r.P, r.Stages)
		}
	}
	out := Fig4Table().Render(rows)
	if !strings.Contains(out, "per-stage breakdown, p=2") {
		t.Error("scaling rendering lacks the largest-P stage breakdown")
	}
	if strings.Contains(out, "per-stage breakdown, p=1") {
		t.Error("scaling rendering should only break down the largest P")
	}
}

// TestSweepDeferredCountsTheBatchedVerify: in deferred mode the stage
// itself sends no checker traffic — the Row's checker columns must
// still carry it, from the batched Verify.
func TestSweepDeferredCountsTheBatchedVerify(t *testing.T) {
	opt := SweepOptions{Points: Grid([]int{4}, 1000), Configs: smallConfig, Seed: 3}
	eager, err := Sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Mode = repro.CheckDeferred
	deferred, err := Sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	e, d := eager[0], deferred[0]
	if d.CheckerBytes <= 0 || d.CheckerRounds <= 0 || d.CheckerMsgs <= 0 {
		t.Fatalf("deferred row lost the batched Verify's traffic: %+v", d)
	}
	if d.OpBytes != e.OpBytes {
		t.Errorf("op bytes differ between modes: eager %d, deferred %d", e.OpBytes, d.OpBytes)
	}
}

// TestSweepRowFeedsAllThreeTables: one simnet point is everything fig4,
// commvolume and modeled print — which is what makes "commvolume's
// checker bytes are fig4's" checkable at all — and everything but the
// wall-clock columns is bit-identical on a rerun.
func TestSweepRowFeedsAllThreeTables(t *testing.T) {
	run := func() Row {
		t.Helper()
		rows, err := Sweep(modeledSmall(8))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("got %d rows", len(rows))
		}
		return rows[0]
	}
	a, b := run(), run()
	for _, tab := range []Table{Fig4Table(), VolumeTable(), ModeledTable()} {
		out := tab.Render([]Row{a})
		lines := strings.Split(out, "\n")
		if len(lines) < 4 || len(strings.Fields(lines[3])) == 0 {
			t.Fatalf("%s: no data line:\n%s", tab.title, out)
		}
		for _, c := range tab.cols {
			if !strings.Contains(lines[2], c.head) {
				t.Errorf("%s: header line %q lacks column %q", tab.title, lines[2], c.head)
			}
		}
	}
	// The same Row backs fig4's breakdown and commvolume's totals.
	if len(a.Stages) != 1 || a.Stages[0].CheckerBytes != a.CheckerBytes || a.CheckerBytes <= 0 {
		t.Errorf("fig4's per-stage checker bytes %+v differ from commvolume's column %d", a.Stages, a.CheckerBytes)
	}
	if a.BaseModelMs <= 0 || a.CheckedModelMs <= a.BaseModelMs {
		t.Errorf("virtual makespans %.4f -> %.4f ms: checking must add to a positive base", a.BaseModelMs, a.CheckedModelMs)
	}
	if a.BaseSec <= 0 || a.CheckedSec <= 0 {
		t.Errorf("wall columns unset: %+v", a)
	}
	// Deterministic columns: compare with the wall-clock fields blanked.
	blank := func(r Row) Row {
		r.BaseSec, r.CheckedSec = 0, 0
		r.Stages = slices.Clone(r.Stages)
		for i := range r.Stages {
			r.Stages[i].OpNs, r.Stages[i].CheckNs = 0, 0
		}
		return r
	}
	if x, y := blank(a), blank(b); !reflect.DeepEqual(x, y) {
		t.Errorf("rerun differs beyond wall time:\n%+v\n%+v", x, y)
	}
}

// TestTableHeadersMatchREADME is the golden test of the three column
// lists: README's "Reproducing the paper's evaluation" documents each
// table's fields as `a` · `b` · …, in print order.
func TestTableHeadersMatchREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for name, tab := range map[string]Table{"fig4": Fig4Table(), "commvolume": VolumeTable(), "modeled": ModeledTable()} {
		heads := make([]string, len(tab.cols))
		for i, c := range tab.cols {
			heads[i] = c.head
		}
		want := "| `" + name + "` | `" + strings.Join(heads, "` · `") + "` |"
		if !strings.Contains(string(readme), want) {
			t.Errorf("README does not document %s's columns as printed; want the line\n%s", name, want)
		}
	}
}
