package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/manipulate"
	"repro/internal/params"
)

// RenderTable1 prints the paper's Table 1 (main results) as implemented
// by this repository.
func RenderTable1() string {
	var b strings.Builder
	b.WriteString("Table 1: checker properties (paper's main results, as implemented)\n\n")
	fmt.Fprintf(&b, "%-28s %-10s %-12s %s\n", "Operation", "Bcast?", "Certificate", "Checker running time O(.)")
	line := strings.Repeat("-", 100)
	b.WriteString(line + "\n")
	rows := [][4]string{
		{"Sum/Count aggregation", "no", "no", "(n/p + beta*d*w) log_d(1/delta) + alpha log p"},
		{"Average aggregation", "no", "distributed", "same as above"},
		{"Median aggregation", "yes", "yes (ties)", "same as above"},
		{"Minimum aggregation", "yes", "yes", "n/p + alpha log p (deterministic)"},
		{"Permutation, Sort, Union,", "no", "no", "(n/(p*w) + beta) log(1/delta) + alpha log p"},
		{"Merge, Zip, GroupBy*, Join*", "", "", "(* invasive, redistribution phase)"},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %-10s %-12s %s\n", r[0], r[1], r[2], r[3])
	}
	return b.String()
}

// RenderTable2 prints the regenerated Table 2. Under each row, the
// "min vol" row is the paper's closed-form volume minimiser at the same
// delta (params.MinVolume: d = 2, rhat = 8, any b): what the row's
// fewer iterations cost in bits.
func RenderTable2(rows []params.Optimum) string {
	var b strings.Builder
	b.WriteString("Table 2: numerically optimal bucket count d and modulus parameter rhat\n\n")
	fmt.Fprintf(&b, "%8s %10s %6s %6s %6s %14s %10s\n", "b", "delta", "d", "rhat", "#its", "achieved", "bits used")
	for _, o := range rows {
		fmt.Fprintf(&b, "%8d %10.0e %6d %6s %6d %14.2e %10d\n",
			o.B, o.Delta, o.D, fmt.Sprintf("2^%d", o.RHatLog), o.Iterations, o.Achieved, o.SizeBits())
		mv := params.MinVolume(o.Delta)
		fmt.Fprintf(&b, "%8s %10s %6d %6s %6d %14.2e %10d\n",
			"min vol", "", mv.D, fmt.Sprintf("2^%d", mv.RHatLog), mv.Iterations, mv.Achieved, mv.SizeBits())
	}
	return b.String()
}

// RenderTable3 prints the configuration table with derived columns.
func RenderTable3() string {
	var b strings.Builder
	b.WriteString("Table 3: sum aggregation checker configurations\n\n")
	fmt.Fprintf(&b, "%-20s %12s %14s\n", "Configuration", "Table bits", "Failure rate")
	b.WriteString("-- accuracy set (Fig. 3) --\n")
	for _, cfg := range core.AccuracyConfigs() {
		fmt.Fprintf(&b, "%-20s %12d %14.2e\n", cfg.Name(), cfg.TableBits(), cfg.AchievedDelta())
	}
	b.WriteString("-- scaling set (Fig. 4 / Table 5) --\n")
	for _, cfg := range core.ScalingConfigs() {
		fmt.Fprintf(&b, "%-20s %12d %14.2e\n", cfg.Name(), cfg.TableBits(), cfg.AchievedDelta())
	}
	return b.String()
}

// RenderTable4 lists the sum aggregation manipulators.
func RenderTable4() string {
	var b strings.Builder
	b.WriteString("Table 4: manipulators for the sum aggregation checker\n\n")
	for _, m := range manipulate.PairManipulators() {
		fmt.Fprintf(&b, "%-14s %s\n", m.Name, m.Desc)
	}
	return b.String()
}

// RenderTable6 lists the permutation/sort manipulators.
func RenderTable6() string {
	var b strings.Builder
	b.WriteString("Table 6: manipulators for the sort/permutation checker\n\n")
	for _, m := range manipulate.SeqManipulators() {
		fmt.Fprintf(&b, "%-12s %s\n", m.Name, m.Desc)
	}
	return b.String()
}

// RenderAccuracy prints Fig. 3 / Fig. 5 rows as a matrix of
// failure-rate/delta ratios: manipulators as row blocks, configurations
// as lines (matching the paper's plot layout) — the order the sweeps
// generate them in.
func RenderAccuracy(title string, rows []AccuracyRow) string {
	var b strings.Builder
	b.WriteString(title + "\n\n")
	for i, r := range rows {
		if i == 0 || r.Manipulator != rows[i-1].Manipulator {
			fmt.Fprintf(&b, "[%s]\n", r.Manipulator)
			fmt.Fprintf(&b, "  %-20s %9s %10s %10s %12s %8s\n", "config", "runs", "failures", "rate", "delta", "rate/d")
		}
		fmt.Fprintf(&b, "  %-20s %9d %10d %10.2e %12.2e %8.3f\n",
			r.Config, r.Runs, r.Failures, r.Rate, r.Delta, r.Ratio)
	}
	return b.String()
}

// RenderOverhead prints Table 5 or Section 7.2 rows under title, the
// first column headed head.
func RenderOverhead(title, head string, rows []OverheadRow) string {
	var b strings.Builder
	b.WriteString(title + "\n\n")
	fmt.Fprintf(&b, "%-22s %12s %16s\n", head, "elements", "ns per element")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %12d %16.2f\n", r.Config, r.Elements, r.NsPerElement)
	}
	return b.String()
}

// column is one column of a sweep table: header, width (negative is
// left-aligned) and the cell a Row renders to.
type column struct {
	head  string
	width int
	cell  func(Row) string
}

func intCol(head string, width int, v func(Row) int64) column {
	return column{head, width, func(r Row) string { return fmt.Sprintf("%d", v(r)) }}
}

func floatCol(head string, width, prec int, v func(Row) float64) column {
	return column{head, width, func(r Row) string { return fmt.Sprintf("%.*f", prec, v(r)) }}
}

// Table is one view of the pipeline sweep's rows: fig4, commvolume and
// modeled differ only in their column lists and in whether the
// per-stage breakdown (whose wall times vary from run to run) follows.
type Table struct {
	title  string
	cols   []column
	stages bool
}

// Fig4Table is Fig. 4: wall time with the checker over time without.
func Fig4Table() Table {
	return Table{"Fig. 4: weak scaling — time with checker / time without", []column{
		intCol("PEs", 6, func(r Row) int64 { return int64(r.P) }),
		{"config", -20, func(r Row) string { return r.Config }},
		floatCol("base (s)", 12, 4, func(r Row) float64 { return r.BaseSec }),
		floatCol("checked (s)", 12, 4, func(r Row) float64 { return r.CheckedSec }),
		floatCol("ratio", 8, 3, func(r Row) float64 { return r.CheckedSec / r.BaseSec }),
	}, true}
}

// VolumeTable is the communication-volume audit: the operation's
// bottleneck volume grows with n while the checker's stays constant —
// o(n/p), the Section 1 criterion.
func VolumeTable() Table {
	return Table{"Bottleneck communication volume: operation vs checker (bytes, max over PEs)", []column{
		intCol("n", 10, func(r Row) int64 { return int64(r.P) * int64(r.ItemsPerPE) }),
		intCol("p", 4, func(r Row) int64 { return int64(r.P) }),
		intCol("op bytes", 14, func(r Row) int64 { return r.OpBytes }),
		intCol("checker bytes", 16, func(r Row) int64 { return r.CheckerBytes }),
		intCol("checker msgs", 14, func(r Row) int64 { return r.CheckerMsgs }),
		intCol("table bits", 12, func(r Row) int64 { return int64(r.TableBits) }),
	}, true}
}

// ModeledTable is the modeled weak-scaling experiment: the job's
// communication makespan under the alpha-beta model of Section 2 with
// checking off and on. The checker column is their difference — what
// the checker's messages add to the critical path, which should grow as
// alpha*log p while the operation's share grows with the exchanged
// volume: the separation behind Fig. 4's flat overhead curves.
func ModeledTable() Table {
	return Table{"Modeled communication makespan of the job (alpha-beta model, Section 2), checking off vs on", []column{
		intCol("PEs", 6, func(r Row) int64 { return int64(r.P) }),
		floatCol("CheckOff (ms)", 16, 4, func(r Row) float64 { return r.BaseModelMs }),
		floatCol("checked (ms)", 16, 4, func(r Row) float64 { return r.CheckedModelMs }),
		floatCol("checker (ms)", 16, 4, func(r Row) float64 { return r.CheckedModelMs - r.BaseModelMs }),
		floatCol("checked/off", 12, 4, func(r Row) float64 { return r.CheckedModelMs / r.BaseModelMs }),
	}, false}
}

// Render is the one column printer: the title, one line per row, and —
// for tables that carry it — the per-stage CheckStats breakdown of the
// last point's rows (every row has one; printing all would drown the
// table).
func (t Table) Render(rows []Row) string {
	var b strings.Builder
	b.WriteString(t.title + "\n\n")
	line := func(cell func(column) string) {
		for i, c := range t.cols {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%*s", c.width, cell(c))
		}
		b.WriteByte('\n')
	}
	line(func(c column) string { return c.head })
	for _, r := range rows {
		line(func(c column) string { return c.cell(r) })
	}
	if !t.stages || len(rows) == 0 {
		return b.String()
	}
	last := rows[len(rows)-1]
	for _, r := range rows {
		if r.P != last.P || r.ItemsPerPE != last.ItemsPerPE {
			continue
		}
		fmt.Fprintf(&b, "\nper-stage breakdown, p=%d n=%d %s (bottleneck over PEs; %d checker rounds in all):\n",
			r.P, r.P*r.ItemsPerPE, r.Config, r.CheckerRounds)
		b.WriteString(renderStages(r.Stages))
	}
	return b.String()
}
