package exp

import (
	"fmt"
	"sort"
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

// RenderTable2 prints the regenerated Table 2.
func RenderTable2(rows []params.Optimum) string {
	var b strings.Builder
	b.WriteString("Table 2: numerically optimal bucket count d and modulus parameter rhat\n\n")
	fmt.Fprintf(&b, "%8s %10s %6s %6s %6s %14s %10s\n", "b", "delta", "d", "rhat", "#its", "achieved", "bits used")
	for _, o := range rows {
		fmt.Fprintf(&b, "%8d %10.0e %6d %6s %6d %14.2e %10d\n",
			o.B, o.Delta, o.D, fmt.Sprintf("2^%d", o.RHatLog), o.Iterations, o.Achieved, o.SizeBits())
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
	desc := map[string]string{
		"Bitflip":      "flips a random bit in the input",
		"RandKey":      "randomises the key of a random element",
		"SwitchValues": "switches the values of two random elements",
		"IncKey":       "increments the key of a random element",
		"IncDec1":      "increments one key, decrements another (n=1)",
		"IncDec2":      "increments two keys, decrements two others (n=2)",
	}
	for _, m := range manipulate.PairManipulators() {
		fmt.Fprintf(&b, "%-14s %s\n", m.Name, desc[m.Name])
	}
	return b.String()
}

// RenderTable6 lists the permutation/sort manipulators.
func RenderTable6() string {
	var b strings.Builder
	b.WriteString("Table 6: manipulators for the sort/permutation checker\n\n")
	desc := map[string]string{
		"Bitflip":   "flips a random bit in the input",
		"Increment": "increments some element's value",
		"Randomize": "sets some element to a random value",
		"Reset":     "resets some element to the default value (0)",
		"SetEqual":  "sets some element equal to a different one",
	}
	for _, m := range manipulate.SeqManipulators() {
		fmt.Fprintf(&b, "%-12s %s\n", m.Name, desc[m.Name])
	}
	return b.String()
}

// RenderAccuracy prints Fig. 3 / Fig. 5 rows as a matrix of
// failure-rate/delta ratios: manipulators as row blocks, configurations
// as lines (matching the paper's plot layout).
func RenderAccuracy(title string, rows []AccuracyRow) string {
	var b strings.Builder
	b.WriteString(title + "\n\n")
	byManip := map[string][]AccuracyRow{}
	var manipOrder []string
	for _, r := range rows {
		if _, seen := byManip[r.Manipulator]; !seen {
			manipOrder = append(manipOrder, r.Manipulator)
		}
		byManip[r.Manipulator] = append(byManip[r.Manipulator], r)
	}
	for _, m := range manipOrder {
		fmt.Fprintf(&b, "[%s]\n", m)
		fmt.Fprintf(&b, "  %-20s %9s %10s %10s %12s %8s\n", "config", "runs", "failures", "rate", "delta", "rate/d")
		rs := byManip[m]
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Config < rs[j].Config })
		for _, r := range rs {
			fmt.Fprintf(&b, "  %-20s %9d %10d %10.2e %12.2e %8.3f\n",
				r.Config, r.Runs, r.Failures, r.Rate, r.Delta, r.Ratio)
		}
	}
	return b.String()
}

// RenderScaling prints Fig. 4 rows, followed by the per-stage
// CheckStats breakdown of the checked run at the largest PE count per
// configuration (all rows carry one; rendering every P would drown the
// totals table).
func RenderScaling(rows []ScalingRow) string {
	var b strings.Builder
	b.WriteString("Fig. 4: weak scaling — time with checker / time without\n\n")
	fmt.Fprintf(&b, "%6s %-20s %12s %12s %8s\n", "PEs", "config", "base (s)", "checked (s)", "ratio")
	maxP := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %-20s %12.4f %12.4f %8.3f\n", r.P, r.Config, r.BaseSec, r.CheckSec, r.Ratio)
		if r.P > maxP {
			maxP = r.P
		}
	}
	for _, r := range rows {
		if r.P != maxP || len(r.Stages) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\nper-stage breakdown, p=%d %s (bottleneck over PEs; +%d batched verify rounds):\n",
			r.P, r.Config, r.Rounds)
		b.WriteString(RenderStages(r.Stages))
	}
	return b.String()
}

// RenderOverhead prints Table 5 rows.
func RenderOverhead(rows []OverheadRow) string {
	var b strings.Builder
	b.WriteString("Table 5: sum aggregation checker local processing overhead\n\n")
	fmt.Fprintf(&b, "%-22s %12s %16s\n", "Configuration", "elements", "ns per element")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %12d %16.2f\n", r.Config, r.Elements, r.NsPerElement)
	}
	return b.String()
}

// RenderPermOverhead prints the Section 7.2 running-time rows.
func RenderPermOverhead(rows []PermOverheadRow) string {
	var b strings.Builder
	b.WriteString("Section 7.2: permutation/sort checker local overhead\n\n")
	fmt.Fprintf(&b, "%-18s %12s %16s\n", "Hash", "elements", "ns per element")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %12d %16.2f\n", r.Hash, r.Elements, r.NsPerElement)
	}
	return b.String()
}

// RenderVolume prints the communication-volume audit: the totals table
// (the sublinearity claim, reduce stage only) followed by each input
// size's per-stage CheckStats breakdown over the whole pipeline.
func RenderVolume(rows []VolumeRow) string {
	var b strings.Builder
	b.WriteString("Bottleneck communication volume: operation vs checker (bytes, max over PEs)\n\n")
	fmt.Fprintf(&b, "%10s %4s %14s %16s %14s %12s\n", "n", "p", "op bytes", "checker bytes", "checker msgs", "table bits")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %4d %14d %16d %14d %12d\n", r.N, r.P, r.OpBytes, r.CheckerBytes, r.CheckerMsgs, r.TableBits)
	}
	for _, r := range rows {
		if len(r.Stages) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\nper-stage breakdown, n=%d (bottleneck over PEs):\n", r.N)
		b.WriteString(RenderStages(r.Stages))
	}
	return b.String()
}
