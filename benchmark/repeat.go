package main

import (
	"fmt"
	"io"
	"slices"
)

// printRepeatability reports, for every metric of every workload and
// mode that ran, its values across the repetitions and their relative
// difference (max - min) / median — the number REPEATABILITY.md collects
// and the end-to-end bounds are derived from. End-to-end metrics are
// flagged when the difference exceeds their bound.
func printRepeatability(w io.Writer, all [][]*result) {
	fmt.Fprintf(w, "== repeatability over %d runs ==\n", len(all))
	bounds := specByName(endToEnd)
	for slot, first := range all[0] {
		table := endToEnd
		if first.Traced {
			table = perLayer
		}
		for _, m := range table {
			vals := make([]float64, 0, len(all))
			for _, rep := range all {
				if v, ok := rep[slot].Metrics[m.Name]; ok {
					vals = append(vals, v.Value)
				}
			}
			if len(vals) < 2 {
				continue
			}
			diff := ratio(slices.Max(vals)-slices.Min(vals), median(vals))
			flag := ""
			if b, ok := bounds[m.Name]; ok && !first.Traced && diff > b.Bound {
				flag = fmt.Sprintf("  EXCEEDS bound %.2f", b.Bound)
			}
			fmt.Fprintf(w, "  %-16s %-34s rel.diff %8.4f  values %v%s\n", first.Workload, m.Name, diff, vals, flag)
		}
	}
}
