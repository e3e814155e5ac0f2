package exp

import (
	"fmt"
	"slices"
	"strings"

	"repro"
)

// bottleneckStages folds per-PE CheckStats into one entry per pipeline
// stage: entry i of every PE's slice describes the same stage (the SPMD
// contract), so the fold is element-wise — communication figures and
// wall times become maxima over PEs (the paper's bottleneck metric; the
// straggler defines the stage), names and the verdict are PE 0's, all
// PEs agreeing by construction.
func bottleneckStages(perPE [][]repro.CheckStats) []repro.CheckStats {
	if len(perPE) == 0 {
		return nil
	}
	out := slices.Clone(perPE[0])
	for _, stats := range perPE[1:] {
		for i, st := range stats[:min(len(stats), len(out))] {
			r := &out[i]
			r.ElementsIn = max(r.ElementsIn, st.ElementsIn)
			r.ElementsOut = max(r.ElementsOut, st.ElementsOut)
			r.OpBytes = max(r.OpBytes, st.OpBytes)
			r.OpNs = max(r.OpNs, st.OpNs)
			r.CheckerBytes = max(r.CheckerBytes, st.CheckerBytes)
			r.CheckerMsgs = max(r.CheckerMsgs, st.CheckerMsgs)
			r.CheckerRounds = max(r.CheckerRounds, st.CheckerRounds)
			r.BatchWords = max(r.BatchWords, st.BatchWords)
			r.CheckNs = max(r.CheckNs, st.CheckNs)
			r.Chunks = max(r.Chunks, st.Chunks)
			r.PeakResident = max(r.PeakResident, st.PeakResident)
		}
	}
	return out
}

// renderStages prints a per-stage CheckStats breakdown — op versus
// checker bytes, collective rounds, wall times, and (for streaming
// stages) chunk metering — indented under the table it details.
func renderStages(rows []repro.CheckStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-16s %10s %10s %10s %12s %7s %6s %9s %9s %8s %8s %9s\n",
		"stage", "elems in", "elems out", "op bytes", "check bytes", "rounds", "batchW",
		"op ms", "check ms", "chunks", "peak", "verdict")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-16s %10d %10d %10d %12d %7d %6d %9.2f %9.2f %8d %8d %9s\n",
			r.Stage, r.ElementsIn, r.ElementsOut, r.OpBytes, r.CheckerBytes, r.CheckerRounds,
			r.BatchWords, float64(r.OpNs)/1e6, float64(r.CheckNs)/1e6, r.Chunks, r.PeakResident, r.Verdict)
	}
	return b.String()
}
