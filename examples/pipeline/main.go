// Pipeline: a multi-stage analytics job — zip two metric streams,
// aggregate averages, medians and minima per sensor — expressed on the
// Context/Dataset API with deferred verification: every stage
// registers its checker, a mid-pipeline ctx.Verify() resolves the
// first two stages' checkers in one batched round, and the final
// ctx.Verify() resolves the rest. Runs over real TCP sockets to show
// the framework is transport agnostic, and prints the per-stage stats
// the Context records.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/workload"
)

const (
	pes     = 3
	samples = 30000
	sensors = 50
)

func main() {
	// Two parallel streams: sensor ids and their readings, recorded by
	// different subsystems and therefore distributed differently.
	sensorIDs := make([]uint64, samples)
	readings := workload.UniformU64s(samples, 1000, 11)
	ids := workload.ZipfPairs(samples, sensors, 0, 12)
	for i := range sensorIDs {
		sensorIDs[i] = ids[i].Key
	}

	net, err := comm.NewTCPNetwork(pes)
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()

	opts := repro.DefaultOptions()
	opts.Mode = repro.CheckDeferred
	err = dist.RunNetwork(net, 1, func(w *dist.Worker) error {
		ctx, err := repro.NewContext(w, opts)
		if err != nil {
			return err
		}
		s, e := data.SplitEven(samples, pes, w.Rank())
		// Give the readings a different, skewed distribution.
		var rdLocal []uint64
		switch w.Rank() {
		case 0:
			rdLocal = readings[:samples/2]
		case 1:
			rdLocal = readings[samples/2 : samples/2+samples/4]
		default:
			rdLocal = readings[samples/2+samples/4:]
		}

		// Stage 1: zip sensor ids with readings (Theorem 11).
		zipped := ctx.Seq(sensorIDs[s:e]).Zip(ctx.Seq(rdLocal))

		// Stage 2: per-sensor average (Corollary 8 — the count
		// certificate falls out of the triple representation).
		averages, err := zipped.AverageByKey()
		if err != nil {
			return err
		}

		// Zip and average are done: settle their checkers in one
		// batched round before the later stages build on them.
		if err := ctx.Verify(); err != nil {
			return err
		}

		// Stage 3: per-sensor median (tie certificates, Theorem 10 —
		// readings repeat, so ties are everywhere).
		medians, err := zipped.MedianByKey()
		if err != nil {
			return err
		}

		// Stage 4: per-sensor minimum (deterministically checked with
		// the witness certificate, Theorem 9).
		mins, err := zipped.MinByKey()
		if err != nil {
			return err
		}

		// One batched round resolves the remaining checkers.
		if err := ctx.Verify(); err != nil {
			return err
		}

		if w.Rank() == 0 {
			// Medians and minima are replicated everywhere; averages
			// stay distributed, so PE 0 reports its own share.
			med := make(map[uint64]float64, len(medians))
			for _, m := range medians {
				med[m.Key] = float64(m.Value) / 2
			}
			min := make(map[uint64]uint64, len(mins.Result))
			for _, pr := range mins.Result {
				min[pr.Key] = pr.Value
			}
			fmt.Printf("pipeline over TCP checked end to end: %d sensors\n", len(mins.Result))
			fmt.Println("sensor  avg      median  min   (PE 0's share)")
			for i, t := range averages {
				if i == 5 {
					break
				}
				avg := float64(t.Value) / float64(t.Count)
				fmt.Printf("%6d  %7.2f %7.1f %4d\n", t.Key, avg, med[t.Key], min[t.Key])
			}
			fmt.Println("\nper-stage stats (PE 0):")
			fmt.Printf("%-16s %10s %10s %10s %10s  %s\n", "stage", "in", "out", "op bytes", "chk words", "verdict")
			for _, st := range ctx.Stats() {
				fmt.Printf("%-16s %10d %10d %10d %10d  %s\n",
					st.Stage, st.ElementsIn, st.ElementsOut, st.OpBytes, st.BatchWords, st.Verdict)
			}
			for _, vs := range ctx.VerifySummaries() {
				fmt.Printf("verify: %d stages resolved in %d collective rounds, %d bytes sent by PE 0\n",
					vs.Stages, vs.Rounds, vs.Bytes)
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
