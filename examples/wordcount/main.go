// Wordcount — the workload the paper's power-law experiments model —
// with a checked distributed reduction on the pipeline API, a
// fault-injection demonstration, and a report of the checker's
// communication volume versus the operation's, read straight from the
// per-stage CheckStats the Context records.
package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"sort"

	"repro"
	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/workload"
)

const (
	pes        = 4
	totalWords = 200000
	vocabulary = 5000
)

func wordKey(w string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(w))
	return h.Sum64()
}

func main() {
	words := workload.Words(totalWords, vocabulary, 7)
	// Key each word by a 64-bit hash; remember the dictionary so we can
	// print words back.
	dict := make(map[uint64]string)
	global := make([]data.Pair, len(words))
	for i, w := range words {
		k := wordKey(w)
		dict[k] = w
		global[i] = data.Pair{Key: k, Value: 1}
	}

	// The checked wordcount: one pipeline stage; its CheckStats entry
	// meters operation and checker communication separately.
	counts := make(map[uint64]uint64)
	perPE := make([]repro.CheckStats, pes)
	err := repro.Run(pes, 1, func(w *repro.Worker) error {
		ctx, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		s, e := data.SplitEven(len(global), pes, w.Rank())
		out, err := ctx.Pairs(global[s:e]).ReduceByKey(repro.SumFn).Collect()
		if err != nil {
			return err
		}
		flat := make([]uint64, 0, 2*len(out))
		for _, pr := range out {
			flat = append(flat, pr.Key, pr.Value)
		}
		all, err := w.Coll.Gather(flat)
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			for _, ws := range all {
				for i := 0; i+2 <= len(ws); i += 2 {
					counts[ws[i]] = ws[i+1]
				}
			}
		}
		perPE[w.Rank()] = ctx.Stats()[0]
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	var opBytes, chkBytes int64
	for _, st := range perPE {
		if st.OpBytes > opBytes {
			opBytes = st.OpBytes
		}
		if st.CheckerBytes > chkBytes {
			chkBytes = st.CheckerBytes
		}
	}

	// Report the top words.
	type wc struct {
		word  string
		count uint64
	}
	var tops []wc
	for k, v := range counts {
		tops = append(tops, wc{dict[k], v})
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].count != tops[j].count {
			return tops[i].count > tops[j].count
		}
		return tops[i].word < tops[j].word
	})
	fmt.Printf("wordcount over %d words, %d distinct; top 5:\n", totalWords, len(tops))
	for _, t := range tops[:5] {
		fmt.Printf("  %-8s %6d\n", t.word, t.count)
	}
	fmt.Printf("\nbottleneck communication: operation %d bytes, checker %d bytes (%.2f%%)\n",
		opBytes, chkBytes, 100*float64(chkBytes)/float64(opBytes))

	// Fault injection: apply each Table 4 manipulator to the input the
	// "computation" sees and show the checker's verdicts.
	fmt.Println("\nfault injection (Table 4 manipulators):")
	rng := hashing.NewMT19937_64(5)
	for _, m := range manipulate.PairManipulators() {
		bad := data.ClonePairs(global)
		if !m.Apply(bad, rng, vocabulary) {
			// SwitchValues cannot fault a count workload: every value
			// is 1, so there is nothing to switch.
			fmt.Printf("  %-14s not applicable to a count workload\n", m.Name)
			continue
		}
		badCounts := data.MapToPairs(data.PairsToMapSum(bad))
		caught := false
		err := repro.Run(pes, 3, func(w *repro.Worker) error {
			ctx, err := repro.NewContext(w, repro.DefaultOptions())
			if err != nil {
				return err
			}
			s, e := data.SplitEven(len(global), pes, w.Rank())
			bs, be := data.SplitEven(len(badCounts), pes, w.Rank())
			aerr := ctx.AssertSum(global[s:e], badCounts[bs:be])
			if aerr != nil && !errors.Is(aerr, repro.ErrCheckFailed) {
				return aerr
			}
			if w.Rank() == 0 {
				caught = aerr != nil
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "DETECTED"
		if !caught {
			verdict = "missed (prob < 1.3e-9)"
		}
		fmt.Printf("  %-14s %s\n", m.Name, verdict)
	}
}
