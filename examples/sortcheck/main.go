// Sortcheck: a distributed sample sort verified by the sort checker via
// the pipeline API, and a deliberately buggy sorter — it forgets to
// merge the runs it receives — caught red-handed by the pure checker
// entry (Context.AssertSorted). Also demonstrates the polynomial
// permutation checker variants (Lemma 5).
package main

import (
	"errors"
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/workload"
)

const (
	pes = 4
	n   = 400000
)

// buggySort is a sample sort without its last step, ordering what a PE
// receives. ops.Sort exchanges unsorted elements and orders them with
// one local sort afterwards; this one sorts before the exchange, so
// what arrives is one sorted run per peer, and it returns the runs
// concatenated, never merged into one order — the classic "works on my
// single-node test" bug.
func buggySort(w *dist.Worker, local []uint64) ([]uint64, error) {
	mine := data.CloneU64s(local)
	data.SortU64(mine)
	if w.Size() == 1 {
		return mine, nil // single PE hides the bug
	}
	// Splitters from 16 sample values per PE, as many as ops.Sort takes.
	sample := make([]uint64, 0, 16)
	for i := 0; i < 16 && len(mine) > 0; i++ {
		sample = append(sample, mine[i*len(mine)/16])
	}
	parts, err := w.Coll.AllGather(sample)
	if err != nil {
		return nil, err
	}
	var all []uint64
	for _, ws := range parts {
		all = append(all, ws...)
	}
	data.SortU64(all)
	splitters := make([]uint64, 0, w.Size()-1)
	for i := 1; i < w.Size(); i++ {
		splitters = append(splitters, all[i*len(all)/w.Size()])
	}
	outParts := make([][]uint64, w.Size())
	start := 0
	for j := 0; j < w.Size()-1; j++ {
		end := start
		for end < len(mine) && mine[end] < splitters[j] {
			end++
		}
		outParts[j] = mine[start:end]
		start = end
	}
	outParts[w.Size()-1] = mine[start:]
	got, err := w.Coll.AllToAll(outParts)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, run := range got {
		out = append(out, run...) // BUG: concatenate, never merge
	}
	return out, nil
}

func main() {
	global := workload.UniformU64s(n, 1e8, 3)

	fmt.Printf("sorting %d uniform integers on %d PEs with the sort checker\n", n, pes)
	err := repro.Run(pes, 1, func(w *repro.Worker) error {
		ctx, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		s, e := data.SplitEven(len(global), pes, w.Rank())
		out, err := ctx.Seq(global[s:e]).Sort().Collect()
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			fmt.Printf("checker accepted; PE 0 holds %d elements, smallest %d\n", len(out), out[0])
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nrunning a buggy sorter that forgets to merge received runs...")
	err = repro.Run(pes, 2, func(w *repro.Worker) error {
		ctx, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		s, e := data.SplitEven(len(global), pes, w.Rank())
		local := global[s:e]
		out, err := buggySort(w, local)
		if err != nil {
			return err
		}
		aerr := ctx.AssertSorted(local, out)
		if aerr == nil {
			return fmt.Errorf("the checker missed the bug")
		}
		if !errors.Is(aerr, repro.ErrCheckFailed) {
			return aerr
		}
		if w.Rank() == 0 {
			fmt.Printf("sort checker rejected the buggy output: %v\n", aerr)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// The trusted-hash-free variants: prime-field and GF(2^64)
	// polynomial permutation checks of the same sort output.
	fmt.Println("\npolynomial permutation checkers (no trusted hash function):")
	err = repro.Run(pes, 4, func(w *repro.Worker) error {
		s, e := data.SplitEven(len(global), pes, w.Rank())
		local := global[s:e]
		sorted := data.CloneU64s(local)
		data.SortU64(sorted) // local stand-in for a permuted sequence
		// Shard the local polynomial products across this PE's cores;
		// the verdict is identical for any worker count.
		par := core.NewParallelAccumulator(0)
		okPoly, err := core.CheckPermutationPoly(w, core.PolyPermConfig{Iterations: 2}, par, local, sorted)
		if err != nil {
			return err
		}
		okGF, err := core.CheckPermutationGF(w, 2, par, local, sorted)
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			fmt.Printf("prime field F_(2^61-1): %v, GF(2^64) carry-less: %v\n", okPoly, okGF)
		}
		if !okPoly || !okGF {
			return fmt.Errorf("polynomial checker rejected a valid permutation")
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
