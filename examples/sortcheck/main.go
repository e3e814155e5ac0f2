// Sortcheck: a distributed sample sort verified by the sort checker via
// the pipeline API, and a deliberately buggy sorter — it forgets to
// merge the runs it receives — caught red-handed by the pure checker
// entry (Context.AssertSorted). Then a radix-sort digit fault — one
// byte position swapped between two elements (manipulate.Rectangle) —
// checked by the default permutation checker, Lemma 5's product.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/manipulate"
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

	fmt.Println("\npermutation checker on a radix-sort digit fault (one byte position swapped between two elements):")
	err = repro.Run(pes, 4, func(w *repro.Worker) error {
		seed, err := w.CommonSeed()
		if err != nil {
			return err
		}
		s, e := data.SplitEven(len(global), pes, w.Rank())
		local := global[s:e]
		out := data.CloneU64s(local)
		data.SortU64(out) // local stand-in for a permuted sequence
		if w.Rank() == 1 && !manipulate.Rectangle.Apply(out, hashing.NewMT19937_64(seed), 0) {
			return fmt.Errorf("no digit fault injected")
		}
		verdicts, err := core.Resolve(w,
			core.NewPermState("Lemma5", repro.DefaultOptions().Perm, seed, [][]uint64{local}, out))
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			fmt.Printf("default Lemma 5 product accepted: %v\n", verdicts[0])
		}
		if verdicts[0] {
			return fmt.Errorf("the product accepted a wrong permutation")
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
