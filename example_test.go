package repro_test

import (
	"errors"
	"fmt"
	"log"

	"repro"
	"repro/internal/data"
)

// ExampleDataset_ReduceByKey aggregates values per key on four PEs with
// the sum checker attached; the result is provably correct up to the
// checker's failure probability (< 1.3e-9 with default options).
func ExampleDataset_ReduceByKey() {
	global := []repro.Pair{
		{Key: 1, Value: 10}, {Key: 2, Value: 5},
		{Key: 1, Value: 7}, {Key: 2, Value: 1},
	}
	total := make(chan uint64, 1)
	err := repro.Run(4, 42, func(w *repro.Worker) error {
		s, e := data.SplitEven(len(global), w.Size(), w.Rank())
		ctx, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		out, err := ctx.Pairs(global[s:e]).ReduceByKey(repro.SumFn).Collect()
		if err != nil {
			return err
		}
		// Collect key 1's sum at its owning PE.
		for _, pr := range out {
			if pr.Key == 1 {
				total <- pr.Value
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sum of key 1:", <-total)
	// Output: sum of key 1: 17
}

// ExampleSeq_Sort sorts a distributed sequence; the checker verifies
// the output is a sorted permutation of the input.
func ExampleSeq_Sort() {
	global := []uint64{9, 3, 7, 1, 8, 2, 6, 4}
	shares := make([][]uint64, 2)
	err := repro.Run(2, 7, func(w *repro.Worker) error {
		s, e := data.SplitEven(len(global), w.Size(), w.Rank())
		ctx, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		out, err := ctx.Seq(global[s:e]).Sort().Collect()
		if err != nil {
			return err
		}
		shares[w.Rank()] = out
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(append(shares[0], shares[1]...))
	// Output: [1 2 3 4 6 7 8 9]
}

// ExampleNewContext chains checked operations on the pipeline API in
// deferred mode: both stages' checkers resolve in one batched
// collective round at Verify, and the stats name each stage's verdict.
func ExampleNewContext() {
	pairs := []repro.Pair{
		{Key: 1, Value: 10}, {Key: 2, Value: 5},
		{Key: 1, Value: 7}, {Key: 2, Value: 1},
	}
	seq := []uint64{9, 3, 7, 1}
	err := repro.Run(2, 42, func(w *repro.Worker) error {
		opts := repro.DefaultOptions()
		opts.Mode = repro.CheckDeferred
		ctx, err := repro.NewContext(w, opts)
		if err != nil {
			return err
		}
		s, e := data.SplitEven(len(pairs), w.Size(), w.Rank())
		if _, err := ctx.Pairs(pairs[s:e]).ReduceByKey(repro.SumFn).Collect(); err != nil {
			return err
		}
		s, e = data.SplitEven(len(seq), w.Size(), w.Rank())
		if _, err := ctx.Seq(seq[s:e]).Sort().Collect(); err != nil {
			return err
		}
		if err := ctx.Verify(); err != nil { // one batched round for both stages
			return err
		}
		if w.Rank() == 0 {
			for _, st := range ctx.Stats() {
				fmt.Println(st.Stage, st.Verdict)
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// ReduceByKey#0 pass
	// Sort#1 pass
}

// ExampleContext_AssertSum verifies an asserted aggregation produced
// elsewhere — the pure checker in pipeline form. A corrupted assertion
// is rejected.
func ExampleContext_AssertSum() {
	input := []repro.Pair{{Key: 5, Value: 2}, {Key: 5, Value: 3}}
	wrong := []repro.Pair{{Key: 5, Value: 6}} // should be 5
	err := repro.Run(2, 1, func(w *repro.Worker) error {
		var in, out []repro.Pair
		if w.Rank() == 0 {
			in, out = input, wrong
		}
		ctx, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		err = ctx.AssertSum(in, out)
		if err != nil && !errors.Is(err, repro.ErrCheckFailed) {
			return err
		}
		if w.Rank() == 0 {
			fmt.Println("accepted:", err == nil)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output: accepted: false
}

// ExampleContext_StreamPairs verifies a sum aggregation over a
// generator-backed stream: 100 000 pairs per PE are produced and
// discarded chunk by chunk — only 1000 elements are ever resident —
// while the checker accumulates its constant-size state.
func ExampleContext_StreamPairs() {
	const n, chunk, keys = 100_000, 1_000, 10
	// The asserted result: key k owns the sum of all values v = r*n + i
	// with i%keys == k, over both PEs' streams; PE 0 holds it.
	sums := make([]uint64, keys)
	for r := 0; r < 2; r++ {
		for i := 0; i < n; i++ {
			sums[i%keys] += uint64(r*n + i)
		}
	}
	asserted := make([]repro.Pair, keys)
	for k, s := range sums {
		asserted[k] = repro.Pair{Key: uint64(k), Value: s}
	}
	report := make(chan string, 1)
	err := repro.Run(2, 42, func(w *repro.Worker) error {
		ctx, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		input := generate(n, chunk, func(i int) repro.Pair {
			return repro.Pair{Key: uint64(i % keys), Value: uint64(w.Rank()*n + i)}
		})
		var out []repro.Pair
		if w.Rank() == 0 {
			out = asserted
		}
		if err := ctx.StreamPairs(input).AssertSum(repro.SlicePairs(out, 0)); err != nil {
			return err
		}
		if st := ctx.Stats()[0]; w.Rank() == 0 {
			report <- fmt.Sprintf("verified %d streamed elements in %d chunks, peak resident %d",
				st.ElementsIn, st.Chunks, st.PeakResident)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(<-report)
	// Output: verified 100000 streamed elements in 101 chunks, peak resident 1000
}
