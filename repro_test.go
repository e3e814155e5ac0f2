package repro

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/workload"
)

func shard(ps []Pair, p, r int) []Pair {
	s, e := data.SplitEven(len(ps), p, r)
	return ps[s:e]
}

func shardU(xs []uint64, p, r int) []uint64 {
	s, e := data.SplitEven(len(xs), p, r)
	return xs[s:e]
}

func TestReduceByKeyChecked(t *testing.T) {
	global := workload.ZipfPairs(3000, 300, 1000, 1)
	want := data.PairsToMapSum(global)
	const p = 4
	total := make(map[uint64]uint64)
	err := Run(p, 1, func(w *Worker) error {
		ctx, err := NewContext(w, DefaultOptions())
		if err != nil {
			return err
		}
		out, err := ctx.Pairs(shard(global, p, w.Rank())).ReduceByKey(SumFn).Collect()
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
					total[ws[i]] = ws[i+1]
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if total[k] != v {
			t.Fatalf("key %d: %d, want %d", k, total[k], v)
		}
	}
}

func TestSortChecked(t *testing.T) {
	global := workload.UniformU64s(3000, 1e9, 2)
	const p = 4
	err := Run(p, 1, func(w *Worker) error {
		ctx, err := NewContext(w, DefaultOptions())
		if err != nil {
			return err
		}
		out, err := ctx.Seq(shardU(global, p, w.Rank())).Sort().Collect()
		if err != nil {
			return err
		}
		if !data.IsSortedU64(out) {
			t.Errorf("rank %d share not sorted", w.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMergeAndUnionChecked(t *testing.T) {
	a := workload.UniformU64s(1000, 1e9, 3)
	b := workload.UniformU64s(1400, 1e9, 4)
	data.SortU64(a)
	data.SortU64(b)
	const p = 3
	err := Run(p, 1, func(w *Worker) error {
		ctx, err := NewContext(w, DefaultOptions())
		if err != nil {
			return err
		}
		la, lb := shardU(a, p, w.Rank()), shardU(b, p, w.Rank())
		if _, err := ctx.Seq(la).Merge(ctx.Seq(lb)).Collect(); err != nil {
			return err
		}
		_, err = ctx.Seq(la).Union(ctx.Seq(lb)).Collect()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZipChecked(t *testing.T) {
	a := workload.UniformU64s(2000, 1e9, 5)
	b := workload.UniformU64s(2000, 1e9, 6)
	const p = 4
	err := Run(p, 1, func(w *Worker) error {
		ctx, err := NewContext(w, DefaultOptions())
		if err != nil {
			return err
		}
		out, err := ctx.Seq(shardU(a, p, w.Rank())).Zip(ctx.Seq(shardU(b, p, w.Rank()))).Collect()
		if err != nil {
			return err
		}
		s, _ := data.SplitEven(len(a), p, w.Rank())
		for i, pr := range out {
			if pr.Key != a[s+i] || pr.Value != b[s+i] {
				t.Errorf("rank %d pair %d mismatched", w.Rank(), i)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMinMedianAverageChecked(t *testing.T) {
	global := workload.UniformPairs(2000, 25, 1000, 7)
	const p = 4
	err := Run(p, 1, func(w *Worker) error {
		ctx, err := NewContext(w, DefaultOptions())
		if err != nil {
			return err
		}
		local := shard(global, p, w.Rank())
		if _, err := ctx.Pairs(local).MinByKey(); err != nil {
			return err
		}
		if _, err := ctx.Pairs(local).MaxByKey(); err != nil {
			return err
		}
		medians, err := ctx.Pairs(local).MedianByKey()
		if err != nil {
			return err
		}
		if len(medians) == 0 {
			t.Error("no medians returned")
		}
		if _, err := ctx.Pairs(local).AverageByKey(); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJoinAndGroupByChecked(t *testing.T) {
	left := workload.UniformPairs(800, 40, 100, 8)
	right := workload.UniformPairs(600, 40, 100, 9)
	const p = 3
	err := Run(p, 1, func(w *Worker) error {
		ctx, err := NewContext(w, DefaultOptions())
		if err != nil {
			return err
		}
		if _, err := ctx.Pairs(shard(left, p, w.Rank())).Join(ctx.Pairs(shard(right, p, w.Rank()))); err != nil {
			return err
		}
		groups, err := ctx.Pairs(shard(left, p, w.Rank())).GroupByKey()
		if err != nil {
			return err
		}
		for i := 1; i < len(groups); i++ {
			if groups[i-1].Key >= groups[i].Key {
				t.Error("groups not sorted by key")
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckedWrapperSurfacesFaults corrupts one PE's share of a correct
// reduction, simulating a silent error inside the operation; the sum
// checker the stage uses must surface ErrCheckFailed.
func TestCheckedWrapperSurfacesFaults(t *testing.T) {
	global := workload.ZipfPairs(1000, 100, 100, 10)
	const p = 2
	err := Run(p, 1, func(w *Worker) error {
		local := shard(global, p, w.Rank())
		// Run the real operation, then corrupt this PE's output share
		// and verify directly via the checker the stage uses.
		ctx, err := NewContext(w, DefaultOptions())
		if err != nil {
			return err
		}
		out, err := ctx.Pairs(local).ReduceByKey(SumFn).Collect()
		if err != nil {
			return err
		}
		bad := data.ClonePairs(out)
		if w.Rank() == 0 && len(bad) > 0 {
			bad[0].Value += 99
		}
		okErr := checkAgainst(w, local, bad)
		if okErr == nil {
			t.Error("corrupted output accepted")
		} else if !errors.Is(okErr, ErrCheckFailed) {
			return okErr
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkAgainst runs the sum checker the way the ReduceByKey stage does.
func checkAgainst(w *Worker, input, output []Pair) error {
	ok, err := CheckSum(w, DefaultOptions(), input, output)
	if err != nil {
		return err
	}
	if !ok {
		return ErrCheckFailed
	}
	return nil
}

// TestDefaultOptionsAchieveDocumentedDelta holds every default checker
// configuration to the failure probability DefaultOptions' comment
// states, and the sum checker to the one ChooseSum picks for it. The
// figure was 1.4e-9 while the default was the literal 6×32 CRC m9
// (1.34e-9); whoever changes a default, or the figure, changes both
// here.
func TestDefaultOptionsAchieveDocumentedDelta(t *testing.T) {
	const documented = 1e-9
	want, err := core.ChooseSum(documented, hashing.FamilyCRC)
	if err != nil {
		t.Fatal(err)
	}
	if got := DefaultOptions().Sum; got.Name() != want.Name() {
		t.Errorf("DefaultOptions().Sum is %s, ChooseSum(%g, CRC) is %s", got.Name(), documented, want.Name())
	}
	opts := DefaultOptions()
	if got := opts.Sum.AchievedDelta(); got > documented {
		t.Errorf("Sum %s achieves delta %.3g, documented as at most %.3g", opts.Sum.Name(), got, documented)
	}
	if got := opts.Perm.Delta(); got > documented {
		t.Errorf("Perm %s achieves delta %.3g, documented as at most %.3g", opts.Perm.Name(), got, documented)
	}
	// One zip iteration errs with probability at most 1/H over the field
	// F_H, H = 2^61-1 (ZipConfig, Theorem 11).
	zip := 1.0
	for i := 0; i < opts.Zip.Iterations; i++ {
		zip /= float64(uint64(1)<<61 - 1)
	}
	if zip > documented {
		t.Errorf("Zip with %d iterations achieves delta %.3g, documented as at most %.3g", opts.Zip.Iterations, zip, documented)
	}
}
