package core

import (
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/workload"
)

// globalSortShards sorts xs and splits it into p globally ordered
// shards.
func globalSortShards(xs []uint64, p int) [][]uint64 {
	sorted := data.CloneU64s(xs)
	data.SortU64(sorted)
	shards := make([][]uint64, p)
	for r := 0; r < p; r++ {
		s, e := data.SplitEven(len(sorted), p, r)
		shards[r] = sorted[s:e]
	}
	return shards
}

func TestSortCheckerAcceptsSortedOutput(t *testing.T) {
	input := workload.UniformU64s(3000, 1e8, 1)
	for _, p := range []int{1, 2, 4, 6} {
		shards := globalSortShards(input, p)
		err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewSortedState("Sorted", permCfg, seed, [][]uint64{shardU64(input, p, w.Rank())}, shards[w.Rank()])
			})
			if err != nil {
				return err
			}
			if !ok {
				t.Errorf("p=%d: correct sort rejected", p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSortCheckerDetectsLocalDisorder(t *testing.T) {
	input := workload.UniformU64s(1000, 1e8, 2)
	const p = 4
	shards := globalSortShards(input, p)
	// Swap two elements inside PE 2's shard: still a permutation, but
	// locally unsorted.
	bad := make([][]uint64, p)
	for r := range shards {
		bad[r] = data.CloneU64s(shards[r])
	}
	if len(bad[2]) < 2 || bad[2][0] == bad[2][len(bad[2])-1] {
		t.Skip("degenerate shard")
	}
	bad[2][0], bad[2][len(bad[2])-1] = bad[2][len(bad[2])-1], bad[2][0]
	err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewSortedState("Sorted", permCfg, seed, [][]uint64{shardU64(input, p, w.Rank())}, bad[w.Rank()])
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("local disorder accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortCheckerDetectsBoundaryViolation(t *testing.T) {
	input := workload.UniformU64s(1000, 1e8, 3)
	const p = 4
	shards := globalSortShards(input, p)
	bad := make([][]uint64, p)
	for r := range shards {
		bad[r] = data.CloneU64s(shards[r])
	}
	// Swap the boundary elements of shards 1 and 2: both stay locally
	// sorted only if values allow; force a clear violation by moving
	// shard 2's largest to the end of shard 1.
	l1, l2 := len(bad[1]), len(bad[2])
	if l1 == 0 || l2 == 0 {
		t.Skip("empty shard")
	}
	big := bad[2][l2-1]
	small := bad[1][l1-1]
	if big == small {
		t.Skip("degenerate values")
	}
	bad[1][l1-1], bad[2][l2-1] = big, small
	// Re-sort locally so only the boundary exchange can catch it.
	data.SortU64(bad[1])
	data.SortU64(bad[2])
	err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewSortedState("Sorted", permCfg, seed, [][]uint64{shardU64(input, p, w.Rank())}, bad[w.Rank()])
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("boundary violation accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortCheckerDetectsValueChange(t *testing.T) {
	input := workload.UniformU64s(1000, 1e8, 4)
	const p = 3
	detected := 0
	const trials = 50
	for seed := uint64(0); seed < trials; seed++ {
		shards := globalSortShards(input, p)
		bad := make([][]uint64, p)
		for r := range shards {
			bad[r] = data.CloneU64s(shards[r])
		}
		// Increment one element; keep shard sorted by incrementing the
		// largest of shard p-1.
		last := bad[p-1]
		if len(last) == 0 {
			t.Skip("empty shard")
		}
		last[len(last)-1] += 1 + seed
		err := dist.RunConfig(dist.Config{}, p, seed, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewSortedState("Sorted", permCfg, seed, [][]uint64{shardU64(input, p, w.Rank())}, bad[w.Rank()])
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 && !ok {
				detected++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if detected < trials-2 {
		t.Fatalf("value change detected only %d of %d times", detected, trials)
	}
}

func TestSortCheckerEmptyShards(t *testing.T) {
	// All data on PE 0 as input; sorted output concentrated on PE 3:
	// PEs 1-2 have empty output shares and must relay the boundary.
	input := workload.UniformU64s(200, 1e6, 5)
	sorted := data.CloneU64s(input)
	data.SortU64(sorted)
	const p = 4
	err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
		var in, out []uint64
		if w.Rank() == 0 {
			in = input
		}
		if w.Rank() == p-1 {
			out = sorted
		}
		ok, err := check(w, func(seed uint64) CheckState {
			return NewSortedState("Sorted", permCfg, seed, [][]uint64{in}, out)
		})
		if err != nil {
			return err
		}
		if !ok {
			t.Error("sort with empty shards rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortCheckerEmptyMiddleBoundary(t *testing.T) {
	// PE 1 empty, but PE 0's share overlaps PE 2's: the relay through
	// the empty PE must still catch it.
	const p = 3
	shares := [][]uint64{{10, 20, 30}, {}, {25, 40}}
	input := []uint64{10, 20, 30, 25, 40}
	err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
		var in []uint64
		if w.Rank() == 0 {
			in = input
		}
		ok, err := check(w, func(seed uint64) CheckState {
			return NewSortedState("Sorted", permCfg, seed, [][]uint64{in}, shares[w.Rank()])
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("overlap across empty PE accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMergeChecker(t *testing.T) {
	a := workload.UniformU64s(700, 1e8, 6)
	b := workload.UniformU64s(900, 1e8, 7)
	data.SortU64(a)
	data.SortU64(b)
	merged := append(data.CloneU64s(a), b...)
	data.SortU64(merged)
	const p = 4
	shards := globalSortShards(merged, p)
	err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewSortedState("Merge", permCfg, seed, [][]uint64{shardU64(a, p, w.Rank()), shardU64(b, p, w.Rank())}, shards[w.Rank()])
		})
		if err != nil {
			return err
		}
		if !ok {
			t.Error("correct merge rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A merge that duplicates an element instead of keeping another.
	bad := data.CloneU64s(merged)
	bad[0] = bad[1]
	badShards := globalSortShards(bad, p)
	detected := 0
	for seed := uint64(0); seed < 30; seed++ {
		err := dist.RunConfig(dist.Config{}, p, seed, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewSortedState("Merge", permCfg, seed, [][]uint64{shardU64(a, p, w.Rank()), shardU64(b, p, w.Rank())}, badShards[w.Rank()])
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 && !ok {
				detected++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if detected < 29 {
		t.Fatalf("merge corruption detected %d of 30 times", detected)
	}
}
