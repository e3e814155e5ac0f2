package core

import (
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/workload"
)

// buildMinReference computes the correct min aggregation and a valid
// witness map for inputs sharded over p PEs.
func buildMinReference(global []data.Pair, p int, wantMin bool) ([]data.Pair, map[uint64]int) {
	best := make(map[uint64]uint64)
	where := make(map[uint64]int)
	for r := 0; r < p; r++ {
		s, e := data.SplitEven(len(global), p, r)
		for _, pr := range global[s:e] {
			v, ok := best[pr.Key]
			better := pr.Value < v
			if !wantMin {
				better = pr.Value > v
			}
			if !ok || better {
				best[pr.Key] = pr.Value
				where[pr.Key] = r
			}
		}
	}
	return data.MapToPairs(best), where
}

func TestMinCheckerAcceptsCorrect(t *testing.T) {
	global := workload.UniformPairs(2000, 40, 1e6, 1)
	for _, p := range []int{1, 2, 4, 5} {
		result, witness := buildMinReference(global, p, true)
		err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewMinAggState("MinAgg", seed, w.Rank(), w.Size(), shardPairs(global, p, w.Rank()), result, witness)
			})
			if err != nil {
				return err
			}
			if !ok {
				t.Errorf("p=%d: correct min aggregation rejected", p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestMaxCheckerAcceptsCorrect(t *testing.T) {
	global := workload.UniformPairs(1500, 30, 1e6, 2)
	const p = 4
	result, witness := buildMinReference(global, p, false)
	err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewMaxAggState("MaxAgg", seed, w.Rank(), w.Size(), shardPairs(global, p, w.Rank()), result, witness)
		})
		if err != nil {
			return err
		}
		if !ok {
			t.Error("correct max aggregation rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The min checker is deterministic: every corruption must be caught,
// every time.
func TestMinCheckerDetectsTooSmallAssertion(t *testing.T) {
	global := workload.UniformPairs(1000, 20, 1e6, 3)
	const p = 3
	result, witness := buildMinReference(global, p, true)
	bad := data.ClonePairs(result)
	bad[0].Value-- // smaller than any input element: witness PE lacks it
	err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewMinAggState("MinAgg", seed, w.Rank(), w.Size(), shardPairs(global, p, w.Rank()), bad, witness)
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("too-small assertion accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMinCheckerDetectsTooLargeAssertion(t *testing.T) {
	global := workload.UniformPairs(1000, 20, 1e6, 4)
	const p = 3
	result, witness := buildMinReference(global, p, true)
	bad := data.ClonePairs(result)
	bad[0].Value++ // some input element now beats the assertion
	err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewMinAggState("MinAgg", seed, w.Rank(), w.Size(), shardPairs(global, p, w.Rank()), bad, witness)
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("too-large assertion accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMinCheckerDetectsDroppedKey(t *testing.T) {
	global := workload.UniformPairs(1000, 20, 1e6, 5)
	const p = 3
	result, witness := buildMinReference(global, p, true)
	bad := data.ClonePairs(result)[1:]
	badWitness := make(map[uint64]int)
	for _, pr := range bad {
		badWitness[pr.Key] = witness[pr.Key]
	}
	err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewMinAggState("MinAgg", seed, w.Rank(), w.Size(), shardPairs(global, p, w.Rank()), bad, badWitness)
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("dropped key accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMinCheckerDetectsInventedKey(t *testing.T) {
	global := workload.UniformPairs(1000, 20, 1e6, 6)
	const p = 3
	result, witness := buildMinReference(global, p, true)
	bad := append(data.ClonePairs(result), data.Pair{Key: 999999, Value: 1})
	badWitness := make(map[uint64]int, len(witness)+1)
	for k, v := range witness {
		badWitness[k] = v
	}
	badWitness[999999] = 1
	err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewMinAggState("MinAgg", seed, w.Rank(), w.Size(), shardPairs(global, p, w.Rank()), bad, badWitness)
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("invented key accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMinCheckerDetectsWrongWitness(t *testing.T) {
	// Point a witness at a PE that does not hold the minimum.
	global := []data.Pair{{Key: 1, Value: 5}, {Key: 1, Value: 9}}
	const p = 2 // PE 0 holds (1,5), PE 1 holds (1,9)
	result := []data.Pair{{Key: 1, Value: 5}}
	badWitness := map[uint64]int{1: 1} // PE 1 does not have value 5
	err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewMinAggState("MinAgg", seed, w.Rank(), w.Size(), shardPairs(global, p, w.Rank()), result, badWitness)
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("wrong witness accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMinCheckerDetectsIncompleteCertificate(t *testing.T) {
	global := workload.UniformPairs(500, 10, 1e6, 7)
	const p = 2
	result, witness := buildMinReference(global, p, true)
	incomplete := make(map[uint64]int)
	first := true
	for k, v := range witness {
		if first {
			first = false
			continue // omit one key from the certificate
		}
		incomplete[k] = v
	}
	err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewMinAggState("MinAgg", seed, w.Rank(), w.Size(), shardPairs(global, p, w.Rank()), result, incomplete)
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("incomplete certificate accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMinCheckerDetectsDivergentReplicas(t *testing.T) {
	// PEs disagree on the replicated result: integrity check must fire.
	global := workload.UniformPairs(500, 10, 1e6, 8)
	const p = 3
	result, witness := buildMinReference(global, p, true)
	err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
		mine := data.ClonePairs(result)
		if w.Rank() == 2 {
			mine[0].Value ^= 4 // silent corruption of one replica
		}
		ok, err := check(w, func(seed uint64) CheckState {
			return NewMinAggState("MinAgg", seed, w.Rank(), w.Size(), shardPairs(global, p, w.Rank()), mine, witness)
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("divergent replicas accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMinCheckerDetectsRepeatedKey: a replicated result that asserts a
// key twice — a spurious row ahead of the correct one — passed while the
// scan kept only the last row of each key. No correct result repeats a
// key, so the scan rejects it on every PE.
func TestMinCheckerDetectsRepeatedKey(t *testing.T) {
	global := workload.UniformPairs(500, 10, 1e6, 9)
	const p = 3
	result, witness := buildMinReference(global, p, true)
	bad := append([]data.Pair{{Key: result[0].Key, Value: result[0].Value + 12345}}, result...)
	err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewMinAggState("MinAgg", seed, w.Rank(), w.Size(), shardPairs(global, p, w.Rank()), bad, witness)
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("repeated key accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
