package core

import (
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/workload"
)

func zipPairsOf(a, b []uint64) []data.Pair {
	out := make([]data.Pair, len(a))
	for i := range a {
		out[i] = data.Pair{Key: a[i], Value: b[i]}
	}
	return out
}

var zipCfg = ZipConfig{Iterations: 2}

// checkZip checks Zip(s1, s2) = out: the start offsets and global
// lengths come from one vectorized prefix sum over the three local
// sizes, as at the Zip stage.
func checkZip(w *dist.Worker, cfg ZipConfig, s1, s2 []uint64, out []data.Pair) (bool, error) {
	starts, totals, err := ExclusiveCounts(w, len(s1), len(s2), len(out))
	if err != nil {
		return false, err
	}
	lengthsOK := totals[0] == totals[1] && totals[1] == totals[2]
	return check(w, func(seed uint64) CheckState {
		return NewZipState("Zip", cfg, seed, s1, s2, out, starts[0], starts[1], starts[2], lengthsOK)
	})
}

func TestZipCheckerAcceptsCorrect(t *testing.T) {
	n := 2000
	a := workload.UniformU64s(n, 1e8, 1)
	b := workload.UniformU64s(n, 1e8, 2)
	out := zipPairsOf(a, b)
	for _, p := range []int{1, 2, 4, 5} {
		err := dist.Run(p, 1, func(w *dist.Worker) error {
			ok, err := checkZip(w, zipCfg, shardU64(a, p, w.Rank()), shardU64(b, p, w.Rank()), shardPairs(out, p, w.Rank()))
			if err != nil {
				return err
			}
			if !ok {
				t.Errorf("p=%d: correct zip rejected", p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestZipCheckerAcceptsSkewedDistributions(t *testing.T) {
	// The three sequences live on different PEs entirely.
	n := 600
	a := workload.UniformU64s(n, 1e8, 3)
	b := workload.UniformU64s(n, 1e8, 4)
	out := zipPairsOf(a, b)
	const p = 3
	err := dist.Run(p, 1, func(w *dist.Worker) error {
		var la, lb []uint64
		var lo []data.Pair
		switch w.Rank() {
		case 0:
			la = a
		case 1:
			lb = b
		case 2:
			lo = out
		}
		ok, err := checkZip(w, zipCfg, la, lb, lo)
		if err != nil {
			return err
		}
		if !ok {
			t.Error("skewed zip rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZipCheckerDetectsSwappedNeighbours(t *testing.T) {
	// Swapping two adjacent output pairs preserves multisets but breaks
	// order — exactly what a permutation checker cannot see and the
	// position-weighted fingerprint must.
	n := 500
	a := workload.UniformU64s(n, 1e8, 5)
	b := workload.UniformU64s(n, 1e8, 6)
	detected := 0
	const trials = 50
	for seed := uint64(0); seed < trials; seed++ {
		out := zipPairsOf(a, b)
		i := int(seed) % (n - 1)
		out[i], out[i+1] = out[i+1], out[i]
		err := dist.Run(3, seed, func(w *dist.Worker) error {
			ok, err := checkZip(w, zipCfg, shardU64(a, 3, w.Rank()), shardU64(b, 3, w.Rank()), shardPairs(out, 3, w.Rank()))
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
	if detected != trials {
		t.Fatalf("swapped neighbours detected only %d of %d times", detected, trials)
	}
}

func TestZipCheckerDetectsComponentCrosstalk(t *testing.T) {
	// Swap first/second components of one pair.
	n := 400
	a := workload.UniformU64s(n, 1e8, 7)
	b := workload.UniformU64s(n, 1e8, 8)
	out := zipPairsOf(a, b)
	out[n/2].Key, out[n/2].Value = out[n/2].Value, out[n/2].Key
	if out[n/2].Key == out[n/2].Value {
		t.Skip("degenerate pair")
	}
	err := dist.Run(2, 1, func(w *dist.Worker) error {
		ok, err := checkZip(w, zipCfg, shardU64(a, 2, w.Rank()), shardU64(b, 2, w.Rank()), shardPairs(out, 2, w.Rank()))
		if err != nil {
			return err
		}
		if ok {
			t.Error("component crosstalk accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZipCheckerDetectsLengthMismatch(t *testing.T) {
	a := workload.UniformU64s(100, 1e8, 9)
	b := workload.UniformU64s(100, 1e8, 10)
	out := zipPairsOf(a, b)[:99]
	err := dist.Run(2, 1, func(w *dist.Worker) error {
		ok, err := checkZip(w, zipCfg, shardU64(a, 2, w.Rank()), shardU64(b, 2, w.Rank()), shardPairs(out, 2, w.Rank()))
		if err != nil {
			return err
		}
		if ok {
			t.Error("length mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fixedLocator sends each key to key % p, standing in for
// ops.Partitioner without importing it (core must not depend on ops).
type fixedLocator struct{ p int }

func (f fixedLocator) PE(key uint64) int { return int(key % uint64(f.p)) }

func TestRedistCheckerAcceptsCorrect(t *testing.T) {
	global := workload.UniformPairs(2000, 100, 1000, 11)
	const p = 4
	loc := fixedLocator{p: p}
	// Simulate a correct redistribution: after[r] = all pairs with
	// loc.PE(key) == r.
	after := make([][]data.Pair, p)
	for _, pr := range global {
		d := loc.PE(pr.Key)
		after[d] = append(after[d], pr)
	}
	err := dist.Run(p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewRedistState("Redistribution", permCfg, seed, loc, w.Rank(), shardPairs(global, p, w.Rank()), after[w.Rank()])
		})
		if err != nil {
			return err
		}
		if !ok {
			t.Error("correct redistribution rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRedistCheckerDetectsMisplacedPair(t *testing.T) {
	global := workload.UniformPairs(500, 40, 100, 12)
	const p = 4
	loc := fixedLocator{p: p}
	after := make([][]data.Pair, p)
	for _, pr := range global {
		after[loc.PE(pr.Key)] = append(after[loc.PE(pr.Key)], pr)
	}
	// Move one pair to the wrong PE (permutation intact, placement not).
	if len(after[0]) == 0 {
		t.Skip("empty target")
	}
	moved := after[0][0]
	after[0] = after[0][1:]
	after[1] = append(after[1], moved)
	err := dist.Run(p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewRedistState("Redistribution", permCfg, seed, loc, w.Rank(), shardPairs(global, p, w.Rank()), after[w.Rank()])
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("misplaced pair accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRedistCheckerDetectsDroppedPair(t *testing.T) {
	global := workload.UniformPairs(500, 40, 100, 13)
	const p = 3
	loc := fixedLocator{p: p}
	after := make([][]data.Pair, p)
	for _, pr := range global {
		after[loc.PE(pr.Key)] = append(after[loc.PE(pr.Key)], pr)
	}
	if len(after[2]) == 0 {
		t.Skip("empty target")
	}
	after[2] = after[2][1:] // lose a pair in transit
	detected := 0
	const trials = 30
	for seed := uint64(0); seed < trials; seed++ {
		err := dist.Run(p, seed, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewRedistState("Redistribution", permCfg, seed, loc, w.Rank(), shardPairs(global, p, w.Rank()), after[w.Rank()])
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
	if detected < trials-1 {
		t.Fatalf("dropped pair detected only %d of %d times", detected, trials)
	}
}

func TestRedistCheckerDetectsValueCorruption(t *testing.T) {
	// A bitflip in a value during transit: placement fine, permutation
	// over pair digests must catch it.
	global := workload.UniformPairs(400, 30, 100, 14)
	const p = 3
	loc := fixedLocator{p: p}
	after := make([][]data.Pair, p)
	for _, pr := range global {
		after[loc.PE(pr.Key)] = append(after[loc.PE(pr.Key)], pr)
	}
	if len(after[1]) == 0 {
		t.Skip("empty target")
	}
	after[1][0].Value ^= 1 << 13
	err := dist.Run(p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewRedistState("Redistribution", permCfg, seed, loc, w.Rank(), shardPairs(global, p, w.Rank()), after[w.Rank()])
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("value corruption accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJoinRedistChecker(t *testing.T) {
	left := workload.UniformPairs(600, 50, 100, 15)
	right := workload.UniformPairs(400, 50, 100, 16)
	const p = 4
	loc := fixedLocator{p: p}
	route := func(ps []data.Pair) [][]data.Pair {
		out := make([][]data.Pair, p)
		for _, pr := range ps {
			out[loc.PE(pr.Key)] = append(out[loc.PE(pr.Key)], pr)
		}
		return out
	}
	la, ra := route(left), route(right)
	err := dist.Run(p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewRedistState("Join/left", permCfg, seed, loc, w.Rank(), shardPairs(left, p, w.Rank()), la[w.Rank()])
		}, func(seed uint64) CheckState {
			return NewRedistState("Join/right", permCfg, seed, loc, w.Rank(), shardPairs(right, p, w.Rank()), ra[w.Rank()])
		})
		if err != nil {
			return err
		}
		if !ok {
			t.Error("correct join redistribution rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the right relation only.
	if len(ra[0]) == 0 {
		t.Skip("empty target")
	}
	ra[0][0].Key++
	err = dist.Run(p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewRedistState("Join/left", permCfg, seed, loc, w.Rank(), shardPairs(left, p, w.Rank()), la[w.Rank()])
		}, func(seed uint64) CheckState {
			return NewRedistState("Join/right", permCfg, seed, loc, w.Rank(), shardPairs(right, p, w.Rank()), ra[w.Rank()])
		})
		if err != nil {
			return err
		}
		if ok {
			t.Error("corrupted right relation accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
