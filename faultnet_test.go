package repro_test

import (
	"errors"
	"testing"

	"repro"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/ops"
	"repro/internal/workload"
)

// TestNetworkBitflipDuringRedistributionCaught injects single-bit
// faults into in-flight messages of a real distributed reduction and
// verifies the checker catches the corruption. This exercises the
// scenario the paper opens with: silent transport/memory errors no
// existing framework detects.
func TestNetworkBitflipDuringRedistributionCaught(t *testing.T) {
	const p = 4
	clean := workload.ZipfPairs(2000, 200, 1<<30, 1)
	opts := repro.DefaultOptions() // 6×32 CRC m9

	caught, injected, runs := 0, 0, 0
	// Sweep the corrupted-message index so faults land in different
	// phases of the exchange; count only runs where the fault actually
	// changed the aggregation result (a flipped bit in one pair always
	// does — keys move or values change — but the fault may hit a
	// checker-internal message instead, which by design *aborts* into a
	// reject, so both count as caught).
	for target := int64(1); target <= 24; target += 2 {
		runs++
		inner := comm.NewMemNetworkTimeout(p, 0)
		net := comm.NewFaultyNetwork(inner, target, 13)
		outs := make([][]data.Pair, p)
		err := dist.RunNetwork(net, uint64(target), func(w *dist.Worker) error {
			// Phase 1: the reduction runs over the faulty network.
			pt := ops.NewPartitioner(3, p)
			out, err := ops.ReduceByKey(w, pt, shardPairs(clean, p, w.Rank()), ops.SumFn)
			outs[w.Rank()] = out
			return err
		})
		if err != nil {
			// A fault in a framework control message can surface as a
			// decode error; that is detection too, just not silent.
			caught++
			net.Close()
			continue
		}
		if _, _, landed := net.InjectedAt(); !landed {
			net.Close()
			continue
		}
		injected++
		// Phase 2: check on a clean network (the checker itself must
		// not be confused by earlier transport faults).
		err = dist.RunConfig(dist.Config{}, p, uint64(target)+99, func(w *dist.Worker) error {
			ok, err := verdictOf(w, opts, func(ctx *repro.Context) error {
				return ctx.AssertSum(shardPairs(clean, p, w.Rank()), outs[w.Rank()])
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 && !ok {
				caught++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		net.Close()
	}
	if injected < 5 {
		t.Skipf("only %d faults landed in data messages", injected)
	}
	// delta = 1.3e-9: every injected fault must be caught.
	if caught < injected {
		t.Fatalf("caught %d of %d injected transport faults", caught, injected)
	}
}

// TestSortVerdictMatchesGroundTruthUnderNetworkFaults injects a bitflip
// into each in-flight message position of a distributed sort in turn
// and asserts the checker's verdict equals ground truth every time:
// reject iff the produced output is not a sorted permutation of the
// input. This covers both directions at once — corrupted data messages
// must be caught, and a fault that happens to leave the result correct
// (e.g. in a splitter sample) must still be accepted (one-sided error).
func TestSortVerdictMatchesGroundTruthUnderNetworkFaults(t *testing.T) {
	const p = 3
	clean := workload.UniformU64s(1200, 1e8, 2)
	opts := repro.DefaultOptions() // Tab, 32 bits, 2 iterations
	ref := data.CloneU64s(clean)
	data.SortU64(ref)

	groundTruth := func(outs [][]uint64) bool {
		var all []uint64
		prevMax := uint64(0)
		first := true
		for _, o := range outs {
			if !data.IsSortedU64(o) {
				return false
			}
			if len(o) > 0 {
				if !first && o[0] < prevMax {
					return false
				}
				prevMax = o[len(o)-1]
				first = false
			}
			all = append(all, o...)
		}
		if len(all) != len(ref) {
			return false
		}
		data.SortU64(all)
		for i := range ref {
			if all[i] != ref[i] {
				return false
			}
		}
		return true
	}

	injected, failStop := 0, 0
	for target := int64(1); target <= 20; target++ {
		inner := comm.NewMemNetworkTimeout(p, 0)
		net := comm.NewFaultyNetwork(inner, target, 7)
		outs := make([][]uint64, p)
		err := dist.RunNetwork(net, uint64(target), func(w *dist.Worker) error {
			out, err := ops.Sort(w, shardU64(clean, p, w.Rank()))
			outs[w.Rank()] = out
			return err
		})
		if err != nil {
			// Fault broke the framework protocol: detected by
			// fail-stop, which is also a catch (not silent).
			failStop++
			net.Close()
			continue
		}
		if _, _, landed := net.InjectedAt(); !landed {
			net.Close()
			continue
		}
		injected++
		want := groundTruth(outs)
		err = dist.RunConfig(dist.Config{}, p, uint64(target)+7, func(w *dist.Worker) error {
			got, err := verdictOf(w, opts, func(ctx *repro.Context) error {
				return ctx.AssertSorted(shardU64(clean, p, w.Rank()), outs[w.Rank()])
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 && got != want {
				t.Errorf("target %d: checker verdict %v, ground truth %v", target, got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		net.Close()
	}
	if injected+failStop < 5 {
		t.Fatalf("fault sweep ineffective: %d injected, %d fail-stopped", injected, failStop)
	}
}

// TestVerdictBitflipCannotForgeAccept flips one bit of one message of a
// sum check — every message of the run in turn, at bits 0, 1 and 63, the
// common-seed broadcast, the reduction and the verdict broadcast alike —
// once with the correct output and once with a wrong one. Two contracts
// hold for every flip: the ranks that return no error all return the
// same verdict, and a wrong output is never accepted. A flip may make
// every rank reject the correct output: that is the checker's one-sided
// error, not a split verdict.
// With plain 0/1 verdict words, a flipped bit 0 in the verdict
// broadcast made the ranks below it accept.
func TestVerdictBitflipCannotForgeAccept(t *testing.T) {
	const p = 4
	input := workload.ZipfPairs(2000, 200, 1<<30, 1)
	correct := sumByKey(input)
	wrong := sumByKey(input)
	wrong[len(wrong)/2].Value++
	opts := repro.DefaultOptions()
	for _, c := range []struct {
		name   string
		output []repro.Pair
	}{{"correct", correct}, {"wrong", wrong}} {
		for _, bit := range []int{0, 1, 63} {
			for k := int64(1); ; k++ {
				net := comm.NewFaultyNetwork(comm.NewMemNetworkTimeout(p, 0), k, bit)
				var verdicts [p]struct {
					ok  bool
					err error
				}
				_ = dist.RunNetwork(net, 5, func(w *dist.Worker) error {
					r := w.Rank()
					ok, err := verdictOf(w, opts, func(ctx *repro.Context) error {
						return ctx.AssertSum(shardPairs(input, p, r), shardPairs(c.output, p, r))
					})
					verdicts[r].ok, verdicts[r].err = ok, err
					return err
				})
				_, _, injected := net.InjectedAt()
				net.Close()
				if !injected {
					if k == 1 {
						t.Fatalf("%s output: no message of the check was corrupted", c.name)
					}
					break
				}
				first := -1
				for r, v := range verdicts {
					if v.err != nil {
						continue
					}
					if first < 0 {
						first = r
					} else if v.ok != verdicts[first].ok {
						t.Errorf("%s output, bit %d of message %d: rank %d says %v, rank %d says %v",
							c.name, bit, k, first, verdicts[first].ok, r, v.ok)
					}
					if c.name == "wrong" && v.ok {
						t.Errorf("bit %d of message %d: rank %d accepted a wrong sum", bit, k, r)
					}
				}
			}
		}
	}
}

// verdictOf runs one eager assertion on a fresh Context over w and
// splits its outcome into the checker's verdict and an infrastructure
// error.
func verdictOf(w *repro.Worker, opts repro.Options, assert func(ctx *repro.Context) error) (bool, error) {
	ctx, err := repro.NewContext(w, opts)
	if err != nil {
		return false, err
	}
	switch err := assert(ctx); {
	case err == nil:
		return true, nil
	case errors.Is(err, repro.ErrCheckFailed):
		return false, nil
	default:
		return false, err
	}
}

// sumByKey is the correct sum reduction of pairs, sorted by key.
func sumByKey(pairs []repro.Pair) []repro.Pair {
	sums := make(map[uint64]uint64)
	for _, pr := range pairs {
		sums[pr.Key] += pr.Value
	}
	out := make([]repro.Pair, 0, len(sums))
	for k, v := range sums {
		out = append(out, repro.Pair{Key: k, Value: v})
	}
	data.SortPairsByKey(out)
	return out
}
