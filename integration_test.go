package repro_test

import (
	"errors"
	"fmt"
	"testing"

	"repro"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/ops"
	"repro/internal/workload"
)

func shardPairs(ps []repro.Pair, p, r int) []repro.Pair {
	s, e := data.SplitEven(len(ps), p, r)
	return ps[s:e]
}

func shardU64(xs []uint64, p, r int) []uint64 {
	s, e := data.SplitEven(len(xs), p, r)
	return xs[s:e]
}

// TestFullSuiteOverTCP runs every checked operation over real sockets.
func TestFullSuiteOverTCP(t *testing.T) {
	const p = 3
	net, err := comm.NewTCPNetwork(p)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	pairs := workload.UniformPairs(1200, 30, 500, 1)
	seqA := workload.UniformU64s(900, 1e8, 2)
	seqB := workload.UniformU64s(900, 1e8, 3)
	sortedA := data.CloneU64s(seqA)
	sortedB := data.CloneU64s(seqB)
	data.SortU64(sortedA)
	data.SortU64(sortedB)

	opts := repro.DefaultOptions()
	err = dist.RunNetwork(net, 7, func(w *dist.Worker) error {
		r := w.Rank()
		ctx, err := repro.NewContext(w, opts)
		if err != nil {
			return err
		}
		if _, err := ctx.Pairs(shardPairs(pairs, p, r)).ReduceByKey(repro.SumFn).Collect(); err != nil {
			return err
		}
		if _, err := ctx.Seq(shardU64(seqA, p, r)).Sort().Collect(); err != nil {
			return err
		}
		if _, err := ctx.Seq(shardU64(sortedA, p, r)).Merge(ctx.Seq(shardU64(sortedB, p, r))).Collect(); err != nil {
			return err
		}
		if _, err := ctx.Seq(shardU64(seqA, p, r)).Union(ctx.Seq(shardU64(seqB, p, r))).Collect(); err != nil {
			return err
		}
		if _, err := ctx.Seq(shardU64(seqA, p, r)).Zip(ctx.Seq(shardU64(seqB, p, r))).Collect(); err != nil {
			return err
		}
		if _, err := ctx.Pairs(shardPairs(pairs, p, r)).MinByKey(); err != nil {
			return err
		}
		if _, err := ctx.Pairs(shardPairs(pairs, p, r)).MaxByKey(); err != nil {
			return err
		}
		if _, err := ctx.Pairs(shardPairs(pairs, p, r)).MedianByKey(); err != nil {
			return err
		}
		if _, err := ctx.Pairs(shardPairs(pairs, p, r)).AverageByKey(); err != nil {
			return err
		}
		if _, err := ctx.Pairs(shardPairs(pairs, p, r)).Join(ctx.Pairs(shardPairs(pairs, p, r))); err != nil {
			return err
		}
		if _, err := ctx.Pairs(shardPairs(pairs, p, r)).GroupByKey(); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFullSuiteManyPEs runs the whole checked-operation suite at
// several PE counts, including awkward non-powers of two.
func TestFullSuiteManyPEs(t *testing.T) {
	pairs := workload.ZipfPairs(2000, 150, 800, 4)
	seq := workload.UniformU64s(1500, 1e8, 5)
	opts := repro.DefaultOptions()
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		p := p
		err := repro.Run(p, uint64(p), func(w *repro.Worker) error {
			r := w.Rank()
			ctx, err := repro.NewContext(w, opts)
			if err != nil {
				return err
			}
			if _, err := ctx.Pairs(shardPairs(pairs, p, r)).ReduceByKey(repro.SumFn).Collect(); err != nil {
				return err
			}
			if _, err := ctx.Seq(shardU64(seq, p, r)).Sort().Collect(); err != nil {
				return err
			}
			if _, err := ctx.Pairs(shardPairs(pairs, p, r)).MedianByKey(); err != nil {
				return err
			}
			if _, err := ctx.Pairs(shardPairs(pairs, p, r)).MinByKey(); err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestFaultInjectionThroughRealOperation corrupts the data a real
// distributed reduction operates on (not just its output), so the whole
// op-plus-checker pipeline is exercised against every Table 4 fault.
func TestFaultInjectionThroughRealOperation(t *testing.T) {
	const p = 4
	clean := workload.ZipfPairs(3000, 400, 1<<30, 6)
	opts := repro.DefaultOptions() // 6×32 CRC m9
	rng := hashing.NewMT19937_64(9)
	for _, m := range manipulate.PairManipulators() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			corrupted := data.ClonePairs(clean)
			if !m.Apply(corrupted, rng, 400) {
				t.Skip("manipulator not applicable")
			}
			err := dist.RunConfig(dist.Config{}, p, 11, func(w *dist.Worker) error {
				// The operation consumes corrupted data (a "soft error"
				// before the reduce); the checker compares against the
				// clean input the user supplied.
				pt := ops.NewPartitioner(3, p)
				out, err := ops.ReduceByKey(w, pt, shardPairs(corrupted, p, w.Rank()), ops.SumFn)
				if err != nil {
					return err
				}
				ok, err := verdictOf(w, opts, func(ctx *repro.Context) error {
					return ctx.AssertSum(shardPairs(clean, p, w.Rank()), out)
				})
				if err != nil {
					return err
				}
				if ok {
					t.Errorf("%s: corrupted reduction accepted (delta=1.3e-9)", m.Name)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckedWrapperErrorType confirms the stages' sentinel error is
// distinguishable for programmatic fallback ("graceful degradation ...
// falling back to a simpler but slower method", Section 8).
func TestCheckedWrapperErrorType(t *testing.T) {
	if !errors.Is(repro.ErrCheckFailed, repro.ErrCheckFailed) {
		t.Fatal("sentinel identity broken")
	}
}

// TestTransportsAgreeOnResults runs the same checked reduction over the
// in-memory and TCP transports and verifies identical outputs (the
// framework is deterministic given the seed, independent of transport).
func TestTransportsAgreeOnResults(t *testing.T) {
	const p = 3
	pairs := workload.ZipfPairs(1500, 100, 300, 8)
	opts := repro.DefaultOptions()
	collect := func(net comm.Network) (map[uint64]uint64, error) {
		out := make(map[uint64]uint64)
		err := dist.RunNetwork(net, 21, func(w *dist.Worker) error {
			ctx, err := repro.NewContext(w, opts)
			if err != nil {
				return err
			}
			res, err := ctx.Pairs(shardPairs(pairs, p, w.Rank())).ReduceByKey(repro.SumFn).Collect()
			if err != nil {
				return err
			}
			flat := make([]uint64, 0, 2*len(res))
			for _, pr := range res {
				flat = append(flat, pr.Key, pr.Value)
			}
			all, err := w.Coll.Gather(flat)
			if err != nil {
				return err
			}
			if w.Rank() == 0 {
				for _, ws := range all {
					for i := 0; i+2 <= len(ws); i += 2 {
						out[ws[i]] = ws[i+1]
					}
				}
			}
			return nil
		})
		return out, err
	}
	mem := comm.NewMemNetworkTimeout(p, 0)
	defer mem.Close()
	gotMem, err := collect(mem)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := comm.NewTCPNetwork(p)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	gotTCP, err := collect(tcp)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotMem) != len(gotTCP) {
		t.Fatalf("key counts differ: %d vs %d", len(gotMem), len(gotTCP))
	}
	for k, v := range gotMem {
		if gotTCP[k] != v {
			t.Fatalf("key %d: mem %d vs tcp %d", k, v, gotTCP[k])
		}
	}
}

// TestCheckerOverSimNetwork confirms checkers run unchanged on the
// virtual-time transport (they only see the Endpoint interface).
func TestCheckerOverSimNetwork(t *testing.T) {
	const p = 4
	pairs := workload.ZipfPairs(1000, 100, 300, 9)
	net := comm.NewSimNetworkTimeout(p, 1000, 1, 0)
	defer net.Close()
	err := dist.RunNetwork(net, 13, func(w *dist.Worker) error {
		ctx, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		_, err = ctx.Pairs(shardPairs(pairs, p, w.Rank())).ReduceByKey(repro.SumFn).Collect()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if net.MakespanNs() <= 0 {
		t.Fatal("virtual time did not advance")
	}
}

// TestTCPLinksFixedAtSetup: the TCP transport dials every pair link at
// setup and never again. Right after setup the network holds p(p-1)/2
// links; a checked ReduceByKey → Sort → AssertSum pipeline, eager and
// deferred, and a barrier after it leave both that count and the dial
// count where they were — directly over TCP and behind a disarmed
// comm.FaultyNetwork, at a power of two and off one.
func TestTCPLinksFixedAtSetup(t *testing.T) {
	pairs := workload.ZipfPairs(900, 80, 500, 31)
	seq := workload.UniformU64s(600, 1e8, 32)
	for _, tc := range []struct {
		p       int
		wrapped bool
	}{{p: 5}, {p: 5, wrapped: true}, {p: 8}, {p: 8, wrapped: true}} {
		name := fmt.Sprintf("p%d", tc.p)
		if tc.wrapped {
			name += "_behind_faulty_wrapper"
		}
		t.Run(name, func(t *testing.T) {
			p := tc.p
			tcp, err := comm.NewTCPNetwork(p)
			if err != nil {
				t.Fatal(err)
			}
			defer tcp.Close()
			var net comm.Network = tcp
			if tc.wrapped {
				net = comm.NewFaultyNetwork(tcp, 0, 0)
			}
			setup := net.Meter()
			if want := int64(p * (p - 1) / 2); setup.ConnsOpen != want {
				t.Fatalf("setup opened %d links, want %d", setup.ConnsOpen, want)
			}
			for _, mode := range []repro.CheckMode{repro.CheckEager, repro.CheckDeferred} {
				opts := repro.DefaultOptions()
				opts.Mode = mode
				err := dist.RunNetwork(net, 99, func(w *dist.Worker) error {
					ctx, err := repro.NewContext(w, opts)
					if err != nil {
						return err
					}
					local := shardPairs(pairs, p, w.Rank())
					out, err := ctx.Pairs(local).ReduceByKey(repro.SumFn).Collect()
					if err != nil {
						return err
					}
					if _, err := ctx.Seq(shardU64(seq, p, w.Rank())).Sort().Collect(); err != nil {
						return err
					}
					if err := ctx.AssertSum(local, out); err != nil {
						return err
					}
					if err := ctx.Verify(); err != nil {
						return err
					}
					return w.Coll.Barrier()
				})
				if err != nil {
					t.Fatalf("mode %v: %v", mode, err)
				}
				m := net.Meter()
				if m.ConnsOpen != setup.ConnsOpen || m.Dials != setup.Dials {
					t.Fatalf("mode %v: links %d and dials %d after the pipeline, want %d and %d as at setup",
						mode, m.ConnsOpen, m.Dials, setup.ConnsOpen, setup.Dials)
				}
			}
		})
	}
}
