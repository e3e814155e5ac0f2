package meternet_test

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"repro"
	"repro/benchmark/meternet"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/service"
	"repro/internal/workload"
)

const p = 4

// outcome is everything the transparency test compares between a plain
// and a decorated network.
type outcome struct {
	cleanOK       bool
	corruptReject bool
	bytes, msgs   int64
}

// pipeline runs a checked reduce and sort, then one clean and one
// corrupted sum assertion, as p SPMD workers over net.
func pipeline(t *testing.T, net comm.Network) outcome {
	t.Helper()
	var out outcome
	var rejected atomic.Int32
	before := comm.NetworkMeter(net)
	err := dist.RunNetwork(net, 7, func(w *dist.Worker) error {
		ctx, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		pairs := workload.UniformPairs(500, 64, 1<<20, uint64(w.Rank())+1)
		sums, err := ctx.Pairs(pairs).ReduceByKey(repro.SumFn).Collect()
		if err != nil {
			return err
		}
		if _, err := ctx.Seq(workload.UniformU64s(500, 1<<40, uint64(w.Rank())+11)).Sort().Collect(); err != nil {
			return err
		}
		if err := ctx.AssertSum(pairs, sums); err != nil {
			return err
		}
		// A second context, so the rejection does not stick to the first.
		bad, err := repro.NewContext(w, repro.DefaultOptions())
		if err != nil {
			return err
		}
		wrong := append([]repro.Pair(nil), sums...)
		if w.Rank() == 0 && len(wrong) > 0 {
			wrong[0].Value++
		}
		if err := bad.AssertSum(pairs, wrong); errors.Is(err, repro.ErrCheckFailed) {
			rejected.Add(1)
		} else if err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	after := comm.NetworkMeter(net)
	out.cleanOK = true
	out.corruptReject = rejected.Load() == p
	out.bytes = after.BytesSent - before.BytesSent
	out.msgs = after.MsgsSent - before.MsgsSent
	return out
}

func newNet(t *testing.T, tr dist.Transport) comm.Network {
	t.Helper()
	net, err := dist.Config{Transport: tr}.NewNetwork(p)
	if err != nil {
		t.Fatalf("network %s: %v", tr, err)
	}
	t.Cleanup(func() { net.Close() })
	return net
}

func TestTransparentUnderContext(t *testing.T) {
	for _, tr := range []dist.Transport{dist.TransportMem, dist.TransportTCP} {
		t.Run(string(tr), func(t *testing.T) {
			plain := pipeline(t, newNet(t, tr))
			var events atomic.Int64
			wrapped := meternet.Wrap(newNet(t, tr), func(meternet.Event) { events.Add(1) })
			got := pipeline(t, wrapped)
			if got != plain {
				t.Fatalf("decorated run differs: plain %+v, decorated %+v", plain, got)
			}
			if !got.corruptReject {
				t.Fatalf("corrupted assertion was not rejected on every rank")
			}
			var sends, recvs int64
			for r := 0; r < p; r++ {
				sends += wrapped.Totals(r, meternet.OpSend).Calls
				recvs += wrapped.Totals(r, meternet.OpRecvAny).Calls + wrapped.Totals(r, meternet.OpRecv).Calls
			}
			if sends != got.msgs {
				t.Fatalf("decorator counted %d sends, transport meter %d messages", sends, got.msgs)
			}
			if recvs != sends {
				t.Fatalf("decorator counted %d receives for %d sends", recvs, sends)
			}
			if events.Load() != sends+recvs {
				t.Fatalf("sink saw %d events, want %d", events.Load(), sends+recvs)
			}
		})
	}
}

// serviceRun submits clean and corrupted jobs one at a time, so the
// traffic is deterministic, and returns verdicts and metered traffic.
func serviceRun(t *testing.T, net comm.Network) outcome {
	t.Helper()
	pool, err := service.NewOnNetwork(net, service.Options{Seed: 3, MaxConcurrent: 4})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	defer pool.Close()
	before := comm.NetworkMeter(net)
	in := make([][]uint64, p)
	sorted := make([][]uint64, p)
	all := workload.UniformU64s(p*300, 1<<40, 5)
	ordered := append([]uint64(nil), all...)
	slices.Sort(ordered)
	for r := 0; r < p; r++ {
		in[r] = all[r*300 : (r+1)*300]
		sorted[r] = ordered[r*300 : (r+1)*300]
	}
	submit := func(out [][]uint64) error {
		j, err := pool.Submit("sorted", func(ctx *repro.Context) error {
			r := ctx.Worker().Rank()
			return ctx.AssertSorted(in[r], out[r])
		})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		return j.Await()
	}
	var out outcome
	out.cleanOK = submit(sorted) == nil
	bad := make([][]uint64, p)
	copy(bad, sorted)
	bad[1] = append([]uint64(nil), sorted[1]...)
	bad[1][10]++
	out.corruptReject = errors.Is(submit(bad), repro.ErrCheckFailed)
	after := comm.NetworkMeter(net)
	out.bytes = after.BytesSent - before.BytesSent
	out.msgs = after.MsgsSent - before.MsgsSent
	return out
}

func TestTransparentUnderService(t *testing.T) {
	for _, tr := range []dist.Transport{dist.TransportMem, dist.TransportTCP} {
		t.Run(string(tr), func(t *testing.T) {
			plain := serviceRun(t, newNet(t, tr))
			got := serviceRun(t, meternet.Wrap(newNet(t, tr), nil))
			if got != plain {
				t.Fatalf("decorated pool differs: plain %+v, decorated %+v", plain, got)
			}
			if !got.cleanOK || !got.corruptReject {
				t.Fatalf("verdicts wrong: %+v", got)
			}
		})
	}
}

func TestForwardsOptionalAccessors(t *testing.T) {
	tcp := meternet.Wrap(newNet(t, dist.TransportTCP), nil)
	if got := tcp.Meter().ConnsOpen; got != p*(p-1)/2 {
		t.Fatalf("tcp full mesh: ConnsOpen = %d, want %d", got, p*(p-1)/2)
	}
	co, ok := tcp.Endpoint(0).(interface{ ConnsOpen() int64 })
	if !ok || co.ConnsOpen() != p*(p-1)/2 {
		t.Fatalf("tcp endpoint does not forward ConnsOpen")
	}
	mem := meternet.Wrap(newNet(t, dist.TransportMem), nil)
	if got := mem.Meter().ConnsOpen; got != -1 {
		t.Fatalf("mem: ConnsOpen = %d, want -1 (connectionless)", got)
	}
	if mem.Topology() != "" {
		t.Fatalf("mem: Topology = %q, want none", mem.Topology())
	}
}
