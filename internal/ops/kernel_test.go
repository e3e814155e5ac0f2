package ops

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/workload"
)

// The map-based data plane the kernel replaced, kept as the oracle: it
// computes what every PE returned before the change, sequentially from
// all shares.

// combineLocal folds pairs with equal keys using fn.
func combineLocal(ps []data.Pair, fn ReduceFn) []data.Pair {
	m := make(map[uint64]uint64, len(ps))
	for _, p := range ps {
		if v, ok := m[p.Key]; ok {
			m[p.Key] = fn(v, p.Value)
		} else {
			m[p.Key] = p.Value
		}
	}
	out := make([]data.Pair, 0, len(m))
	for k, v := range m {
		out = append(out, data.Pair{Key: k, Value: v})
	}
	return out
}

// refExchange returns what each PE receives: the pairs of its
// partition, concatenated in source order.
func refExchange(pt Partitioner, shares [][]data.Pair) [][]data.Pair {
	recv := make([][]data.Pair, len(shares))
	for _, share := range shares {
		for _, pr := range share {
			d := pt.PE(pr.Key)
			recv[d] = append(recv[d], pr)
		}
	}
	return recv
}

func refReduce(pt Partitioner, shares [][]data.Pair, fn ReduceFn) [][]data.Pair {
	combined := make([][]data.Pair, len(shares))
	for r, share := range shares {
		combined[r] = combineLocal(share, fn)
	}
	out := refExchange(pt, combined)
	for r := range out {
		out[r] = combineLocal(out[r], fn)
		data.SortPairsByKey(out[r])
	}
	return out
}

func refGroup(pt Partitioner, shares [][]data.Pair) [][]Group {
	out := make([][]Group, len(shares))
	for r, received := range refExchange(pt, shares) {
		m := make(map[uint64][]uint64)
		for _, p := range received {
			m[p.Key] = append(m[p.Key], p.Value)
		}
		for k, vs := range m {
			data.SortU64(vs)
			out[r] = append(out[r], Group{Key: k, Values: vs})
		}
		sort.Slice(out[r], func(i, j int) bool { return out[r][i].Key < out[r][j].Key })
	}
	return out
}

func refJoin(pt Partitioner, left, right [][]data.Pair) [][]JoinRow {
	gotL, gotR := refExchange(pt, left), refExchange(pt, right)
	out := make([][]JoinRow, len(left))
	for r := range out {
		build := make(map[uint64][]uint64, len(gotL[r]))
		for _, p := range gotL[r] {
			build[p.Key] = append(build[p.Key], p.Value)
		}
		rows := out[r]
		for _, p := range gotR[r] {
			for _, lv := range build[p.Key] {
				rows = append(rows, JoinRow{Key: p.Key, Left: lv, Right: p.Value})
			}
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Key != rows[j].Key {
				return rows[i].Key < rows[j].Key
			}
			if rows[i].Left != rows[j].Left {
				return rows[i].Left < rows[j].Left
			}
			return rows[i].Right < rows[j].Right
		})
		out[r] = rows
	}
	return out
}

// soloWorker returns the worker of a one-PE in-memory network.
func soloWorker(tb testing.TB) *dist.Worker {
	tb.Helper()
	net := comm.NewMemNetworkTimeout(1, 0)
	tb.Cleanup(func() { net.Close() })
	ws, err := dist.NewWorkers(net, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return ws[0]
}

// rotate returns shares shifted by one PE, a second relation for Join.
func rotate(shares [][]data.Pair) [][]data.Pair {
	return append(slices.Clone(shares[1:]), shares[0])
}

// TestKernelMatchesMapOracle holds every key-partitioned operation to
// the outputs of the map-based implementation, element for element, on
// every PE, over the edge shapes, PE counts and transports.
func TestKernelMatchesMapOracle(t *testing.T) {
	fns := []struct {
		name string
		fn   ReduceFn
	}{{"sum", SumFn}, {"xor", xorFn}}
	for _, transport := range []dist.Transport{dist.TransportMem, dist.TransportTCP} {
		for _, p := range []int{1, 2, 3, 5, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", transport, p), func(t *testing.T) {
				shapes := workload.EdgePairShares(p, uint64(100+p))
				pt := NewPartitioner(77, p)
				sameGroup := func(a, b Group) bool { return a.Key == b.Key && slices.Equal(a.Values, b.Values) }
				// The oracle's outputs per shape, indexed by PE.
				type oracle struct {
					reduce [][][]data.Pair // per fn
					group  [][]Group
					join   [][]JoinRow
					redist [][]data.Pair
				}
				wants := make([]oracle, len(shapes))
				for s, shape := range shapes {
					for _, fn := range fns {
						wants[s].reduce = append(wants[s].reduce, refReduce(pt, shape.Shares, fn.fn))
					}
					wants[s].group = refGroup(pt, shape.Shares)
					wants[s].join = refJoin(pt, shape.Shares, rotate(shape.Shares))
					wants[s].redist = refExchange(pt, shape.Shares)
				}
				err := dist.RunConfig(dist.Config{Transport: transport}, p, 5, func(w *dist.Worker) error {
					r := w.Rank()
					for s, shape := range shapes {
						local, want := shape.Shares[r], wants[s]
						before := slices.Clone(local)
						for f, fn := range fns {
							got, err := ReduceByKey(w, pt, local, fn.fn)
							if err != nil {
								return err
							}
							if !slices.Equal(got, want.reduce[f][r]) {
								t.Errorf("%s: ReduceByKey(%s) on PE %d = %v, want %v", shape.Name, fn.name, r, got, want.reduce[f][r])
							}
						}
						groups, err := GroupByKey(w, pt, local)
						if err != nil {
							return err
						}
						if !slices.EqualFunc(groups, want.group[r], sameGroup) {
							t.Errorf("%s: GroupByKey on PE %d = %v, want %v", shape.Name, r, groups, want.group[r])
						}
						rows, err := join(w, pt, local, rotate(shape.Shares)[r])
						if err != nil {
							return err
						}
						if !slices.Equal(rows, want.join[r]) {
							t.Errorf("%s: Join on PE %d: %d rows differ from the oracle's %d", shape.Name, r, len(rows), len(want.join[r]))
						}
						red, err := RedistributeByKey(w, pt, local)
						if err != nil {
							return err
						}
						if !slices.Equal(red.After, want.redist[r]) {
							t.Errorf("%s: RedistributeByKey on PE %d = %v, want %v", shape.Name, r, red.After, want.redist[r])
						}
						if !slices.Equal(local, before) {
							t.Errorf("%s: PE %d's input was modified", shape.Name, r)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestBadPairPayloadIsRejected sends a PE a payload that is not whole
// pairs: the operation must fail with ErrBadPairPayload naming the
// source, not truncate.
func TestBadPairPayloadIsRejected(t *testing.T) {
	var got error
	err := dist.RunConfig(dist.Config{}, 2, 3, func(w *dist.Worker) error {
		if w.Rank() == 1 {
			_, err := w.Coll.AllToAllBytes([][]byte{make([]byte, 3*pairBytes+8), nil}, nil)
			return err
		}
		_, got = ReduceByKey(w, NewPartitioner(1, 2), []data.Pair{{Key: 1, Value: 2}}, SumFn)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, ErrBadPairPayload) || !strings.Contains(got.Error(), "PE 1") {
		t.Fatalf("ReduceByKey on a 56-byte payload from PE 1 returned %v, want ErrBadPairPayload naming PE 1", got)
	}
}

// FuzzPairPayload feeds the receive path bytes a peer controls: a
// payload is rejected with ErrBadPairPayload or decodes to pairs that
// the send path encodes back to the same bytes and that fold like the
// oracle; it never panics.
func FuzzPairPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, pairBytes))
	f.Add(bytes.Repeat([]byte{0xff}, 2*pairBytes))
	f.Add(make([]byte, pairBytes+8))
	f.Add([]byte{1, 2, 3})
	w, pt := soloWorker(f), NewPartitioner(1, 1)
	f.Fuzz(func(t *testing.T, b []byte) {
		err := checkPayload(0, b, pairBytes, ErrBadPairPayload)
		if len(b)%pairBytes != 0 {
			if !errors.Is(err, ErrBadPairPayload) {
				t.Fatalf("%d bytes: got %v, want ErrBadPairPayload", len(b), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%d bytes of whole pairs rejected: %v", len(b), err)
		}
		ps := appendPairs(nil, b)
		k := getKernel()
		defer k.release()
		got, _, err := k.exchange(w, pt, ps)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[0], b) {
			t.Fatalf("round trip changed the payload: %x -> %x", b, got[0])
		}
		if err := k.reset(len(ps)); err != nil {
			t.Fatal(err)
		}
		k.foldPayload(b, xorFn)
		folded := slices.Clone(k.pairs)
		data.SortPairsByKey(folded)
		want := combineLocal(ps, xorFn)
		data.SortPairsByKey(want)
		if !slices.Equal(folded, want) {
			t.Fatalf("fold of %x = %v, want %v", b, folded, want)
		}
	})
}
