package ops

import (
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/workload"
)

// xorFn combines bitwise, the other operator Theorem 1 covers.
func xorFn(a, b uint64) uint64 { return a ^ b }

// shard returns PE r's share of a global slice.
func shard(xs []uint64, p, r int) []uint64 {
	s, e := data.SplitEven(len(xs), p, r)
	return xs[s:e]
}

func shardPairs(ps []data.Pair, p, r int) []data.Pair {
	s, e := data.SplitEven(len(ps), p, r)
	return ps[s:e]
}

var testSizes = []int{1, 2, 3, 4, 7, 8}

// encodePairs flattens pairs for transport: key, value per pair.
func encodePairs(ps []data.Pair) []uint64 {
	out := make([]uint64, 0, 2*len(ps))
	for _, p := range ps {
		out = append(out, p.Key, p.Value)
	}
	return out
}

// decodePairs parses a flat pair payload.
func decodePairs(ws []uint64) []data.Pair {
	out := make([]data.Pair, 0, len(ws)/2)
	for i := 0; i+1 < len(ws); i += 2 {
		out = append(out, data.Pair{Key: ws[i], Value: ws[i+1]})
	}
	return out
}

func TestReduceByKeyMatchesSequential(t *testing.T) {
	global := workload.ZipfPairs(5000, 200, 1000, 1)
	want := data.PairsToMapSum(global)
	for _, p := range testSizes {
		p := p
		gathered := make(map[uint64]uint64)
		err := dist.RunConfig(dist.Config{}, p, 7, func(w *dist.Worker) error {
			pt := NewPartitioner(3, p)
			out, err := ReduceByKey(w, pt, shardPairs(global, p, w.Rank()), SumFn)
			if err != nil {
				return err
			}
			// Each key must live on its partition PE.
			for _, pr := range out {
				if pt.PE(pr.Key) != w.Rank() {
					t.Errorf("p=%d: key %d on wrong PE %d", p, pr.Key, w.Rank())
				}
			}
			all, err := w.Coll.Gather(encodePairs(out))
			if err != nil {
				return err
			}
			if w.Rank() == 0 {
				for _, ws := range all {
					for _, pr := range decodePairs(ws) {
						gathered[pr.Key] = pr.Value
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if len(gathered) != len(want) {
			t.Fatalf("p=%d: %d keys, want %d", p, len(gathered), len(want))
		}
		for k, v := range want {
			if gathered[k] != v {
				t.Fatalf("p=%d: key %d = %d, want %d", p, k, gathered[k], v)
			}
		}
	}
}

func TestReduceByKeyXor(t *testing.T) {
	global := workload.UniformPairs(2000, 50, 1<<40, 2)
	want := make(map[uint64]uint64)
	for _, pr := range global {
		want[pr.Key] ^= pr.Value
	}
	const p = 4
	got := make(map[uint64]uint64)
	err := dist.RunConfig(dist.Config{}, p, 7, func(w *dist.Worker) error {
		out, err := ReduceByKey(w, NewPartitioner(3, p), shardPairs(global, p, w.Rank()), xorFn)
		if err != nil {
			return err
		}
		all, err := w.Coll.Gather(encodePairs(out))
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			for _, ws := range all {
				for _, pr := range decodePairs(ws) {
					got[pr.Key] = pr.Value
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d = %d, want %d", k, got[k], v)
		}
	}
}

func TestGroupByKeyCollectsAllValues(t *testing.T) {
	global := workload.UniformPairs(3000, 40, 100, 3)
	want := make(map[uint64]int)
	for _, pr := range global {
		want[pr.Key]++
	}
	const p = 5
	got := make(map[uint64]int)
	err := dist.RunConfig(dist.Config{}, p, 7, func(w *dist.Worker) error {
		groups, err := GroupByKey(w, NewPartitioner(9, p), shardPairs(global, p, w.Rank()))
		if err != nil {
			return err
		}
		flat := []uint64{}
		for _, g := range groups {
			if !data.IsSortedU64(g.Values) {
				t.Errorf("group %d values not sorted", g.Key)
			}
			flat = append(flat, g.Key, uint64(len(g.Values)))
		}
		all, err := w.Coll.Gather(flat)
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			for _, ws := range all {
				for i := 0; i+2 <= len(ws); i += 2 {
					got[ws[i]] += int(ws[i+1])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("key %d has %d values, want %d", k, got[k], c)
		}
	}
}

func TestSortProducesGlobalOrder(t *testing.T) {
	global := workload.UniformU64s(4000, 1e9, 4)
	for _, p := range testSizes {
		p := p
		shares := make([][]uint64, p)
		err := dist.RunConfig(dist.Config{}, p, 7, func(w *dist.Worker) error {
			out, err := Sort(w, shard(global, p, w.Rank()))
			if err != nil {
				return err
			}
			shares[w.Rank()] = out
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		var all []uint64
		for r := 0; r < p; r++ {
			if !data.IsSortedU64(shares[r]) {
				t.Fatalf("p=%d: share %d not locally sorted", p, r)
			}
			if r > 0 && len(shares[r-1]) > 0 && len(shares[r]) > 0 {
				if shares[r-1][len(shares[r-1])-1] > shares[r][0] {
					t.Fatalf("p=%d: boundary violation between %d and %d", p, r-1, r)
				}
			}
			all = append(all, shares[r]...)
		}
		if len(all) != len(global) {
			t.Fatalf("p=%d: lost elements: %d vs %d", p, len(all), len(global))
		}
		ref := data.CloneU64s(global)
		data.SortU64(ref)
		for i := range ref {
			if all[i] != ref[i] {
				t.Fatalf("p=%d: element %d = %d, want %d", p, i, all[i], ref[i])
			}
		}
	}
}

func TestSortWithDuplicatesAndEmptyShares(t *testing.T) {
	global := make([]uint64, 500)
	for i := range global {
		global[i] = uint64(i % 3) // heavy duplication
	}
	const p = 4
	// Give PE 0 everything, others nothing: skewed input distribution.
	err := dist.RunConfig(dist.Config{}, p, 7, func(w *dist.Worker) error {
		var local []uint64
		if w.Rank() == 0 {
			local = global
		}
		out, err := Sort(w, local)
		if err != nil {
			return err
		}
		if !data.IsSortedU64(out) {
			t.Errorf("share %d not sorted", w.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMergeTwoSortedSequences(t *testing.T) {
	a := workload.UniformU64s(1500, 1e6, 5)
	b := workload.UniformU64s(2500, 1e6, 6)
	data.SortU64(a)
	data.SortU64(b)
	const p = 4
	shares := make([][]uint64, p)
	err := dist.RunConfig(dist.Config{}, p, 7, func(w *dist.Worker) error {
		out, err := Merge(w, shard(a, p, w.Rank()), shard(b, p, w.Rank()))
		if err != nil {
			return err
		}
		shares[w.Rank()] = out
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []uint64
	for r := 0; r < p; r++ {
		if r > 0 && len(shares[r-1]) > 0 && len(shares[r]) > 0 &&
			shares[r-1][len(shares[r-1])-1] > shares[r][0] {
			t.Fatalf("boundary violation at %d", r)
		}
		all = append(all, shares[r]...)
	}
	want := append(data.CloneU64s(a), b...)
	data.SortU64(want)
	if len(all) != len(want) {
		t.Fatalf("length %d, want %d", len(all), len(want))
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("element %d = %d, want %d", i, all[i], want[i])
		}
	}
}

func TestZipMatchesIndexwise(t *testing.T) {
	n := 3000
	a := workload.UniformU64s(n, 1e6, 8)
	b := workload.UniformU64s(n, 1e6, 9)
	const p = 5
	// Deliberately skew b's distribution: PE 0 gets the first half of b.
	bCut := func(r int) (int, int) {
		if r == 0 {
			return 0, n / 2
		}
		s, e := data.SplitEven(n/2, p-1, r-1)
		return n/2 + s, n/2 + e
	}
	results := make([][]data.Pair, p)
	err := dist.RunConfig(dist.Config{}, p, 7, func(w *dist.Worker) error {
		s, e := bCut(w.Rank())
		out, err := Zip(w, shard(a, p, w.Rank()), b[s:e])
		if err != nil {
			return err
		}
		results[w.Rank()] = out
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []data.Pair
	for r := 0; r < p; r++ {
		all = append(all, results[r]...)
	}
	if len(all) != n {
		t.Fatalf("got %d pairs, want %d", len(all), n)
	}
	for i := range all {
		if all[i].Key != a[i] || all[i].Value != b[i] {
			t.Fatalf("pair %d = (%d,%d), want (%d,%d)", i, all[i].Key, all[i].Value, a[i], b[i])
		}
	}
}

func TestZipLengthMismatch(t *testing.T) {
	err := dist.RunConfig(dist.Config{}, 2, 7, func(w *dist.Worker) error {
		var a, b []uint64
		if w.Rank() == 0 {
			a = []uint64{1, 2, 3}
			b = []uint64{1, 2}
		}
		_, err := Zip(w, a, b)
		if err == nil {
			t.Error("expected length mismatch error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUnionIsPermutationOfConcat holds Union to Thrill's local
// contract: PE i returns its share of a followed by its share of b, a
// fresh slice, and starts no collective and sends nothing, at every p.
func TestUnionIsPermutationOfConcat(t *testing.T) {
	a := workload.UniformU64s(1200, 1e6, 10)
	b := workload.UniformU64s(800, 1e6, 11)
	for _, p := range []int{1, 2, 3, 5, 8} {
		err := dist.RunConfig(dist.Config{}, p, 7, func(w *dist.Worker) error {
			la, lb := shard(a, p, w.Rank()), shard(b, p, w.Rank())
			msgs, ops := w.Coll.MsgsSent(), w.Coll.OpsStarted()
			out, err := Union(w, la, lb)
			if err != nil {
				return err
			}
			if got := w.Coll.MsgsSent() - msgs; got != 0 {
				t.Errorf("p=%d PE %d: Union sent %d messages, want 0", p, w.Rank(), got)
			}
			if got := w.Coll.OpsStarted() - ops; got != 0 {
				t.Errorf("p=%d PE %d: Union started %d collectives, want 0", p, w.Rank(), got)
			}
			if want := slices.Concat(la, lb); !slices.Equal(out, want) {
				t.Errorf("p=%d PE %d: Union = %v, want its a share then its b share %v", p, w.Rank(), out, want)
			}
			if len(out) > 0 && len(la) > 0 && &out[0] == &la[0] {
				t.Errorf("p=%d PE %d: Union returned its input's storage", p, w.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// join is the inner hash join as Dataset.Join runs it: both relations
// redistributed by key, then the local step.
func join(w *dist.Worker, pt Partitioner, left, right []data.Pair) ([]JoinRow, error) {
	l, err := RedistributeByKey(w, pt, left)
	if err != nil {
		return nil, err
	}
	r, err := RedistributeByKey(w, pt, right)
	if err != nil {
		return nil, err
	}
	return JoinPairs(l.After, r.After), nil
}

func TestJoinMatchesSequential(t *testing.T) {
	left := workload.UniformPairs(600, 50, 100, 12)
	right := workload.UniformPairs(400, 50, 100, 13)
	// Sequential reference.
	wantCount := make(map[JoinRow]int)
	lv := make(map[uint64][]uint64)
	for _, pr := range left {
		lv[pr.Key] = append(lv[pr.Key], pr.Value)
	}
	for _, pr := range right {
		for _, v := range lv[pr.Key] {
			wantCount[JoinRow{pr.Key, v, pr.Value}]++
		}
	}
	const p = 4
	gotCount := make(map[JoinRow]int)
	err := dist.RunConfig(dist.Config{}, p, 7, func(w *dist.Worker) error {
		rows, err := join(w, NewPartitioner(21, p), shardPairs(left, p, w.Rank()), shardPairs(right, p, w.Rank()))
		if err != nil {
			return err
		}
		flat := make([]uint64, 0, 3*len(rows))
		for _, r := range rows {
			flat = append(flat, r.Key, r.Left, r.Right)
		}
		all, err := w.Coll.Gather(flat)
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			for _, ws := range all {
				for i := 0; i+3 <= len(ws); i += 3 {
					gotCount[JoinRow{ws[i], ws[i+1], ws[i+2]}]++
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotCount) != len(wantCount) {
		t.Fatalf("distinct rows %d, want %d", len(gotCount), len(wantCount))
	}
	for row, c := range wantCount {
		if gotCount[row] != c {
			t.Fatalf("row %+v count %d, want %d", row, gotCount[row], c)
		}
	}
}

func TestMinMaxByKey(t *testing.T) {
	global := workload.UniformPairs(2000, 30, 1e6, 14)
	wantMin := make(map[uint64]uint64)
	wantMax := make(map[uint64]uint64)
	for _, pr := range global {
		if v, ok := wantMin[pr.Key]; !ok || pr.Value < v {
			wantMin[pr.Key] = pr.Value
		}
		if v, ok := wantMax[pr.Key]; !ok || pr.Value > v {
			wantMax[pr.Key] = pr.Value
		}
	}
	const p = 4
	err := dist.RunConfig(dist.Config{}, p, 7, func(w *dist.Worker) error {
		local := shardPairs(global, p, w.Rank())
		pt := NewPartitioner(5, p)
		mins, err := MinByKey(w, pt, local)
		if err != nil {
			return err
		}
		maxs, err := MaxByKey(w, pt, local)
		if err != nil {
			return err
		}
		if len(mins.Result) != len(wantMin) {
			t.Errorf("rank %d: %d min keys, want %d", w.Rank(), len(mins.Result), len(wantMin))
		}
		for _, pr := range mins.Result {
			if wantMin[pr.Key] != pr.Value {
				t.Errorf("min[%d] = %d, want %d", pr.Key, pr.Value, wantMin[pr.Key])
			}
			witness, ok := mins.Witness[pr.Key]
			if !ok {
				t.Errorf("no witness for key %d", pr.Key)
				continue
			}
			// The witness PE must actually hold an element with this value.
			ws, we := data.SplitEven(len(global), p, witness)
			found := false
			for _, q := range global[ws:we] {
				if q.Key == pr.Key && q.Value == pr.Value {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("witness %d does not hold min of key %d", witness, pr.Key)
			}
		}
		for _, pr := range maxs.Result {
			if wantMax[pr.Key] != pr.Value {
				t.Errorf("max[%d] = %d, want %d", pr.Key, pr.Value, wantMax[pr.Key])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMedianByKey(t *testing.T) {
	global := workload.UniformPairs(3000, 20, 1e6, 15)
	byKey := make(map[uint64][]uint64)
	for _, pr := range global {
		byKey[pr.Key] = append(byKey[pr.Key], pr.Value)
	}
	want := make(map[uint64]uint64)
	for k, vs := range byKey {
		data.SortU64(vs)
		want[k] = MedianOfSorted2(vs)
	}
	const p = 5
	counts := make([]int, p)
	err := dist.RunConfig(dist.Config{}, p, 7, func(w *dist.Worker) error {
		// Per-key medians are GroupByKey followed by MedianOfSorted2 on
		// every group (what Dataset.MedianByKey runs before replicating).
		groups, err := GroupByKey(w, NewPartitioner(5, p), shardPairs(global, p, w.Rank()))
		if err != nil {
			return err
		}
		counts[w.Rank()] = len(groups)
		for _, g := range groups {
			if got := MedianOfSorted2(g.Values); got != want[g.Key] {
				t.Errorf("median2[%d] = %d, want %d", g.Key, got, want[g.Key])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(want) {
		t.Errorf("%d medians over all PEs, want %d", total, len(want))
	}
}

func TestMedianOfSorted2(t *testing.T) {
	cases := []struct {
		vs   []uint64
		want uint64
	}{
		{[]uint64{5}, 10},
		{[]uint64{1, 3}, 4},
		{[]uint64{1, 2, 3}, 4},
		{[]uint64{1, 2, 3, 10}, 5},
		{nil, 0},
	}
	for _, c := range cases {
		if got := MedianOfSorted2(c.vs); got != c.want {
			t.Errorf("MedianOfSorted2(%v) = %d, want %d", c.vs, got, c.want)
		}
	}
}

func TestAverageByKey(t *testing.T) {
	global := workload.UniformPairs(2500, 25, 1000, 16)
	wantSum := make(map[uint64]uint64)
	wantCount := make(map[uint64]uint64)
	for _, pr := range global {
		wantSum[pr.Key] += pr.Value
		wantCount[pr.Key]++
	}
	const p = 4
	gotSum := make(map[uint64]uint64)
	gotCount := make(map[uint64]uint64)
	err := dist.RunConfig(dist.Config{}, p, 7, func(w *dist.Worker) error {
		triples, err := AverageByKey(w, NewPartitioner(5, p), shardPairs(global, p, w.Rank()))
		if err != nil {
			return err
		}
		flat := make([]uint64, 0, 3*len(triples))
		for _, tr := range triples {
			flat = append(flat, tr.Key, tr.Value, tr.Count)
		}
		all, err := w.Coll.Gather(flat)
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			for _, ws := range all {
				for i := 0; i+3 <= len(ws); i += 3 {
					gotSum[ws[i]] = ws[i+1]
					gotCount[ws[i]] = ws[i+2]
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := range wantSum {
		if gotSum[k] != wantSum[k] || gotCount[k] != wantCount[k] {
			t.Fatalf("key %d: (%d,%d), want (%d,%d)", k, gotSum[k], gotCount[k], wantSum[k], wantCount[k])
		}
	}
}

func TestRedistributeByKeyLocality(t *testing.T) {
	global := workload.UniformPairs(2000, 100, 100, 17)
	const p = 4
	err := dist.RunConfig(dist.Config{}, p, 7, func(w *dist.Worker) error {
		pt := NewPartitioner(31, p)
		red, err := RedistributeByKey(w, pt, shardPairs(global, p, w.Rank()))
		if err != nil {
			return err
		}
		for _, pr := range red.After {
			if pt.PE(pr.Key) != w.Rank() {
				t.Errorf("key %d landed on PE %d, want %d", pr.Key, w.Rank(), pt.PE(pr.Key))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPartitionerDeterministicAndBalanced(t *testing.T) {
	pt := NewPartitioner(7, 8)
	pt2 := NewPartitioner(7, 8)
	counts := make([]int, 8)
	for k := uint64(0); k < 8000; k++ {
		if pt.PE(k) != pt2.PE(k) {
			t.Fatal("partitioner not deterministic")
		}
		counts[pt.PE(k)]++
	}
	for pe, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("PE %d got %d of 8000 keys", pe, c)
		}
	}
}
