package service

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/ops"
)

// reshardCfg is the checker configuration the reshard runs under in
// these tests: two paired 32-bit Tab functions, the configuration
// TestReshardPinned's digests were derived with. The tests hold the
// reshard path to its bit identity, not to the permutation default,
// which a replay without options takes (DefaultOptions().Perm).
var reshardCfg = core.PermConfig{Family: hashing.FamilyTab, LogH: 32, Iterations: 2}

// deadShare is n seeded pairs over 4 096 keys: the share of a rank that
// died.
func deadShare(n int, seed uint64) []data.Pair {
	rng := hashing.NewMT19937_64(seed)
	share := make([]data.Pair, n)
	for i := range share {
		share[i] = data.Pair{Key: rng.Uint64() % 4096, Value: rng.Uint64() % (1 << 20)}
	}
	return share
}

// reshardRank is what one rank saw of a reshard: the pairs it received,
// the sealed state, and what its communicator sent during the call.
type reshardRank struct {
	got         []data.Pair
	st          core.CheckState
	bytes, msgs int64
	err         error
}

// runReshard runs reshard on every worker at once, the dead share held
// at holder.
func runReshard(workers []*dist.Worker, holder int, share []data.Pair) []reshardRank {
	out := make([]reshardRank, len(workers))
	var wg sync.WaitGroup
	for r, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []data.Pair
			if r == holder {
				held = share
			}
			b0, m0 := w.Coll.BytesSent(), w.Coll.MsgsSent()
			o := &out[r]
			o.got, o.st, o.err = reshard(w, reshardCfg, held)
			o.bytes, o.msgs = w.Coll.BytesSent()-b0, w.Coll.MsgsSent()-m0
		}()
	}
	wg.Wait()
	return out
}

// TestReshardMoves asserts the recovery move end to end: the union of
// what the survivors received is exactly the dead share (as a multiset)
// and every pair landed on the PE the reshard partitioner names.
func TestReshardMoves(t *testing.T) {
	const p, holder = 3, 1
	share := deadShare(500, 5)
	net := comm.NewMemNetwork(p)
	defer net.Close()
	workers, err := dist.NewWorkers(net, 17)
	if err != nil {
		t.Fatal(err)
	}
	ranks := runReshard(workers, holder, share)

	// The partitioner is keyed off the mesh's common seed, derived here
	// the way reshard derives it.
	seed, err := workers[0].CommonSeed()
	if err != nil {
		t.Fatal(err)
	}
	pt := ops.NewPartitioner(hashing.Mix64(seed^reshardSeedDomain), p)
	var got []data.Pair
	for r, rk := range ranks {
		if rk.err != nil {
			t.Fatalf("rank %d: %v", r, rk.err)
		}
		for _, pr := range rk.got {
			if pt.PE(pr.Key) != r {
				t.Fatalf("pair %v landed on rank %d, want %d", pr, r, pt.PE(pr.Key))
			}
		}
		got = append(got, rk.got...)
	}

	if len(got) != len(share) {
		t.Fatalf("received %d pairs, dead share had %d", len(got), len(share))
	}
	want := slices.Clone(share)
	less := func(ps []data.Pair) func(i, j int) bool {
		return func(i, j int) bool {
			if ps[i].Key != ps[j].Key {
				return ps[i].Key < ps[j].Key
			}
			return ps[i].Value < ps[j].Value
		}
	}
	sort.Slice(got, less(got))
	sort.Slice(want, less(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("multiset differs at %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// flipOnce corrupts the first payload of at least one pair sent after
// it is armed: with the common seed cached by NewWorkers, that is the
// reshard's exchange.
type flipOnce struct {
	comm.Network
	mu    sync.Mutex
	armed bool
}

type flipOnceEndpoint struct {
	comm.Endpoint
	net *flipOnce
}

func (n *flipOnce) Endpoint(rank int) comm.Endpoint {
	return &flipOnceEndpoint{Endpoint: n.Network.Endpoint(rank), net: n}
}

func (e *flipOnceEndpoint) Send(dst, tag int, payload []byte) error {
	e.net.mu.Lock()
	if e.net.armed && len(payload) >= 16 {
		payload = append([]byte(nil), payload...)
		payload[8] ^= 1 // one bit of the first pair's value
		e.net.armed = false
	}
	e.net.mu.Unlock()
	return e.Endpoint.Send(dst, tag, payload)
}

// TestReshardRejectsCorruptMove flips one bit in the resharded data in
// flight: the redistribution checker must refuse the move on every
// rank rather than hand a survivor corrupt recovery input.
func TestReshardRejectsCorruptMove(t *testing.T) {
	const p, holder = 3, 1
	inner := comm.NewMemNetwork(p)
	defer inner.Close()
	fo := &flipOnce{Network: inner}
	workers, err := dist.NewWorkers(fo, 17)
	if err != nil {
		t.Fatal(err)
	}
	fo.mu.Lock()
	fo.armed = true
	fo.mu.Unlock()

	for r, rk := range runReshard(workers, holder, deadShare(300, 9)) {
		if !errors.Is(rk.err, errReshardRejected) {
			t.Errorf("rank %d: error %v, want errReshardRejected", r, rk.err)
		}
	}
}

// reshardPins are the digests of every rank's received pairs, sealed
// state words and local predicate, and bytes and messages sent, on a
// p-PE mem mesh with the dead share of n pairs held at holder. They
// were computed by the earlier reshard, which accumulated 256-pair
// retention chunks through merged builders and moved them with a word
// all-to-all; the move through ops.RedistributeByKey and
// core.NewRedistState must reproduce them bit for bit.
var reshardPins = []struct {
	p, n, holder int
	digest       uint64
}{
	{1, 0, 0, 0x28a934cb677026a5},
	{1, 1, 0, 0x3d9058571cfa3325},
	{1, 255, 0, 0xd0df41dc3acecd33},
	{1, 256, 0, 0x4dcc2ba606859f88},
	{1, 257, 0, 0x4a7b9fc2ca31e648},
	{1, 5000, 0, 0xff84cc6d8fe27ccb},
	{2, 0, 0, 0xbe32b9426c9877bd},
	{2, 0, 1, 0xbe32b9426c9877bd},
	{2, 1, 0, 0xda5a8850e707e43d},
	{2, 1, 1, 0x9530ec1b1a48ba13},
	{2, 255, 0, 0x396c2194317ea459},
	{2, 255, 1, 0xaefe0549c40db4c4},
	{2, 256, 0, 0x7d2965f08bdb112f},
	{2, 256, 1, 0x338cde27f7e597d0},
	{2, 257, 0, 0xa2c8ff6ed66b8827},
	{2, 257, 1, 0x7a62af2f2be22610},
	{2, 5000, 0, 0xf125c698273c6faf},
	{2, 5000, 1, 0x5cbe335f1858b711},
	{3, 0, 0, 0x1830093c0c14a071},
	{3, 0, 2, 0x1830093c0c14a071},
	{3, 1, 0, 0xe328946cc8413fdf},
	{3, 1, 2, 0xc5e6aa6ac9c86aa7},
	{3, 255, 0, 0x70435b1b4b4aeee3},
	{3, 255, 2, 0xb375cd5830233665},
	{3, 256, 0, 0x83aab332457226af},
	{3, 256, 2, 0x932b55938251fe91},
	{3, 257, 0, 0x6cd6384587755f29},
	{3, 257, 2, 0x7f0726f0517720b9},
	{3, 5000, 0, 0xc4b4468726af9d17},
	{3, 5000, 2, 0x1ca2e1a3418bd0ad},
	{4, 0, 0, 0x0e74763005d61aad},
	{4, 0, 3, 0x0e74763005d61aad},
	{4, 1, 0, 0x072585870328472d},
	{4, 1, 3, 0xf575a1eb0f841b5f},
	{4, 255, 0, 0x9ac756c307480fcd},
	{4, 255, 3, 0xb0acefeac578153b},
	{4, 256, 0, 0xc91c607bfe2e8ebb},
	{4, 256, 3, 0xbc8c9d11444f5a3a},
	{4, 257, 0, 0xe6c9968e13d1d275},
	{4, 257, 3, 0x5974d281bc96a9ad},
	{4, 5000, 0, 0xefcbcb04ecebc688},
	{4, 5000, 3, 0x6ba489275367c595},
	{5, 0, 0, 0xd8dc505ff21d60b1},
	{5, 0, 4, 0xd8dc505ff21d60b1},
	{5, 1, 0, 0x0a90406b378f4aab},
	{5, 1, 4, 0x993b520452b92f95},
	{5, 255, 0, 0xfd5a69f724b681e9},
	{5, 255, 4, 0x76f4ca79c95c54fa},
	{5, 256, 0, 0x7be80a5f3faae036},
	{5, 256, 4, 0x58eee8368e3a937b},
	{5, 257, 0, 0x71397f60fb0649c8},
	{5, 257, 4, 0xf1e1442ba5c58b98},
	{5, 5000, 0, 0x6bc973c55834c71f},
	{5, 5000, 4, 0xe791439ba4ef5183},
	{8, 0, 0, 0xc5b7d8cffd76705d},
	{8, 0, 7, 0xc5b7d8cffd76705d},
	{8, 1, 0, 0xbbc12d735af96df7},
	{8, 1, 7, 0x619476ab8b58fb73},
	{8, 255, 0, 0x571fdfdf0c1df41b},
	{8, 255, 7, 0xfea515a9d101b238},
	{8, 256, 0, 0xbb0c4d127c7c1b3b},
	{8, 256, 7, 0x15664402f464b127},
	{8, 257, 0, 0xad43b1ea94ab3f3a},
	{8, 257, 7, 0x18d291786a931058},
	{8, 5000, 0, 0xf22d7a9524736abb},
	{8, 5000, 7, 0x696d7f489071dbe9},
}

// TestReshardPinned holds the reshard to its pinned digests over the
// grid of mesh sizes, dead-share sizes around the old chunk boundary,
// and a holder at either end of the view.
func TestReshardPinned(t *testing.T) {
	for _, pin := range reshardPins {
		net := comm.NewMemNetwork(pin.p)
		workers, err := dist.NewWorkers(net, 17)
		if err != nil {
			net.Close()
			t.Fatal(err)
		}
		ranks := runReshard(workers, pin.holder, deadShare(pin.n, uint64(pin.n)+1))
		net.Close()
		h := fnv.New64a()
		put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
		for r, rk := range ranks {
			if rk.err != nil {
				t.Fatalf("p=%d n=%d holder=%d rank %d: %v", pin.p, pin.n, pin.holder, r, rk.err)
			}
			put(uint64(len(rk.got)))
			for _, pr := range rk.got {
				put(pr.Key)
				put(pr.Value)
			}
			words := rk.st.Words()
			put(uint64(len(words)))
			for _, w := range words {
				put(w)
			}
			ok := uint64(0)
			if rk.st.LocalOK() {
				ok = 1
			}
			put(ok)
			put(uint64(rk.bytes))
			put(uint64(rk.msgs))
		}
		if got := h.Sum64(); got != pin.digest {
			t.Errorf("p=%d n=%d holder=%d: digest %#016x, pinned %#016x", pin.p, pin.n, pin.holder, got, pin.digest)
		}
	}
}

// TestJobRetention pins the job-held retention: every member keeps a
// copy of its own share and its ring predecessor's share, so a share's
// replica sits at its ring successor in the submit view (physical
// ranks through a survivor view's renumbering); a one-member view
// holds no replica; and a replay that lost a second member is refused.
func TestJobRetention(t *testing.T) {
	members := []int{0, 2, 3}
	net := comm.NewMemNetwork(4)
	defer net.Close()
	workers, err := dist.NewWorkers(net, 17)
	if err != nil {
		t.Fatal(err)
	}
	shares := [][]data.Pair{deadShare(10, 1), nil, deadShare(7, 3)}
	kept := make([]retained, 4)
	var wg sync.WaitGroup
	errs := make([]error, len(members))
	for i, phys := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub, err := workers[phys].Coll.SubMembers(members)
			if err != nil {
				errs[i] = err
				return
			}
			defer sub.Release()
			errs[i] = retain(&kept[phys], sub, shares[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", members[i], err)
		}
	}
	for i, phys := range members {
		pi := (i + len(members) - 1) % len(members)
		k := kept[phys]
		if !slices.Equal(k.own, shares[i]) || !slices.Equal(k.replica, shares[pi]) || k.pred != members[pi] {
			t.Fatalf("PE %d kept own %d pairs, replica %d pairs of PE %d; want %d, %d of PE %d",
				phys, len(k.own), len(k.replica), k.pred, len(shares[i]), len(shares[pi]), members[pi])
		}
	}
	if &kept[0].own[0] == &shares[0][0] {
		t.Fatal("own share retained without a copy")
	}

	solo := comm.NewMemNetwork(1)
	defer solo.Close()
	one, err := dist.NewWorkers(solo, 17)
	if err != nil {
		t.Fatal(err)
	}
	var k retained
	if err := retain(&k, one[0].Coll, shares[0]); err != nil || k.pred != -1 || k.replica != nil || len(k.own) != len(shares[0]) {
		t.Fatalf("one-member view kept %+v, %v", k, err)
	}

	// PE 1 died, and PE 2 — the holder of its replica — is gone too.
	pool := &Pool{view: dist.FullView(4).Remove(1).Remove(2)}
	j := &Job{id: 3, name: "double", members: []int{0, 1, 2, 3}}
	if err := pool.recoverJob(j, jobSpec{}, 1); err == nil || !strings.Contains(err.Error(), "double failure") {
		t.Fatalf("double failure: %v", err)
	}
	alone := &Pool{view: dist.FullView(1).Remove(0)}
	if err := alone.recoverJob(&Job{id: 4, name: "alone", members: []int{0}}, jobSpec{}, 0); err == nil || !strings.Contains(err.Error(), "no survivor view") {
		t.Fatalf("lone member: %v", err)
	}
}
