package collective

import (
	"errors"
	"testing"

	"repro/internal/comm"
)

// sumOp is the elementwise-add ReduceOp used by the recycle tests.
func sumOp(dst, src []uint64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// TestSubBlocksDisjoint checks sibling sub-communicators get disjoint
// tag blocks inside the root's space.
func TestSubBlocksDisjoint(t *testing.T) {
	net := comm.NewMemNetworkTimeout(1, 0)
	defer net.Close()
	root := New(net.Endpoint(0))
	a, err := root.Sub()
	if err != nil {
		t.Fatal(err)
	}
	b, err := root.Sub()
	if err != nil {
		t.Fatal(err)
	}
	alo, ahi := a.Block()
	blo, bhi := b.Block()
	if alo >= ahi || blo >= bhi {
		t.Fatalf("degenerate blocks [%d,%d) [%d,%d)", alo, ahi, blo, bhi)
	}
	if ahi > blo && bhi > alo {
		t.Fatalf("sibling blocks overlap: [%d,%d) and [%d,%d)", alo, ahi, blo, bhi)
	}
}

// TestSubDepthExhaustion checks sub-communicators do not nest: Sub on
// a sub fails with the explicit ErrTagSpaceExhausted, never a silent
// tag collision.
func TestSubDepthExhaustion(t *testing.T) {
	net := comm.NewMemNetworkTimeout(1, 0)
	defer net.Close()
	sub, err := New(net.Endpoint(0)).Sub()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Sub(); !errors.Is(err, ErrTagSpaceExhausted) {
		t.Fatalf("Sub on a sub-communicator: %v, want ErrTagSpaceExhausted", err)
	}
}

// smallRoot returns a root communicator over ep whose child space holds
// only blocks blocks: the real root holds about 2^38, far too many to
// exhaust in a test.
func smallRoot(ep comm.Endpoint, blocks int64) *Comm {
	root := New(ep)
	root.kids = &childSpace{span: subTagSpan, next: subTagBase, limit: subTagBase + blocks*subTagSpan}
	return root
}

// TestSubWidthExhaustionAndRecycle fills a root's child space, hits
// the explicit exhaustion error, then releases one child and checks its
// block is recycled to the next Sub.
func TestSubWidthExhaustionAndRecycle(t *testing.T) {
	net := comm.NewMemNetworkTimeout(1, 0)
	defer net.Close()
	const blocks = 8
	root := smallRoot(net.Endpoint(0), blocks)
	var kids []*Comm
	for {
		k, err := root.Sub()
		if err != nil {
			if !errors.Is(err, ErrTagSpaceExhausted) {
				t.Fatalf("kid %d: %v, want ErrTagSpaceExhausted", len(kids), err)
			}
			break
		}
		kids = append(kids, k)
		if len(kids) > blocks {
			t.Fatal("child space never exhausted")
		}
	}
	if len(kids) != blocks {
		t.Fatalf("%d children allocated before exhaustion, want %d", len(kids), blocks)
	}

	victim := kids[len(kids)/2]
	vlo, vhi := victim.Block()
	victim.Release()
	reborn, err := root.Sub()
	if err != nil {
		t.Fatalf("Sub after Release: %v", err)
	}
	rlo, rhi := reborn.Block()
	if rlo != vlo || rhi != vhi {
		t.Fatalf("recycle gave [%d,%d), want the released [%d,%d)", rlo, rhi, vlo, vhi)
	}
}

// TestReleaseIsIdempotent double-releases one sub and checks the block
// is recycled exactly once (a second release must not corrupt the free
// list by duplicating the block).
func TestReleaseIsIdempotent(t *testing.T) {
	net := comm.NewMemNetworkTimeout(1, 0)
	defer net.Close()
	root := smallRoot(net.Endpoint(0), 4)
	a, err := root.Sub()
	if err != nil {
		t.Fatal(err)
	}
	alo, _ := a.Block()
	a.Release()
	a.Release() // must be a no-op

	b, err := root.Sub()
	if err != nil {
		t.Fatal(err)
	}
	c, err := root.Sub()
	if err != nil {
		t.Fatal(err)
	}
	blo, _ := b.Block()
	clo, _ := c.Block()
	if blo != alo {
		t.Fatalf("first realloc got %d, want recycled %d", blo, alo)
	}
	if clo == alo {
		t.Fatalf("double release duplicated block %d in the free list", alo)
	}
}

// TestSubRecycledBlockCarriesTraffic reuses a released block for real
// collectives: a fresh sub on the recycled tags must work end to end.
func TestSubRecycledBlockCarriesTraffic(t *testing.T) {
	const p = 3
	net := comm.NewMemNetworkTimeout(p, 0)
	defer net.Close()
	comms := make([]*Comm, p)
	for r := range comms {
		comms[r] = New(net.Endpoint(r))
	}
	run := func(f func(r int, c *Comm) error) {
		t.Helper()
		errs := make(chan error, p)
		for r := 0; r < p; r++ {
			go func(r int) { errs <- f(r, comms[r]) }(r)
		}
		for i := 0; i < p; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}

	subs := make([]*Comm, p)
	run(func(r int, c *Comm) error {
		sub, err := c.Sub()
		if err != nil {
			return err
		}
		subs[r] = sub
		_, err = sub.AllReduce([]uint64{uint64(r)}, sumOp)
		return err
	})
	blocks := make([][2]int, p)
	for r, s := range subs {
		lo, hi := s.Block()
		blocks[r] = [2]int{lo, hi}
		s.Release()
	}

	// Remint on every rank: must land on the same recycled block and
	// carry a fresh round of traffic.
	run(func(r int, c *Comm) error {
		sub, err := c.Sub()
		if err != nil {
			return err
		}
		if lo, hi := sub.Block(); lo != blocks[r][0] || hi != blocks[r][1] {
			t.Errorf("rank %d: remint got [%d,%d), want recycled [%d,%d)", r, lo, hi, blocks[r][0], blocks[r][1])
		}
		got, err := sub.AllReduce([]uint64{uint64(r) + 1}, sumOp)
		if err != nil {
			return err
		}
		if want := uint64(p * (p + 1) / 2); got[0] != want {
			t.Errorf("rank %d: recycled-block allreduce = %d, want %d", r, got[0], want)
		}
		return nil
	})
}

// TestAbortPoisonsOnlyOwnBlock aborts one sub and checks a sibling's
// receives are untouched while the aborted block fails fast.
func TestAbortPoisonsOnlyOwnBlock(t *testing.T) {
	net := comm.NewMemNetworkTimeout(2, 0)
	defer net.Close()
	c0, c1 := New(net.Endpoint(0)), New(net.Endpoint(1))
	mk := func(c *Comm) (*Comm, *Comm) {
		a, err := c.Sub()
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Sub()
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	a0, b0 := mk(c0)
	a1, b1 := mk(c1)
	_ = a1

	cause := errors.New("chaos")
	a0.Abort(cause)

	// The aborted block on rank 0 fails immediately: rank 0 receives in
	// a Reduce.
	if _, err := a0.Reduce([]uint64{7}, OpSum); err == nil {
		t.Fatal("aborted sub still works")
	}
	// The sibling still carries collectives end to end.
	errs := make(chan error, 2)
	var got0, got1 []uint64
	go func() { v, err := b0.Broadcast([]uint64{41}); got0 = v; errs <- err }()
	go func() { v, err := b1.Broadcast(nil); got1 = v; errs <- err }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("sibling broadcast after abort: %v", err)
		}
	}
	if len(got0) != 1 || got0[0] != 41 || len(got1) != 1 || got1[0] != 41 {
		t.Fatalf("sibling broadcast got %v/%v, want [41]", got0, got1)
	}
}
