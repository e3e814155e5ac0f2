package collective

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
)

// TestSubMembersCollectives runs collectives on a survivor-view
// sub-communicator: logical ranks renumber contiguously, size is the
// view size, and only the wire addressing sees physical ranks.
func TestSubMembersCollectives(t *testing.T) {
	const p = 4
	members := []int{0, 2, 3} // rank 1 "died"
	net := comm.NewMemNetworkTimeout(p, 0)
	defer net.Close()

	var wg sync.WaitGroup
	errs := make([]error, len(members))
	for i, phys := range members {
		wg.Add(1)
		go func(i, phys int) {
			defer wg.Done()
			sub, err := New(net.Endpoint(phys)).SubMembers(members)
			if err != nil {
				errs[i] = err
				return
			}
			if sub.Rank() != i || sub.Size() != len(members) {
				t.Errorf("phys %d: logical rank/size = %d/%d, want %d/%d",
					phys, sub.Rank(), sub.Size(), i, len(members))
			}
			// AllReduce over the survivors only: sum of physical ranks.
			sum, err := sub.AllReduce([]uint64{uint64(phys)}, OpSum)
			if err != nil {
				errs[i] = err
				return
			}
			if sum[0] != 5 { // 0 + 2 + 3
				t.Errorf("phys %d: allreduce sum %d, want 5", phys, sum[0])
			}
			// Broadcast from the view's root, logical rank 0.
			var in []uint64
			if sub.Rank() == 0 {
				in = []uint64{77}
			}
			got, err := sub.Broadcast(in)
			if err != nil {
				errs[i] = err
				return
			}
			if len(got) != 1 || got[0] != 77 {
				t.Errorf("phys %d: broadcast got %v", phys, got)
			}
			// Both sweeps address the view's logical ranks: the prefix at
			// logical i is the sum of the physical ranks before it.
			prefix, total, err := sub.ExclusiveScan([]uint64{uint64(phys)}, OpSum, []uint64{0})
			if err != nil {
				errs[i] = err
				return
			}
			want := uint64(0)
			for _, m := range members[:i] {
				want += uint64(m)
			}
			if prefix[0] != want || total[0] != 5 {
				t.Errorf("phys %d: scan = %d of %d, want %d of 5", phys, prefix[0], total[0], want)
			}
			errs[i] = sub.Barrier()
		}(i, phys)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d (phys %d): %v", i, members[i], err)
		}
	}
}

// TestSubMembersValidation rejects malformed views.
func TestSubMembersValidation(t *testing.T) {
	net := comm.NewMemNetworkTimeout(4, 0)
	defer net.Close()
	c := New(net.Endpoint(2))
	cases := []struct {
		members []int
		wantSub string
	}{
		{nil, "non-empty"},
		{[]int{2, 0}, "ascending"},
		{[]int{0, 2, 9}, "out of range"},
		{[]int{0, 1, 3}, "does not include"},
	}
	for _, tc := range cases {
		_, err := c.SubMembers(tc.members)
		if err == nil {
			t.Fatalf("SubMembers(%v) accepted", tc.members)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("SubMembers(%v): %v, want mention of %q", tc.members, err, tc.wantSub)
		}
	}
}

// TestSubMembersFullView is the identity mapping: logical == physical.
func TestSubMembersFullView(t *testing.T) {
	const p = 3
	net := comm.NewMemNetworkTimeout(p, 0)
	defer net.Close()
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sub, err := New(net.Endpoint(r)).SubMembers([]int{0, 1, 2})
			if err != nil {
				errs[r] = err
				return
			}
			if sub.Rank() != r {
				t.Errorf("rank %d renumbered to %d under the full view", r, sub.Rank())
			}
			sum, err := sub.AllReduce([]uint64{1}, OpSum)
			if err == nil && sum[0] != p {
				t.Errorf("rank %d: allreduce %d, want %d", r, sum[0], p)
			}
			errs[r] = err
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
