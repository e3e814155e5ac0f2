package dist

import (
	"fmt"
	"sort"
)

// View is an epoch-numbered membership snapshot: the physical endpoint
// ranks currently believed alive, in ascending order. Epoch counts
// removals, so two views that applied the same set of deaths report
// the same epoch and the same member list in any order of removal.
//
// A View is immutable; Remove returns a derived View. The zero View is
// invalid — start from FullView.
type View struct {
	epoch   int
	members []int
}

// FullView is epoch 0 over ranks 0..p-1 — the view every PE starts
// from, agreed by construction.
func FullView(p int) View {
	m := make([]int, p)
	for i := range m {
		m[i] = i
	}
	return View{members: m}
}

// Epoch returns the number of removals this view has applied.
func (v View) Epoch() int { return v.epoch }

// Size returns the number of live members.
func (v View) Size() int { return len(v.members) }

// Members returns the live physical ranks in ascending order. The
// slice is a copy.
func (v View) Members() []int { return append([]int(nil), v.members...) }

// Index returns rank's logical position in the view, or -1 if it is
// not a member.
func (v View) Index(rank int) int {
	i := sort.SearchInts(v.members, rank)
	if i < len(v.members) && v.members[i] == rank {
		return i
	}
	return -1
}

// Contains reports whether rank is a live member.
func (v View) Contains(rank int) bool { return v.Index(rank) >= 0 }

// Remove returns the view with rank deleted and the epoch advanced.
// Removing a non-member is the identity, so a repeated conviction
// never counts twice.
func (v View) Remove(rank int) View {
	i := v.Index(rank)
	if i < 0 {
		return v
	}
	m := make([]int, 0, len(v.members)-1)
	m = append(m, v.members[:i]...)
	m = append(m, v.members[i+1:]...)
	return View{epoch: v.epoch + 1, members: m}
}

// String renders the view for logs and errors.
func (v View) String() string {
	return fmt.Sprintf("view{epoch=%d members=%v}", v.epoch, v.members)
}
