package dist

import "testing"

// TestViewRemoveIdempotent pins what lets a conviction repeat
// harmlessly: removals commute and a duplicate is the identity.
func TestViewRemoveIdempotent(t *testing.T) {
	v := FullView(4)
	v1 := v.Remove(2)
	if v1.Epoch() != 1 || v1.Contains(2) {
		t.Fatalf("first removal: %v", v1)
	}
	v2 := v1.Remove(2)
	if v2.Epoch() != v1.Epoch() || v2.Size() != v1.Size() {
		t.Fatalf("duplicate removal changed the view: %v", v2)
	}
	// Different orders converge to the same membership and epoch.
	a := v.Remove(1).Remove(3)
	b := v.Remove(3).Remove(1)
	if a.Epoch() != b.Epoch() || a.Size() != b.Size() {
		t.Fatalf("order-dependent views: %v vs %v", a, b)
	}
	am, bm := a.Members(), b.Members()
	for i := range am {
		if am[i] != bm[i] {
			t.Fatalf("order-dependent members: %v vs %v", am, bm)
		}
	}
}
