package core

import (
	"repro/internal/dist"
)

// CheckSorted checks that the distributed sequence output is a sorted
// permutation of the distributed sequence input (Theorem 7):
// permutation property via Lemma 4, local sortedness, and the boundary
// condition that no PE's largest element exceeds the first element of
// any successor. Both properties travel in one all-reduction — the
// boundary condition as a rank-ordered interval merge (see
// SortedState), which replaces the seed's sequential right-to-left
// boundary chain. Time O(Tcheck-perm(n, p, delta)).
func CheckSorted(w *dist.Worker, cfg PermConfig, input, output []uint64) (bool, error) {
	seed, err := w.CommonSeed()
	if err != nil {
		return false, err
	}
	return resolveOne(w, NewSortedState("Sorted", cfg, seed, Serial, [][]uint64{input}, output))
}

// CheckMerge checks Merge(s1, s2) = out (Corollary 13): out must be
// sorted and a permutation of the union of the two sorted inputs.
func CheckMerge(w *dist.Worker, cfg PermConfig, s1, s2, out []uint64) (bool, error) {
	seed, err := w.CommonSeed()
	if err != nil {
		return false, err
	}
	return resolveOne(w, NewSortedState("Merge", cfg, seed, Serial, [][]uint64{s1, s2}, out))
}
