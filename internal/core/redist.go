package core

import (
	"repro/internal/data"
	"repro/internal/dist"
)

// KeyLocator reports which PE is responsible for a key — the contract
// of the redistribution phase of GroupBy and hash Join. ops.Partitioner
// satisfies it.
type KeyLocator interface {
	PE(key uint64) int
}

// CheckRedistribution is the invasive checker for the element
// redistribution phase of GroupBy (Corollary 14) and, applied to each
// relation, of hash Join (Corollary 15). It verifies that the pairs
// after the exchange are
//
//  1. a permutation of the pairs before the exchange (hash-sum
//     fingerprint over pair digests, as in the sort checker whose order
//     is induced by the key-to-PE hash), and
//  2. correctly placed: every received pair's key belongs to this PE
//     under the locator, which pins the hash-induced global order.
//
// The group/join function applied afterwards must be checked by a local
// checker, which the paper scopes out.
func CheckRedistribution(w *dist.Worker, cfg PermConfig, loc KeyLocator, before, after []data.Pair) (bool, error) {
	seed, err := w.CommonSeed()
	if err != nil {
		return false, err
	}
	st := NewRedistState("Redistribution", cfg, seed, Serial, loc, w.Rank(), before, after)
	return resolveOne(w, st)
}

// CheckJoinRedistribution checks the redistribution phase of a hash
// join on two relations (Corollary 15): each relation's movement is
// verified as in CheckRedistribution, and because both use the same
// locator the key partition is consistent across relations — the
// hash-join analogue of the paper's boundary-key exchange for
// sort-merge joins. Both relations' states resolve in one batched
// round.
func CheckJoinRedistribution(w *dist.Worker, cfg PermConfig, loc KeyLocator, leftBefore, leftAfter, rightBefore, rightAfter []data.Pair) (bool, error) {
	seed, err := w.CommonSeed()
	if err != nil {
		return false, err
	}
	stL := NewRedistState("Join/left", cfg, seed, Serial, loc, w.Rank(), leftBefore, leftAfter)
	stR := NewRedistState("Join/right", cfg, seed, Serial, loc, w.Rank(), rightBefore, rightAfter)
	v, err := Resolve(w, stL, stR)
	if err != nil {
		return false, err
	}
	return v[0] && v[1], nil
}
