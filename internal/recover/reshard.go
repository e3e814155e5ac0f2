package recover

import (
	"errors"
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/ops"
)

// ErrReshardRejected reports that the redistribution checker refused
// the recovery move: the pairs that arrived at the survivors are not a
// correctly placed permutation of the dead rank's retained chunks, so
// the recovered job must not be trusted (and is failed rather than
// replayed on corrupt input).
var ErrReshardRejected = errors.New("recover: redistribution checker rejected the reshard")

// reshardSeedDomain separates the reshard's partitioner and checker
// keys from the job's own checker seeds.
const reshardSeedDomain = 0x7265736861726421 // "reshard!"

// Reshard runs the checked recovery move on the survivor view: the
// dead rank's retained chunks — held in full by exactly one survivor,
// its ring buddy, and passed as held there (nil elsewhere) — are
// redistributed across w's view by key hash, and the move is verified
// with the redistribution checker (permutation fingerprint over folded
// pairs plus the placement scan) before anything is returned.
//
// w must be a job worker over the survivor view's communicator: Rank
// and Size are logical, and the checker resolution rides the same view.
// All survivors must call Reshard at the same point (it is a
// collective); each receives the slice of the dead share whose keys
// hash to it, in deterministic order, or ErrReshardRejected if the
// checker voted the move down on any PE.
//
// The chunks flow through the mergeable builder partials chunk by
// chunk — the PR 5 lifecycle — so recovery verifies exactly the way
// larger-than-RAM streaming verification accumulates.
func Reshard(w *dist.Worker, cfg core.PermConfig, held []Chunk) ([]data.Pair, error) {
	seed, err := w.CommonSeed()
	if err != nil {
		return nil, err
	}
	rseed := hashing.Mix64(seed ^ reshardSeedDomain)
	p, rank := w.Size(), w.Rank()
	pt := ops.NewPartitioner(rseed, p)

	// Accumulate the before-side one retained chunk at a time, each
	// through its own builder partial, merged into the job-level one —
	// the chunk/merge/seal lifecycle the retention store chunks for.
	b := core.NewRedistBuilder("Recovery/reshard", cfg, rseed, core.Serial, pt, rank)
	parts := make([][]data.Pair, p)
	for _, c := range held {
		cb := core.NewRedistBuilder("Recovery/reshard", cfg, rseed, core.Serial, pt, rank)
		cb.AddInput(c.Pairs)
		b.Merge(cb)
		for _, pr := range c.Pairs {
			dst := pt.PE(pr.Key)
			parts[dst] = append(parts[dst], pr)
		}
	}

	enc := make([][]uint64, p)
	for i, part := range parts {
		enc[i] = encodePairs(part)
	}
	got, err := w.Coll.AllToAll(enc)
	if err != nil {
		return nil, fmt.Errorf("recover: reshard exchange: %w", err)
	}
	var received []data.Pair
	for _, ws := range got {
		chunk, err := decodePairs(ws)
		if err != nil {
			return nil, fmt.Errorf("recover: reshard decode: %w", err)
		}
		b.AddOutput(chunk)
		received = append(received, chunk...)
	}

	ok, err := resolveReshard(w, b)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w (view of %d survivors)", ErrReshardRejected, p)
	}
	return received, nil
}

// resolveReshard seals the builder and runs the collective resolution
// on the job worker's communicator.
func resolveReshard(w *dist.Worker, b *core.RedistBuilder) (bool, error) {
	v, err := core.Resolve(w, b.Seal())
	if err != nil {
		return false, fmt.Errorf("recover: reshard resolve: %w", err)
	}
	return v[0], nil
}

// encodePairs flattens pairs for transport: key, value per pair.
func encodePairs(ps []data.Pair) []uint64 {
	out := make([]uint64, 0, 2*len(ps))
	for _, p := range ps {
		out = append(out, p.Key, p.Value)
	}
	return out
}

// decodePairs parses a flat pair payload.
func decodePairs(ws []uint64) ([]data.Pair, error) {
	if len(ws)%2 != 0 {
		return nil, fmt.Errorf("recover: odd pair payload length %d", len(ws))
	}
	out := make([]data.Pair, 0, len(ws)/2)
	for i := 0; i+1 < len(ws); i += 2 {
		out = append(out, data.Pair{Key: ws[i], Value: ws[i+1]})
	}
	return out, nil
}

// ExchangeReplicas is the submission-time retention collective: every
// PE sends its share to its ring successor in the communicator's view
// and receives its ring predecessor's, returning (predecessor's
// physical rank, predecessor's share). On a single-PE view there is no
// buddy and it returns (-1, nil). Cost: one O(n/p) neighbour exchange
// per recoverable job — the price of the recovery guarantee.
func ExchangeReplicas(coll *collective.Comm, share []data.Pair) (int, []data.Pair, error) {
	p, rank := coll.Size(), coll.Rank()
	if p < 2 {
		return -1, nil, nil
	}
	succ := (rank + 1) % p
	pred := (rank - 1 + p) % p
	got, err := coll.Exchange(succ, encodePairs(share), pred)
	if err != nil {
		return -1, nil, fmt.Errorf("recover: replica exchange: %w", err)
	}
	pairs, err := decodePairs(got)
	if err != nil {
		return -1, nil, err
	}
	physPred := pred
	if m := coll.Members(); m != nil {
		physPred = m[pred]
	}
	return physPred, pairs, nil
}
