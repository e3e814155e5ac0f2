package service

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro"
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/obs"
	"repro/internal/ops"
)

// errReshardRejected reports that the redistribution checker refused
// the recovery move: the pairs that arrived at the survivors are not a
// correctly placed permutation of the dead rank's share, so the job is
// failed rather than replayed on corrupt input.
var errReshardRejected = errors.New("service: redistribution checker rejected the reshard")

// reshardSeedDomain separates the reshard's partitioner and checker
// keys from the job's own checker seeds.
const reshardSeedDomain = 0x7265736861726421 // "reshard!"

// ElasticOptions enables elastic membership on a pool: a heartbeat
// failure detector over the control tag plane (detector.go), one
// epoch-numbered view owned by the pool, and checked recovery for
// recoverable jobs. The zero value of each field selects its default.
type ElasticOptions struct {
	// Heartbeat is the probe period (default 50ms).
	Heartbeat time.Duration
	// SuspectAfter is the silence threshold convicting a peer (default
	// 20*Heartbeat); it lower-bounds detection latency and upper-bounds
	// the false-alarm rate.
	SuspectAfter time.Duration
}

// RecoverableBody is the body of a recoverable job: SPMD code over the
// job's Context plus this rank's input share. On a peer death the pool
// reshards the lost share onto the survivors (verified by the
// redistribution checker) and replays the body on the shrunken view
// with the augmented shares — so the body must be a deterministic
// function of (ctx, share), which is also what makes the replayed
// verdict bit-identical to a serial rerun.
type RecoverableBody func(ctx *repro.Context, share []data.Pair) error

// SubmitRecoverableWith schedules a recoverable job under the given
// checker options: shares[i] is logical rank i's input share under the
// current view (len(shares) must equal the view size). The job retains
// each share — a copy, plus a ring-buddy replica minted with one
// neighbour exchange — so that if a PE dies mid-job the job replays on
// the survivors instead of failing. Without ElasticOptions the job runs
// like a plain Submit (no retention, no replay).
func (p *Pool) SubmitRecoverableWith(name string, opts repro.Options, shares [][]data.Pair, body RecoverableBody) (*Job, error) {
	if body == nil {
		return nil, errors.New("service: nil recoverable job body")
	}
	spec := jobSpec{opts: opts, rbody: body, shares: shares}
	if p.opts.Elastic != nil {
		spec.kept = make([]retained, p.opts.P)
	}
	return p.submit(name, opts, spec)
}

// retained is what one physical rank keeps of a recoverable job: a
// copy of its own share, and the replica of its ring predecessor's
// share, pred being that predecessor's physical rank (-1 on a
// one-member view). So a dead share's replica is held by its ring
// successor in the submit view. Each rank writes its entry before
// compute and reads it only in its own replay.
type retained struct {
	own, replica []data.Pair
	pred         int
}

// retain checkpoints a recoverable job's share on this rank: a copy of
// the share itself, plus one neighbour exchange to the ring successor
// in the communicator's view that leaves each share's replica there —
// the invariant that keeps every share held somewhere after any single
// death. Cost: one O(n/p) exchange per recoverable job.
func retain(kept *retained, coll *collective.Comm, share []data.Pair) error {
	kept.own = slices.Clone(share)
	kept.pred = -1
	p, rank := coll.Size(), coll.Rank()
	if p < 2 {
		return nil
	}
	words := make([]uint64, 0, 2*len(share))
	for _, pr := range share {
		words = append(words, pr.Key, pr.Value)
	}
	pred := (rank - 1 + p) % p
	got, err := coll.Exchange((rank+1)%p, words, pred)
	if err != nil {
		return fmt.Errorf("service: replica exchange: %w", err)
	}
	if len(got)%2 != 0 {
		return fmt.Errorf("service: odd replica payload length %d", len(got))
	}
	kept.replica = make([]data.Pair, len(got)/2)
	for i := range kept.replica {
		kept.replica[i] = data.Pair{Key: got[2*i], Value: got[2*i+1]}
	}
	kept.pred = pred
	if m := coll.Members(); m != nil {
		kept.pred = m[pred]
	}
	return nil
}

// reshard is the checked recovery move on the survivor view: the dead
// rank's share — held in full by one survivor, its ring successor, and
// passed as held there (nil elsewhere) — is redistributed across w's
// view by key hash with the exchange GroupByKey runs, and the move is
// verified with the same redistribution checker (Corollary 14) before
// anything is returned. The partitioner and checker keys derive from
// w's common seed under their own domain.
//
// All survivors call it at the same point: it is a collective. Each
// receives the pairs of the dead share whose keys hash to it, in source
// order, and the sealed state the verdict was reached on; a move the
// checker voted down on any PE is errReshardRejected on every PE.
func reshard(w *dist.Worker, cfg core.PermConfig, held []data.Pair) ([]data.Pair, core.CheckState, error) {
	seed, err := w.CommonSeed()
	if err != nil {
		return nil, nil, err
	}
	rseed := hashing.Mix64(seed ^ reshardSeedDomain)
	pt := ops.NewPartitioner(rseed, w.Size())
	moved, err := ops.RedistributeByKey(w, pt, held)
	if err != nil {
		return nil, nil, fmt.Errorf("service: reshard exchange: %w", err)
	}
	st := core.NewRedistState("Recovery/reshard", cfg, rseed, pt, w.Rank(), moved.Before, moved.After)
	v, err := core.Resolve(w, st)
	if err != nil {
		return nil, nil, fmt.Errorf("service: reshard resolve: %w", err)
	}
	if !v[0] {
		return nil, nil, fmt.Errorf("%w (view of %d survivors)", errReshardRejected, w.Size())
	}
	return moved.After, st, nil
}

// View returns the pool's current membership view (the full view when
// elastic membership is disabled).
func (p *Pool) View() dist.View {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.view
}

// WaitEpoch blocks until the pool's view reaches at least epoch or
// timeout expires, reporting whether it did — how harnesses bound
// detection latency and await view agreement before admitting new work.
func (p *Pool) WaitEpoch(epoch int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		p.mu.Lock()
		if p.view.Epoch() >= epoch {
			p.mu.Unlock()
			return true
		}
		ch := p.viewChangedCh
		p.mu.Unlock()
		if ch == nil {
			return false // elastic membership disabled: epoch stays 0
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return false
		}
		timer := time.NewTimer(remaining)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			return false
		}
	}
}

// awaitDeath gives the failure detector time to attribute a job's
// infrastructure failure to a peer death: it waits (bounded by a
// multiple of the suspicion threshold) for the pool view to advance
// past the job's submit epoch and returns the job member that fell out.
// Not every abort is a death — an injected transport fault or timeout
// leaves the view unchanged and returns ok=false, preserving the
// tier-2 abort-and-quarantine classification.
func (p *Pool) awaitDeath(j *Job) (dead int, ok bool) {
	if !p.WaitEpoch(j.epoch+1, 4*p.opts.Elastic.SuspectAfter) {
		return -1, false
	}
	v := p.View()
	for _, m := range j.members {
		if !v.Contains(m) {
			return m, true
		}
	}
	return -1, false
}

// recoverJob replays a recoverable job on the survivors of its view
// after dead's death: fresh view sub-communicators are minted
// lock-step, the dead rank's retained share is resharded onto the
// survivors under redistribution-checker verification, and the body
// reruns with the augmented shares. Returns nil on a clean replay, an
// error unwrapping to repro.ErrCheckFailed when the replayed checkers
// rejected (a verdict, faithfully recovered), or any other error when
// recovery itself failed (reshard rejected, double failure, transport).
func (p *Pool) recoverJob(j *Job, spec jobSpec, dead int) error {
	// Every other member must still be in the pool's view: a second
	// death loses that member's share, or the dead share's replica.
	v := p.View()
	newMembers := make([]int, 0, len(j.members))
	for _, m := range j.members {
		if m == dead {
			continue
		}
		if !v.Contains(m) {
			return fmt.Errorf("service: job %d %q unrecoverable: PE %d is gone too after PE %d died (double failure)", j.id, j.name, m, dead)
		}
		newMembers = append(newMembers, m)
	}
	if len(newMembers) == len(j.members) || len(newMembers) == 0 {
		return fmt.Errorf("service: job %d %q: no survivor view after PE %d died", j.id, j.name, dead)
	}
	// The recovery span sits on the first survivor's rank: the replay is
	// collective, but one lane per job keeps the trace readable next to
	// the job's resolve lanes.
	defer p.opts.Tracer.Start(newMembers[0], int64(j.id), int64(j.block[0]), obs.KindRecovery, "recover").End()

	// Mint a frame on the survivor view inside one critical section,
	// exactly like admission: every survivor's allocator sees the same
	// sequence, so the blocks agree. It serves this replay only.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	rf, err := p.mintLocked(newMembers, p.view.Epoch())
	p.mu.Unlock()
	if err != nil {
		return fmt.Errorf("service: job %d %q recovery: %w", j.id, j.name, err)
	}
	spec.replay, spec.lost, spec.shares = true, dead, make([][]data.Pair, len(newMembers))
	rf.j, rf.spec = j, spec
	err = rf.g.Run(len(newMembers), rf.rank)

	// As in runJob, an aborted replay quarantines its block.
	if !rf.aborted {
		p.mu.Lock()
		rf.releaseLocked()
		p.mu.Unlock()
	}
	j.recoveryMembers = newMembers
	j.recoveredShares = rf.spec.shares
	return err
}

// share is the input share logical rank i, physical rank phys, runs a
// recoverable job's body on. A first run takes the submitted share,
// retained first on an elastic pool: the share and its ring-buddy
// replica are checkpointed before compute, while every member is still
// alive. A replay reshards the lost rank's share (held in full only at
// its replica holder) under checker verification, and runs on this
// rank's own share plus what it received, recorded in shares.
func (spec *jobSpec) share(i, phys int, w *dist.Worker) ([]data.Pair, error) {
	if !spec.replay {
		share := spec.shares[i]
		if spec.kept != nil {
			if err := retain(&spec.kept[phys], w.Coll, share); err != nil {
				return nil, err
			}
		}
		return share, nil
	}
	permCfg := spec.opts.Perm
	if permCfg.Iterations == 0 {
		permCfg = repro.DefaultOptions().Perm
	}
	kept := &spec.kept[phys]
	var held []data.Pair
	if kept.pred == spec.lost {
		held = kept.replica
	}
	received, _, err := reshard(w, permCfg, held)
	if err != nil {
		return nil, err
	}
	share := slices.Concat(kept.own, received)
	spec.shares[i] = share
	return share, nil
}

// peerDownError builds the attributed outcome for a job that lost a
// member.
func peerDownError(j *Job, dead int) error {
	return fmt.Errorf("service: job %d %q lost PE %d: %w", j.id, j.name, dead, &comm.PeerDownError{Rank: dead})
}
