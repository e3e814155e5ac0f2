package service

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro"
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
	recov "repro/internal/recover"
)

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
// current view (len(shares) must equal the view size). The pool retains
// each share — chunked, plus a ring-buddy replica minted with one
// neighbour exchange — so that if a PE dies mid-job the job replays on
// the survivors instead of failing. Without ElasticOptions the job runs
// like a plain Submit (no retention, no replay).
func (p *Pool) SubmitRecoverableWith(name string, opts repro.Options, shares [][]data.Pair, body RecoverableBody) (*Job, error) {
	if body == nil {
		return nil, errors.New("service: nil recoverable job body")
	}
	return p.submit(name, opts, jobSpec{opts: opts, rbody: body, shares: shares})
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
// lock-step, the dead rank's retained chunks are resharded onto the
// survivors under redistribution-checker verification, and the body
// reruns with the augmented shares. Returns nil on a clean replay, an
// error unwrapping to repro.ErrCheckFailed when the replayed checkers
// rejected (a verdict, faithfully recovered), or any other error when
// recovery itself failed (reshard rejected, double failure, transport).
func (p *Pool) recoverJob(j *Job, spec jobSpec, dead int) error {
	newMembers := make([]int, 0, len(j.members)-1)
	wasMember := false
	for _, m := range j.members {
		if m == dead {
			wasMember = true
			continue
		}
		newMembers = append(newMembers, m)
	}
	if !wasMember || len(newMembers) == 0 {
		return fmt.Errorf("service: job %d %q: no survivor view after PE %d died", j.id, j.name, dead)
	}
	holder := recov.ReplicaHolder(j.members, dead)
	holderAlive := false
	for _, m := range newMembers {
		if m == holder {
			holderAlive = true
		}
	}
	if !holderAlive {
		return fmt.Errorf("service: job %d %q unrecoverable: replica holder %d of dead PE %d is gone too (double failure)", j.id, j.name, holder, dead)
	}

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
	rf.j = j

	shares := make([][]data.Pair, len(newMembers))
	err = rf.runRanks(j, " recovery", func(i int) error {
		return p.runRecoveryRank(j, i, newMembers[i], rf.workers[i], spec, dead, shares)
	})

	// As in runJob, an aborted replay quarantines its block.
	if !rf.aborted {
		p.mu.Lock()
		rf.releaseLocked()
		p.mu.Unlock()
	}
	j.recoveryMembers = newMembers
	j.recoveredShares = shares
	return err
}

// runRecoveryRank is one survivor's share of a replay: reshard the dead
// rank's chunks (held in full only at the replica holder) under
// checker verification, rebuild this rank's share as own + received,
// and rerun the body over a fresh Context on the survivor view.
func (p *Pool) runRecoveryRank(j *Job, i, phys int, w *dist.Worker, spec jobSpec, dead int, shares [][]data.Pair) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("service: job %d %q recovery: PE %d panicked: %v\n%s", j.id, j.name, phys, v, debug.Stack())
		}
	}()
	p.workers[phys].ResetJobWorker(w, j.seed, uint64(j.id))
	ctx, cerr := repro.NewContext(w, spec.opts)
	if cerr != nil {
		return cerr
	}
	defer func() {
		if i == 0 {
			j.stats = ctx.Stats()
			j.sums = ctx.VerifySummaries()
		}
	}()
	permCfg := spec.opts.Perm
	if permCfg.Iterations == 0 {
		permCfg = repro.DefaultOptions().Perm
	}
	held := p.stores[phys].Held(uint64(j.id), dead)
	received, rerr := recov.Reshard(w, permCfg, held)
	if rerr != nil {
		return rerr
	}
	share := append(recov.Pairs(p.stores[phys].Own(uint64(j.id))), received...)
	shares[i] = share
	if berr := spec.rbody(ctx, share); berr != nil {
		return berr
	}
	return ctx.Verify()
}

// retain checkpoints a recoverable job's share on this rank: the share
// itself, chunked, plus one neighbour exchange that leaves each share's
// replica at its ring successor — the invariant that keeps every share
// held somewhere after any single death.
func (p *Pool) retain(j *Job, phys int, coll *collective.Comm, share []data.Pair) error {
	if p.stores == nil {
		return nil // elastic membership disabled: run like a plain job
	}
	p.stores[phys].Retain(uint64(j.id), phys, j.members, share)
	pred, predShare, err := recov.ExchangeReplicas(coll, share)
	if err != nil {
		return err
	}
	if pred >= 0 {
		p.stores[phys].RetainReplica(uint64(j.id), pred, predShare)
	}
	return nil
}

// dropRetention forgets a completed job's chunks on every rank.
func (p *Pool) dropRetention(j *Job) {
	if p.stores == nil {
		return
	}
	for _, s := range p.stores {
		s.Drop(uint64(j.id))
	}
}

// peerDownError builds the attributed outcome for a job that lost a
// member.
func peerDownError(j *Job, dead int) error {
	return fmt.Errorf("service: job %d %q lost PE %d: %w", j.id, j.name, dead, &comm.PeerDownError{Rank: dead})
}
