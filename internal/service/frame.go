package service

import (
	"errors"
	"fmt"

	"repro"
	"repro/internal/collective"
	"repro/internal/dist"
)

// frame is what a job runs on, minted once and handed from job to job:
// per logical rank of one view, the job's sub-communicator (its tag
// block and collective scratch) and the job worker over it, plus the
// closures that fan a run out over the pool's runners. Each concurrency
// slot of a pool holds one frame (Pool.sem), so admitting a job on an
// unchanged view creates nothing but the job's own handle and Contexts.
//
// A clean job hands its frame back: the sub-communicators are Reset —
// the block cleared as Release would, the counters zeroed — so the next
// job sees a fresh block and its JobCost stays its own. An aborted
// job's frame is dropped with its block, which stays quarantined, and
// the slot mints a new one. So does a slot whose frame was minted on an
// older view. Blocks are still minted and retired only by Sub,
// SubMembers and Release, under the pool lock and in rank order.
type frame struct {
	p       *Pool
	epoch   int                // view epoch the frame was minted on
	members []int              // physical ranks by logical rank; never written
	subs    []*collective.Comm // by logical rank, one tag block
	workers []*dist.Worker     // by logical rank, the job worker over subs[i]

	// Built once, so a job allocates no closures: g fans a run out over
	// the pool's runners, rank is one rank's share of it (Pool.runRank),
	// runJob and finish the job's own task.
	g              dist.Group
	rank           func(i int) error
	runJob, finish func()

	// The job on the frame and what it runs; they belong to the job's
	// runner.
	j    *Job
	spec jobSpec
	// aborted is set by g's Abort and read once the run is over: the
	// frame is then dropped, not handed back.
	aborted bool
}

// mintLocked mints a frame on members, the view of epoch: one
// sub-communicator per member, minted in rank order under p.mu so every
// rank's allocator sees the same sequence — the SPMD Sub contract,
// enforced pool-side. On the full view the plain Sub is the identity
// path; on a shrunken view the sub also carries the member remapping.
func (p *Pool) mintLocked(members []int, epoch int) (*frame, error) {
	f := &frame{
		p:       p,
		epoch:   epoch,
		members: members,
		subs:    make([]*collective.Comm, len(members)),
		workers: make([]*dist.Worker, len(members)),
	}
	for i, phys := range members {
		var sub *collective.Comm
		var err error
		if epoch == 0 {
			sub, err = p.workers[phys].Coll.Sub()
		} else {
			sub, err = p.workers[phys].Coll.SubMembers(members)
		}
		if err != nil {
			for _, s := range f.subs[:i] {
				s.Release()
			}
			return nil, err
		}
		f.subs[i] = sub
		f.workers[i] = p.workers[phys].JobWorker(sub, 0, 0)
	}
	lo, hi := f.subs[0].Block()
	for i, s := range f.subs[1:] {
		if l, h := s.Block(); l != lo || h != hi {
			return nil, fmt.Errorf("service: internal: tag blocks diverged: rank %d [%d,%d) vs rank %d [%d,%d)", members[0], lo, hi, members[i+1], l, h)
		}
	}
	f.g = dist.Group{
		Start:   p.run.start,
		Abort:   f.abort,
		Timeout: p.opts.JobTimeout,
		Name: func(i int) string {
			return fmt.Sprintf("service: job %d %q: PE %d", f.j.id, f.j.name, f.members[i])
		},
	}
	f.rank = func(i int) error { return p.runRank(f, i) }
	f.runJob = func() { p.runJob(f) }
	f.finish = f.handBack
	return f, nil
}

// releaseLocked retires a clean frame's block on every member, in rank
// order under p.mu.
func (f *frame) releaseLocked() {
	for _, s := range f.subs {
		s.Release()
	}
}

// handBack publishes the finished job and returns the slot: the frame,
// or nil if the job was aborted. It must not keep the job's closures
// alive in the slot.
func (f *frame) handBack() {
	j := f.j
	f.j, f.spec = nil, jobSpec{}
	close(j.done)
	if f.aborted {
		f.p.sem <- nil
	} else {
		f.p.sem <- f
	}
}

// abort is the frame's Group abort. It declines a checker rejection, a
// replicated verdict every rank reaches on its own. Anything else
// (panic, transport fault, timeout) poisons the job's tag block on
// every rank, so peers stuck in its collectives die fast, and kicks
// each endpoint's puller awake.
func (f *frame) abort(err error) bool {
	if errors.Is(err, repro.ErrCheckFailed) {
		return false
	}
	f.aborted = true
	cause := fmt.Errorf("%w: %v", errJobAborted, err)
	for _, sub := range f.subs {
		sub.Abort(cause)
	}
	f.p.kickAll()
	return true
}
