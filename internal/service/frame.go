package service

import (
	"errors"
	"fmt"

	"repro"
	"repro/internal/collective"
	"repro/internal/dist"
)

// frame is what a job runs on, minted once and handed from job to job:
// per rank, the job's sub-communicator (its tag block and collective
// scratch) and the job worker over it, plus the closures that fan a run
// out over the pool's runners. Each concurrency slot of a pool holds
// one frame (Pool.sem), so admitting a job creates nothing but the
// job's own handle and Contexts.
//
// A clean job hands its frame back: the sub-communicators are Reset —
// the block cleared as Release would, the counters zeroed — so the next
// job sees a fresh block and its JobCost stays its own. An aborted
// job's frame is dropped with its block, which stays quarantined, and
// the slot mints a new one. Blocks are minted only by Sub, under the
// pool lock and in rank order.
type frame struct {
	p       *Pool
	subs    []*collective.Comm // by rank, one tag block
	workers []*dist.Worker     // by rank, the job worker over subs[i]

	// Built once, so a job allocates no closures: g fans a run out over
	// the pool's runners, rank is one rank's share of it (Pool.runRank),
	// runJob and finish the job's own task.
	g              dist.Group
	rank           func(i int) error
	runJob, finish func()

	// The job on the frame and what it runs; they belong to the job's
	// runner.
	j    *Job
	opts repro.Options
	body Body
	// aborted is set by g's Abort and read once the run is over: the
	// frame is then dropped, not handed back.
	aborted bool
}

// mintLocked mints a frame: one sub-communicator per rank, minted in
// rank order under p.mu so every rank's allocator sees the same
// sequence — the SPMD Sub contract, enforced pool-side.
func (p *Pool) mintLocked() (*frame, error) {
	n := len(p.workers)
	f := &frame{
		p:       p,
		subs:    make([]*collective.Comm, n),
		workers: make([]*dist.Worker, n),
	}
	for i, w := range p.workers {
		sub, err := w.Coll.Sub()
		if err != nil {
			for _, s := range f.subs[:i] {
				s.Release()
			}
			return nil, err
		}
		f.subs[i] = sub
		f.workers[i] = w.JobWorker(sub, 0, 0)
	}
	lo, hi := f.subs[0].Block()
	for i, s := range f.subs[1:] {
		if l, h := s.Block(); l != lo || h != hi {
			return nil, fmt.Errorf("service: internal: tag blocks diverged: rank 0 [%d,%d) vs rank %d [%d,%d)", lo, hi, i+1, l, h)
		}
	}
	f.g = dist.Group{
		Start:   p.run.start,
		Abort:   f.abort,
		Timeout: p.opts.JobTimeout,
		Name: func(i int) string {
			return fmt.Sprintf("service: job %d %q: PE %d", f.j.id, f.j.name, i)
		},
	}
	f.rank = func(i int) error { return p.runRank(f, i) }
	f.runJob = func() { p.runJob(f) }
	f.finish = f.handBack
	return f, nil
}

// handBack publishes the finished job and returns the slot: the frame,
// or nil if the job was aborted. It must not keep the job's closures
// alive in the slot.
func (f *frame) handBack() {
	j := f.j
	f.j, f.opts, f.body = nil, repro.Options{}, nil
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
