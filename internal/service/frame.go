package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

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

	// Built once, so a job allocates no closures: ranks[i] runs rank(i)
	// and records its error, rankDone ends it; jobRank is a job's rank,
	// runJob and finish the job's own task.
	ranks          []func()
	rankDone       func()
	jobRank        func(i int) error
	runJob, finish func()

	// The job on the frame and its current run. A late watchdog may read
	// j, so j is written under mu; the rest belong to the job's runner.
	j     *Job
	spec  jobSpec
	rank  func(i int) error // what each rank runs in this run
	wg    sync.WaitGroup
	clean bool // the job retired the frame cleanly: hand it back

	mu       sync.Mutex // guards j and the run's outcome below
	firstErr error
	finished bool
	aborted  bool
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
		ranks:   make([]func(), len(members)),
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
		f.ranks[i] = func() {
			if err := f.rank(i); err != nil {
				f.fail(f.j, err)
			}
		}
	}
	lo, hi := f.subs[0].Block()
	for i, s := range f.subs[1:] {
		if l, h := s.Block(); l != lo || h != hi {
			return nil, fmt.Errorf("service: internal: tag blocks diverged: rank %d [%d,%d) vs rank %d [%d,%d)", members[0], lo, hi, members[i+1], l, h)
		}
	}
	f.rankDone = f.wg.Done
	f.jobRank = func(i int) error {
		return p.runRank(f.j, i, f.members[i], f.workers[i], f.spec)
	}
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

// start runs job j on the frame; the handle resolves and the frame goes
// back to its slot once the job's runner is idle again.
func (f *frame) start(j *Job, spec jobSpec) {
	f.mu.Lock() // a previous job's late watchdog may be reading f.j
	f.j, f.spec = j, spec
	f.mu.Unlock()
	f.p.run.start(f.runJob, f.finish)
}

// handBack publishes the finished job and returns the slot: the frame
// if the job retired it cleanly, nil if it was dropped. It must not
// keep the job's closures alive in the slot.
func (f *frame) handBack() {
	f.mu.Lock()
	j := f.j
	f.j, f.spec = nil, jobSpec{}
	f.mu.Unlock()
	close(j.done)
	if f.clean {
		f.p.sem <- f
	} else {
		f.p.sem <- nil
	}
}

// runRanks fans one run of job j out over the frame: rank(i) on a
// runner per member, first-error collection, and a scoped abort on
// infrastructure failure. what names the run in the timeout error. It
// returns the first error once every rank has finished.
func (f *frame) runRanks(j *Job, what string, rank func(i int) error) error {
	f.mu.Lock()
	f.firstErr, f.finished = nil, false
	f.mu.Unlock()
	f.rank = rank
	var watchdog *time.Timer
	if t := f.p.opts.JobTimeout; t > 0 {
		watchdog = time.AfterFunc(t, func() {
			f.fail(j, fmt.Errorf("service: job %d %q%s exceeded timeout %v", j.id, j.name, what, t))
		})
	}
	f.wg.Add(len(f.ranks))
	for _, run := range f.ranks {
		f.p.run.start(run, f.rankDone)
	}
	f.wg.Wait()
	if watchdog != nil {
		watchdog.Stop()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.finished = true
	return f.firstErr
}

// fail records the first error of job j's current run. A checker
// rejection is a replicated verdict — every rank reaches it on its own,
// no abort needed. Anything else (panic, transport fault, timeout)
// poisons the job's tag block on every rank so peers stuck in the job's
// collectives die fast, and kicks each endpoint's puller awake. A late
// watchdog finds the run finished, or the frame on another job, and
// leaves the block alone.
func (f *frame) fail(j *Job, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.j != j || f.finished || f.firstErr != nil {
		return
	}
	f.firstErr = err
	if errors.Is(err, repro.ErrCheckFailed) {
		return
	}
	f.aborted = true
	cause := fmt.Errorf("%w: %v", errJobAborted, err)
	for _, sub := range f.subs {
		sub.Abort(cause)
	}
	f.p.kickAll()
}
