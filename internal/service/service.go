// Package service runs checked verification as a long-lived resident
// service: the p-PE mesh is brought up once (mem/simnet/tcp), the
// workers — hash-table scratch, demultiplexers, connections — stay
// resident, and a stream of independent client verification jobs runs
// over it concurrently. Each job gets its own tag-isolated
// sub-communicator (collective.Comm.Sub) and its own repro.Context per
// rank, so many checked pipelines — one-shot and streamed, eager and
// deferred — share one transport without stealing each other's traffic,
// the service shape the paper's always-on cheap checkers invite.
//
// Failure isolation is the design center: a checker rejection is a
// normal, replicated verdict (the job reports it; nothing else
// notices); an infrastructure failure — panic, injected transport
// fault, timeout — aborts only the job's tag block (Comm.Abort poisons
// the block on every rank, a control kick wakes stuck pullers) and the
// mesh keeps serving. Retired blocks from cleanly finished jobs are
// recycled; aborted jobs' blocks stay quarantined, since a block with
// possible stragglers on the wire must never be re-matched.
package service

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro"
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/obs"
	recov "repro/internal/recover"
)

// DefaultMaxConcurrent bounds in-flight jobs when Options does not.
const DefaultMaxConcurrent = 128

// jobSeedGamma spaces per-job checker seeds (odd, SplitMix64-style).
const jobSeedGamma = 0x9e3779b97f4a7c15

// ErrPoolClosed is returned by Submit on a closed pool.
var ErrPoolClosed = errors.New("service: pool closed")

// errJobAborted wraps the root cause a job's tag block was poisoned
// with; peer ranks of a failed job observe it from their receives.
var errJobAborted = errors.New("service: job aborted after a PE failed")

// Body is one rank's share of a job: SPMD code over the job's Context,
// exactly as a body passed to dist.Run — every rank runs the same
// pipeline; the rank is ctx.Worker().Rank(). The pool calls
// ctx.Verify() after a nil return, so bodies may simply queue deferred
// assertions and return.
type Body func(ctx *repro.Context) error

// Options configures a Pool.
type Options struct {
	// P is the mesh width (number of PEs). Defaults to the network's
	// size with NewOnNetwork; required for New.
	P int
	// Seed keys the pool's run: worker RNGs and, via the common-seed
	// broadcast, every job's checker hash functions.
	Seed uint64
	// Dist selects the transport for New (mem when zero).
	Dist dist.Config
	// Repro is the default checker configuration for submitted jobs;
	// zero value is replaced by repro.DefaultOptions with CheckDeferred.
	Repro repro.Options
	// MaxConcurrent bounds in-flight jobs; Submit blocks when the pool
	// is saturated (backpressure, not rejection). Default
	// DefaultMaxConcurrent.
	MaxConcurrent int
	// JobTimeout, when positive, aborts any job still running after the
	// duration — scoped to the job's tag block, so a wedged job dies
	// without waiting for the network's global deadline backstop.
	JobTimeout time.Duration
	// Elastic, when non-nil, turns on elastic membership: a heartbeat
	// failure detector, an epoch-numbered view, PeerDown attribution for
	// jobs that lose a rank, and checked recovery for recoverable jobs.
	// Nil keeps the classic fixed-membership pool with zero overhead.
	Elastic *ElasticOptions
	// Tracer, when non-nil, is installed on every resident worker, so
	// each job's stages, collectives, and resolve rounds record spans
	// keyed by the job's ID (internal/obs). Nil — the default — is free.
	Tracer *obs.Tracer
}

// jobSpec is what a submitted job runs: exactly one of body/rbody is
// set; shares are a recoverable job's per-logical-rank input slices.
type jobSpec struct {
	opts   repro.Options
	body   Body
	rbody  RecoverableBody
	shares [][]data.Pair
}

// Pool is the resident verification service. Create with New (pool
// owns the network) or NewOnNetwork (caller owns it, e.g. to wrap it
// in a fault injector first), submit jobs from any goroutine, Close to
// drain.
type Pool struct {
	opts    Options
	net     comm.Network
	ownNet  bool
	workers []*dist.Worker // one per rank, resident across all jobs
	common  uint64
	sem     chan struct{} // concurrency slots; held per in-flight job
	closing chan struct{} // closed by Close; unblocks waiting Submits
	start   time.Time
	run     runners // the goroutines jobs and their ranks run on

	// Elastic membership (zero when Options.Elastic is nil): the
	// failure detector (detector.go), which convicts ranks out of view
	// below, and one retention store per physical rank.
	det    detector
	stores []*recov.Store

	mu            sync.Mutex
	closed        bool
	nextID        int64
	inflight      int
	highWater     int
	submitted     int64
	completed     int64
	passed        int64
	rejected      int64
	errored       int64
	recoveredJobs int64
	viewChanges   int64
	totalBytes    int64
	totalRound    int64
	lat           obs.Quantile  // job latencies, submission to completion
	view          dist.View     // current view; meaningful when opts.Elastic != nil
	viewChangedCh chan struct{} // closed and replaced on every view change
	reg           *obs.Registry // lazily built by Registry()
}

// New builds the mesh per opt.Dist and starts a pool over it. The pool
// owns the network and closes it on Close.
func New(opt Options) (*Pool, error) {
	if opt.P < 1 {
		return nil, fmt.Errorf("service: Options.P must be >= 1, got %d", opt.P)
	}
	net, err := opt.Dist.NewNetwork(opt.P)
	if err != nil {
		return nil, err
	}
	p, err := NewOnNetwork(net, opt)
	if err != nil {
		net.Close()
		return nil, err
	}
	p.ownNet = true
	return p, nil
}

// NewOnNetwork starts a pool over a caller-built network — the entry
// point for wrapping the transport first (comm.NewFaultyNetwork). The
// caller keeps ownership of net and must close it after Close.
func NewOnNetwork(net comm.Network, opt Options) (*Pool, error) {
	if opt.P == 0 {
		opt.P = net.Size()
	}
	if opt.P != net.Size() {
		return nil, fmt.Errorf("service: Options.P = %d but network has %d endpoints", opt.P, net.Size())
	}
	if opt.MaxConcurrent <= 0 {
		opt.MaxConcurrent = DefaultMaxConcurrent
	}
	if opt.Repro.Sum.Iterations == 0 && opt.Repro.Perm.Iterations == 0 {
		r := repro.DefaultOptions()
		r.Mode = repro.CheckDeferred
		opt.Repro = r
	}
	workers, err := dist.NewWorkers(net, opt.Seed)
	if err != nil {
		return nil, err
	}
	if opt.Tracer != nil {
		// Install on the resident workers: JobWorker propagates the
		// tracer to every job's sub-communicator with the job's ID as
		// the span job key, so concurrent jobs land in separate lanes.
		for _, w := range workers {
			w.SetTracer(opt.Tracer)
		}
	}
	common, err := workers[0].CommonSeed() // cached by NewWorkers
	if err != nil {
		return nil, err
	}
	pool := &Pool{
		opts:    opt,
		net:     net,
		workers: workers,
		common:  common,
		sem:     make(chan struct{}, opt.MaxConcurrent),
		closing: make(chan struct{}),
		start:   time.Now(),
	}
	if opt.Elastic != nil {
		e := opt.Elastic.withDefaults()
		pool.opts.Elastic = &e
		pool.view = dist.FullView(opt.P)
		pool.viewChangedCh = make(chan struct{})
		pool.stores = make([]*recov.Store, opt.P)
		for r := range pool.stores {
			pool.stores[r] = recov.NewStore(recov.DefaultChunkPairs)
		}
		pool.startDetector()
	}
	return pool, nil
}

// Size returns the mesh width p.
func (p *Pool) Size() int { return p.opts.P }

// CommonSeed returns the pool's run-wide checker seed (established once
// at startup by the PE-0 broadcast). Together with a job's ID it
// determines the job's checker seed — see JobSeed.
func (p *Pool) CommonSeed() uint64 { return p.common }

// JobSeed derives a job's checker seed from a pool's common seed and
// the job's ID. Exported so a serial rerun (plain dist.Run over a fresh
// network) can reproduce a pool job's verdicts and residues
// bit-identically: build a JobWorker with this seed and the same stream.
func JobSeed(commonSeed uint64, id int64) uint64 {
	return hashing.Mix64(commonSeed + jobSeedGamma*uint64(id+1))
}

// Submit schedules body as one verification job under the pool's
// default checker options and returns its handle. Blocks while the
// pool is at MaxConcurrent in-flight jobs (backpressure). Safe from
// any goroutine.
func (p *Pool) Submit(name string, body Body) (*Job, error) {
	return p.SubmitWith(name, p.opts.Repro, body)
}

// SubmitWith is Submit with per-job checker options (mode, checker
// configs, parallelism), so jobs of different shapes interleave on one
// mesh.
func (p *Pool) SubmitWith(name string, opts repro.Options, body Body) (*Job, error) {
	if body == nil {
		return nil, errors.New("service: nil job body")
	}
	return p.submit(name, opts, jobSpec{opts: opts, body: body})
}

// submit admits one job onto the current view: it mints the job's
// sub-communicators on every live member lock-step and spawns the
// runner. Jobs admitted after a view change run entirely on the
// survivor set (the view sub renumbers them contiguously), so new work
// flows while dead ranks stay quarantined.
func (p *Pool) submit(name string, opts repro.Options, spec jobSpec) (*Job, error) {
	// Backpressure: block for a slot, released when the job finishes —
	// but never wait out a Close, which holds every slot forever.
	select {
	case p.sem <- struct{}{}:
	case <-p.closing:
		return nil, ErrPoolClosed
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.sem
		return nil, ErrPoolClosed
	}
	v := p.viewLocked()
	members := v.Members()
	if spec.shares != nil && len(spec.shares) != len(members) {
		p.mu.Unlock()
		<-p.sem
		return nil, fmt.Errorf("service: recoverable job %q: %d shares for a view of %d members", name, len(spec.shares), len(members))
	}
	id := p.nextID
	p.nextID++
	// Mint the job's sub-communicator on every live rank inside one
	// critical section: each rank's allocator sees the same
	// alloc/release sequence, so all ranks agree on the block — the
	// SPMD Sub contract, enforced pool-side. On the full view the plain
	// Sub is the allocation-free identity path; on a shrunken view the
	// sub also carries the member remapping.
	subs := make([]*collective.Comm, len(members))
	for i, phys := range members {
		var sub *collective.Comm
		var err error
		if v.Epoch() == 0 {
			sub, err = p.workers[phys].Coll.Sub()
		} else {
			sub, err = p.workers[phys].Coll.SubMembers(members)
		}
		if err != nil {
			for _, s := range subs[:i] {
				s.Release()
			}
			p.mu.Unlock()
			<-p.sem
			return nil, fmt.Errorf("service: job %d %q: %w", id, name, err)
		}
		subs[i] = sub
	}
	lo, hi := subs[0].Block()
	for i, s := range subs[1:] {
		if l, h := s.Block(); l != lo || h != hi {
			p.mu.Unlock()
			<-p.sem
			return nil, fmt.Errorf("service: internal: job %d tag blocks diverged: rank %d [%d,%d) vs rank %d [%d,%d)", id, members[0], lo, hi, members[i+1], l, h)
		}
	}
	p.submitted++
	p.inflight++
	if p.inflight > p.highWater {
		p.highWater = p.inflight
	}
	p.mu.Unlock()

	j := &Job{
		id:          id,
		name:        name,
		seed:        JobSeed(p.common, id),
		block:       [2]int{lo, hi},
		start:       time.Now(),
		done:        make(chan struct{}),
		members:     members,
		epoch:       v.Epoch(),
		recoverable: spec.rbody != nil,
		deadRank:    -1,
	}
	// The handle resolves, and the slot frees, only once the job's
	// runner is idle again: whoever they wake finds it parked.
	p.run.start(func() { p.runJob(j, subs, spec) }, func() {
		close(j.done)
		<-p.sem
	})
	return j, nil
}

// runRanks fans one run of job j out over a view: rank(i, phys) on a
// runner per member (logical rank i on physical rank phys), first-error
// collection, and a scoped abort on infrastructure failure. what names
// the run in the timeout error. It returns the first error once every
// rank has finished.
func (p *Pool) runRanks(j *Job, what string, members []int, subs []*collective.Comm, rank func(i, phys int) error) error {
	var st struct {
		mu       sync.Mutex
		firstErr error
		finished bool
		wg       sync.WaitGroup
	}
	// fail records the run's first error. A checker rejection is a
	// replicated verdict — every rank reaches it on its own, no abort
	// needed. Anything else (panic, transport fault, timeout) poisons
	// the job's tag block on every rank so peers stuck in the job's
	// collectives die fast, and kicks each endpoint's puller awake. The
	// finished guard keeps a late watchdog from poisoning a block that
	// has already been retired (and possibly recycled to another job).
	fail := func(err error) {
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.finished || st.firstErr != nil {
			return
		}
		st.firstErr = err
		if errors.Is(err, repro.ErrCheckFailed) {
			return
		}
		cause := fmt.Errorf("%w: %v", errJobAborted, err)
		for _, sub := range subs {
			sub.Abort(cause)
		}
		p.kickAll()
	}

	var watchdog *time.Timer
	if p.opts.JobTimeout > 0 {
		watchdog = time.AfterFunc(p.opts.JobTimeout, func() {
			fail(fmt.Errorf("service: job %d %q%s exceeded timeout %v", j.id, j.name, what, p.opts.JobTimeout))
		})
	}

	done := st.wg.Done
	st.wg.Add(len(members))
	for i, phys := range members {
		p.run.start(func() {
			if err := rank(i, phys); err != nil {
				fail(err)
			}
		}, done)
	}
	st.wg.Wait()
	if watchdog != nil {
		watchdog.Stop()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.finished = true
	return st.firstErr
}

// runJob drives one job: its ranks over the job's sub-communicators
// (runRanks), death attribution and checked recovery when elastic
// membership is on, then accounting and block retirement. The caller
// publishes the handle (done) and frees the slot afterwards.
func (p *Pool) runJob(j *Job, subs []*collective.Comm, spec jobSpec) {
	err := p.runRanks(j, "", j.members, subs, func(i, phys int) error {
		return p.runRank(j, i, phys, subs[i], spec)
	})

	// Attribution and recovery: an infrastructure failure on an elastic
	// pool may really be a peer death. Give the detector its bounded
	// window; if the view shrank past this job's epoch, the outcome is
	// attributed to the lost rank (PeerDownError) — and a recoverable
	// job replays on the survivors with the dead share resharded under
	// redistribution-checker verification instead of failing at all.
	if err != nil && !errors.Is(err, repro.ErrCheckFailed) && p.opts.Elastic != nil {
		if dead, ok := p.awaitDeath(j); ok {
			j.deadRank = dead
			attributed := peerDownError(j, dead)
			if j.recoverable {
				// The recovery span sits on the first survivor's rank:
				// the replay is collective, but one lane per job keeps
				// the trace readable next to the job's resolve lanes.
				surv := j.members[0]
				for _, m := range j.members {
					if m != dead {
						surv = m
						break
					}
				}
				rspan := p.opts.Tracer.Start(surv, int64(j.id), int64(j.block[0]), obs.KindRecovery, "recover")
				switch rerr := p.recoverJob(j, spec, dead); {
				case rerr == nil:
					err = nil
					j.recovered = true
				case errors.Is(rerr, repro.ErrCheckFailed):
					// The replay reached a verdict: the job was recovered
					// faithfully and its checkers rejected the data.
					err = rerr
					j.recovered = true
				default:
					err = fmt.Errorf("%w; recovery failed: %v", attributed, rerr)
				}
				rspan.End()
			} else {
				err = attributed
			}
		}
	}

	cost := JobCost{WallNs: time.Since(j.start).Nanoseconds()}
	for _, sub := range subs {
		if b := sub.BytesSent(); b > cost.Bytes {
			cost.Bytes = b
		}
		if m := sub.MsgsSent(); m > cost.Msgs {
			cost.Msgs = m
		}
		if o := sub.OpsStarted(); o > cost.Rounds {
			cost.Rounds = o
		}
	}

	p.mu.Lock()
	if err == nil || errors.Is(err, repro.ErrCheckFailed) {
		// Clean completion (verdicts included): every collective of the
		// job matched on every rank, so no stragglers can exist and the
		// block is safe to recycle. Released in rank order under the
		// pool lock — the same sequence on every rank's allocator.
		for _, sub := range subs {
			sub.Release()
		}
	}
	// Aborted jobs leak their block by design (quarantine): a message
	// still on the wire for a poisoned tag must never match a future
	// job. The space holds billions of blocks; chaos is the rare case.
	p.inflight--
	p.completed++
	switch {
	case err == nil:
		p.passed++
	case errors.Is(err, repro.ErrCheckFailed):
		p.rejected++
	default:
		p.errored++
	}
	if j.recovered {
		p.recoveredJobs++
	}
	p.totalBytes += cost.Bytes
	p.totalRound += int64(cost.Rounds)
	p.lat.Observe(cost.WallNs)
	p.mu.Unlock()

	p.dropRetention(j)
	j.cost = cost
	j.err = err
}

// runRank is one PE's share of a job: derive the job worker over the
// rank's resident worker, build the Context, run the body, settle all
// pending verification. i is the logical (view) rank, phys the
// physical endpoint rank; logical rank 0's stats become the job's.
func (p *Pool) runRank(j *Job, i, phys int, sub *collective.Comm, spec jobSpec) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("service: job %d %q: PE %d panicked: %v\n%s", j.id, j.name, phys, v, debug.Stack())
		}
	}()
	w := p.workers[phys].JobWorker(sub, j.seed, uint64(j.id))
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
	if spec.rbody != nil {
		share := spec.shares[i]
		// Checkpoint before compute: the share and its ring-buddy
		// replica must be retained while every member is still alive.
		if rerr := p.retain(j, phys, w.Coll, share); rerr != nil {
			return rerr
		}
		if berr := spec.rbody(ctx, share); berr != nil {
			return berr
		}
		return ctx.Verify()
	}
	if berr := spec.body(ctx); berr != nil {
		return berr
	}
	return ctx.Verify()
}

// kickAll sends one control message to every endpoint (from a peer, so
// it crosses the transport) to complete any RecvAny a puller is parked
// in — a poisoned job's receivers on an idle mesh would otherwise wait
// for traffic that never comes. Best-effort and asynchronous: a kick
// that cannot be delivered (closed network, full inbox) must not stall
// the failure path; the sends are tiny and self-limiting (the mux
// drops control tags on sight).
func (p *Pool) kickAll() {
	p.mu.Lock()
	members := p.viewLocked().Members()
	p.mu.Unlock()
	if len(members) < 2 {
		return
	}
	// Kick ring-wise within the live view: a dead endpoint can neither
	// send nor needs waking, and survivors must not be made to wait on
	// its blackholed traffic.
	for i, dst := range members {
		src := members[(i+1)%len(members)]
		go func(src, dst int) {
			_ = p.net.Endpoint(src).Send(dst, comm.KickTag, nil)
		}(src, dst)
	}
}

// Stats snapshots the pool's service-level metrics.
func (p *Pool) Stats() PoolStats {
	_, p50, p99, _ := p.lat.Snapshot()
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.viewLocked()
	s := PoolStats{
		Submitted:   p.submitted,
		Completed:   p.completed,
		Passed:      p.passed,
		Rejected:    p.rejected,
		Errored:     p.errored,
		Recovered:   p.recoveredJobs,
		InFlight:    p.inflight,
		HighWater:   p.highWater,
		ViewChanges: p.viewChanges,
		Epoch:       v.Epoch(),
		Alive:       v.Size(),
		P50Ns:       p50,
		P99Ns:       p99,
	}
	if up := time.Since(p.start).Seconds(); up > 0 {
		s.JobsPerSec = float64(p.completed) / up
	}
	if p.completed > 0 {
		s.BytesPerJob = float64(p.totalBytes) / float64(p.completed)
		s.RoundsPerJob = float64(p.totalRound) / float64(p.completed)
	}
	return s
}

// Close drains the pool: it refuses new submissions, waits for every
// in-flight job, and — if the pool built the network (New) — tears the
// mesh down. Idempotent.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.closing)
	p.mu.Unlock()
	// Acquire every concurrency slot: once all are held, no job is in
	// flight and no Submit can start one (it would observe closed).
	for i := 0; i < cap(p.sem); i++ {
		p.sem <- struct{}{}
	}
	// Every job has retired, so every runner is parked.
	p.run.stop()
	// The detector outlives the last job (recovery needs it) and stops
	// before the mesh goes away.
	if p.opts.Elastic != nil {
		p.stopDetector()
	}
	if p.ownNet {
		return p.net.Close()
	}
	return nil
}
