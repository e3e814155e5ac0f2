// Package service runs checked verification as a long-lived resident
// service: the p-PE mesh is brought up once (mem/simnet/tcp), the
// workers — hash-table scratch, demultiplexers, connections — stay
// resident, and a stream of independent client verification jobs runs
// over it concurrently. Each job gets its own tag-isolated
// sub-communicator (collective.Comm.Sub) and its own repro.Context per
// rank, so many checked pipelines — one-shot and streamed, eager and
// deferred — share one transport without stealing each other's traffic,
// the service shape the paper's always-on cheap checkers invite. The
// sub-communicators and job workers stay resident too, one frame per
// concurrency slot (frame.go): a body's Worker and its communicator are
// valid until the body returns.
//
// Failure isolation is the design center: a checker rejection is a
// normal, replicated verdict (the job reports it; nothing else
// notices); an infrastructure failure — panic, injected transport
// fault, timeout — aborts only the job's tag block (Comm.Abort poisons
// the block on every rank, a control kick wakes stuck pullers) and the
// mesh keeps serving. The blocks of cleanly finished jobs are reused;
// aborted jobs' blocks stay quarantined, since a block with possible
// stragglers on the wire must never be re-matched.
package service

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/obs"
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
// assertions and return. The Context's Worker — its communicator and
// its Rng — belongs to the job's slot: it is valid until the body
// returns, and the slot's next job reuses it.
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
// set; shares are a recoverable job's per-logical-rank input slices,
// and on an elastic pool kept is its retention, one entry per physical
// rank (recovery.go). The spec is dropped, retention with it, when the
// frame hands the job back.
type jobSpec struct {
	opts   repro.Options
	body   Body
	rbody  RecoverableBody
	shares [][]data.Pair
	kept   []retained
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
	// sem holds one entry per concurrency slot that is free: the slot's
	// frame, or nil until the slot mints one (frame.go). A job takes an
	// entry at admission and puts it back when it is done.
	sem     chan *frame
	closing chan struct{} // closed by Close; unblocks waiting Submits
	start   time.Time
	run     runners // the goroutines jobs and their ranks run on

	// Elastic membership (zero when Options.Elastic is nil): the
	// failure detector (detector.go), which convicts ranks out of view
	// below.
	det detector

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
	view          dist.View     // current view; the full view unless opts.Elastic != nil
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
		sem:     make(chan *frame, opt.MaxConcurrent),
		closing: make(chan struct{}),
		start:   time.Now(),
		view:    dist.FullView(opt.P),
	}
	for range opt.MaxConcurrent {
		pool.sem <- nil
	}
	if opt.Elastic != nil {
		e := opt.Elastic.withDefaults()
		pool.opts.Elastic = &e
		pool.viewChangedCh = make(chan struct{})
		pool.startDetector()
	}
	return pool, nil
}

// Size returns the mesh width p.
func (p *Pool) Size() int { return p.opts.P }

// JobSeed derives a job's checker seed from a pool's common seed and
// the job's ID. Exported so a serial rerun (plain dist.Run over a fresh
// network) can reproduce a pool job's verdicts and residues
// bit-identically: build a JobWorker with this seed and the same stream.
func JobSeed(commonSeed uint64, id int64) uint64 {
	return hashing.Mix64(commonSeed + jobSeedGamma*uint64(id+1))
}

// Submit schedules body as one verification job under jobOptions and
// returns its handle. Blocks while the pool is at MaxConcurrent
// in-flight jobs (backpressure). Safe from any goroutine.
func (p *Pool) Submit(name string, body Body) (*Job, error) {
	return p.SubmitWith(name, jobOptions(), body)
}

// jobOptions is the checker configuration Submit gives a job:
// repro.DefaultOptions in deferred mode.
func jobOptions() repro.Options {
	o := repro.DefaultOptions()
	o.Mode = repro.CheckDeferred
	return o
}

// SubmitWith is Submit with per-job checker options (mode, checker
// configs), so jobs of different shapes interleave on one mesh.
func (p *Pool) SubmitWith(name string, opts repro.Options, body Body) (*Job, error) {
	if body == nil {
		return nil, errors.New("service: nil job body")
	}
	return p.submit(name, opts, jobSpec{opts: opts, body: body})
}

// submit admits one job onto the current view: it takes a slot and its
// frame — minting one when the slot has none or its frame predates the
// view — and spawns the job's runner on it. Jobs admitted after a view
// change run entirely on the survivor set (the view sub renumbers them
// contiguously), so new work flows while dead ranks stay quarantined.
func (p *Pool) submit(name string, opts repro.Options, spec jobSpec) (*Job, error) {
	// Backpressure: block for a slot, returned when the job finishes —
	// but never wait out a Close, which holds every slot forever.
	var f *frame
	select {
	case f = <-p.sem:
	case <-p.closing:
		return nil, ErrPoolClosed
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.sem <- f
		return nil, ErrPoolClosed
	}
	if f == nil || f.epoch != p.view.Epoch() {
		if f != nil {
			f.releaseLocked()
		}
		var err error
		if f, err = p.mintLocked(p.view.Members(), p.view.Epoch()); err != nil {
			p.mu.Unlock()
			p.sem <- nil
			return nil, fmt.Errorf("service: job %d %q: %w", p.nextID, name, err)
		}
	}
	if spec.shares != nil && len(spec.shares) != len(f.members) {
		p.mu.Unlock()
		p.sem <- f
		return nil, fmt.Errorf("service: recoverable job %q: %d shares for a view of %d members", name, len(spec.shares), len(f.members))
	}
	id := p.nextID
	p.nextID++
	p.submitted++
	p.inflight++
	if p.inflight > p.highWater {
		p.highWater = p.inflight
	}
	p.mu.Unlock()

	lo, hi := f.subs[0].Block()
	j := &Job{
		id:          id,
		name:        name,
		seed:        JobSeed(p.common, id),
		block:       [2]int{lo, hi},
		start:       time.Now(),
		done:        make(chan struct{}),
		members:     f.members,
		epoch:       f.epoch,
		recoverable: spec.rbody != nil,
		deadRank:    -1,
	}
	f.start(j, spec)
	return j, nil
}

// runJob drives the frame's job: its ranks (runRanks), death
// attribution and checked recovery when elastic membership is on, then
// accounting and the frame's retirement. The frame's finish publishes
// the handle and returns the slot afterwards.
func (p *Pool) runJob(f *frame) {
	j, spec := f.j, f.spec
	err := f.runRanks(j, "", f.jobRank)

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
	for _, sub := range f.subs {
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

	// A job whose ranks all finished without an abort (verdicts
	// included) matched every collective on every rank, so no
	// stragglers can exist and the frame's block is safe to reuse: it
	// is reset for the slot's next job. An aborted job's frame is
	// dropped and its block leaks by design (quarantine): a message
	// still on the wire for a poisoned tag must never match a future
	// job. The space holds billions of blocks; chaos is the rare case.
	f.clean = !f.aborted
	if f.clean {
		for _, sub := range f.subs {
			sub.Reset()
		}
	}
	p.mu.Lock()
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

	j.cost = cost
	j.err = err
}

// runRank is one PE's share of a job: key the rank's job worker for the
// job, build the Context, run the body, settle all pending
// verification. i is the logical (view) rank, phys the physical
// endpoint rank; logical rank 0's stats become the job's.
func (p *Pool) runRank(j *Job, i, phys int, w *dist.Worker, spec jobSpec) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("service: job %d %q: PE %d panicked: %v\n%s", j.id, j.name, phys, v, debug.Stack())
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
	if spec.rbody != nil {
		share := spec.shares[i]
		// Checkpoint before compute: the share and its ring-buddy
		// replica must be retained while every member is still alive.
		if spec.kept != nil {
			if rerr := retain(&spec.kept[phys], w.Coll, share); rerr != nil {
				return rerr
			}
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
	members := p.view.Members()
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
	v := p.view
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
	for range cap(p.sem) {
		<-p.sem
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
