package main

import (
	"fmt"
	"sync"
	"time"

	"repro"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/service"
)

// service_mixed: one resident service.Pool, four claim-checking job
// kinds in rotation, a closed loop with a fixed window of jobs in
// flight, every 8th job carrying a corrupted output.
//
// Job i belongs to group g = i/8 at position r = i%8. Its kind is r%4,
// its input set (r+g) mod sets, and it is the group's corrupted job when
// r = 4 + g%4 — so corruption visits every kind and every input set.
// The plan repeats every 64 jobs; a round is four repeats, and a run
// only ever executes whole rounds, so every round does the same work.

const (
	svcWindow    = 8   // jobs in flight, and the pool's MaxConcurrent
	svcRoundJobs = 256 // jobs per round: a multiple of the 64-job plan
)

type jobPlan struct {
	kind      int
	set       int
	corrupted bool
}

func planJob(i int64, sets int) jobPlan {
	g, r := int(i/8), int(i%8)
	return jobPlan{kind: r % numKinds, set: (r + g) % sets, corrupted: r == numKinds+g%numKinds}
}

// svcRun is a set-up service workload: inputs with their correct and
// corrupted claims, the transport, and the resident pool on it.
type svcRun struct {
	sz   sizes
	sets []*svcSet
	net  comm.Network
	pool *service.Pool
}

// setupService generates the inputs and brings the pool up. wrap, when
// non-nil, decorates the transport before the pool is built on it;
// tracer, when non-nil, is installed as the pool's obs tracer.
func setupService(seed uint64, sz sizes, sab sabotage, wrap func(comm.Network) comm.Network, tracer *obs.Tracer) (*svcRun, error) {
	sets, err := genService(seed, sz, sab)
	if err != nil {
		return nil, fmt.Errorf("service_mixed: %w", err)
	}
	return newServicePool(seed, sz, sets, wrap, tracer)
}

// newServicePool brings up one more pool over already generated inputs.
func newServicePool(seed uint64, sz sizes, sets []*svcSet, wrap func(comm.Network) comm.Network, tracer *obs.Tracer) (*svcRun, error) {
	net, err := dist.Config{Transport: dist.TransportMem}.NewNetwork(numPEs)
	if err != nil {
		return nil, fmt.Errorf("service_mixed: network: %w", err)
	}
	if wrap != nil {
		net = wrap(net)
	}
	// Zero Repro options select the pool's default: DefaultOptions in
	// deferred mode.
	pool, err := service.NewOnNetwork(net, service.Options{
		Seed: derive(seed, "pool-seed"), MaxConcurrent: svcWindow, Tracer: tracer,
	})
	if err != nil {
		net.Close()
		return nil, fmt.Errorf("service_mixed: pool: %w", err)
	}
	return &svcRun{sz: sz, sets: sets, net: net, pool: pool}, nil
}

func (sr *svcRun) close() {
	sr.pool.Close()
	sr.net.Close()
}

// svcVariant is one way of running the job stream on a pool.
type svcVariant struct {
	name string
	run  *svcRun
	off  bool      // same bodies under CheckOff
	rec  *recorder // non-nil: benchmark-owned bodies with spans
	next int64     // next job index
}

// jobTrace is what rank 0's traced body reports about one job.
type jobTrace struct {
	bodyStart, bodyEnd time.Time
	accNs, resNs       int64
}

// assert runs kind's claim check on ctx: exactly the calls
// Pool.SubmitStream makes for the streamed kinds.
func assert(ctx *repro.Context, kind int, c *claim, corrupted bool, chunk int) error {
	r := ctx.Worker().Rank()
	switch kind {
	case kindAssertSum:
		return ctx.AssertSum(c.pairIn[r], c.pairs(corrupted)[r])
	case kindAssertSorted:
		return ctx.AssertSorted(c.seqIn[r], c.seqs(corrupted)[r])
	case kindStreamPerm:
		return ctx.StreamSeq(repro.SliceSeq(c.seqIn[r], chunk)).AssertPermutation(repro.SliceSeq(c.seqs(corrupted)[r], chunk))
	default:
		return ctx.StreamPairs(repro.SlicePairs(c.pairIn[r], chunk)).AssertCount(repro.SlicePairs(c.pairs(corrupted)[r], chunk))
	}
}

// submit admits job i in the variant's way.
func (v *svcVariant) submit(i int64, plan jobPlan, jobSpan *open, jt *jobTrace) (*service.Job, error) {
	c := &v.run.sets[plan.set].claims[plan.kind]
	chunk := v.run.sz.streamChunk
	name := kindNames[plan.kind]
	pool := v.run.pool
	switch {
	case v.rec != nil:
		// Traced: the same assertion, then the Verify the pool would make
		// itself, each under a span. The pool's own Verify finds nothing
		// pending afterwards.
		return pool.Submit(name, func(ctx *repro.Context) error {
			r := ctx.Worker().Rank()
			body := v.rec.begin(r, i, jobSpan, "service.body")
			acc := v.rec.begin(r, i, body, "core.accumulate")
			err := assert(ctx, plan.kind, c, plan.corrupted, chunk)
			accNs := acc.end()
			res := v.rec.begin(r, i, body, "core.resolve")
			verr := ctx.Verify()
			resNs := res.end()
			body.end()
			if r == 0 {
				*jt = jobTrace{bodyStart: body.start, bodyEnd: time.Now(), accNs: accNs.Nanoseconds(), resNs: resNs.Nanoseconds()}
			}
			if err == nil {
				err = verr
			}
			return err
		})
	case v.off:
		opts := repro.DefaultOptions()
		opts.Mode = repro.CheckOff
		return pool.SubmitWith(name, opts, func(ctx *repro.Context) error {
			return assert(ctx, plan.kind, c, plan.corrupted, chunk)
		})
	case plan.kind == kindStreamPerm:
		out := c.seqs(plan.corrupted)
		return pool.SubmitStream(name, service.StreamSpec{
			Op:        service.StreamPermutation,
			SeqInput:  func(r int) repro.SeqSource { return repro.SliceSeq(c.seqIn[r], chunk) },
			SeqOutput: func(r int) repro.SeqSource { return repro.SliceSeq(out[r], chunk) },
		})
	case plan.kind == kindStreamCount:
		out := c.pairs(plan.corrupted)
		return pool.SubmitStream(name, service.StreamSpec{
			Op:         service.StreamCount,
			PairInput:  func(r int) repro.PairSource { return repro.SlicePairs(c.pairIn[r], chunk) },
			PairOutput: func(r int) repro.PairSource { return repro.SlicePairs(out[r], chunk) },
		})
	default:
		return pool.Submit(name, func(ctx *repro.Context) error {
			return assert(ctx, plan.kind, c, plan.corrupted, chunk)
		})
	}
}

// svcTally is what some rounds of one variant measured; runRound
// returns the tally of one round.
type svcTally struct {
	roundWallNs []int64 // one entry per round
	latNs       []int64 // submit to done, every job
	alloc       allocDelta
	meter       comm.MeterSnapshot

	// Sums over the jobs.
	costBytes  int64 // the job's bottleneck bytes (max over PEs)
	costRounds int64
	chunks     int64
	words      int64 // checker state words, rank 0
	checkNs    int64 // rank 0: CheckNs of every stage plus the Verify wall
	verifyNs   int64 // rank 0: Verify wall
	rejected   int
	errored    int

	// traced rounds only
	submitNs, dispatchNs, accNs, resNs, retireNs int64

	failureCount
}

func (t *svcTally) rounds() int   { return len(t.roundWallNs) }
func (t *svcTally) jobs() int64   { return int64(len(t.latNs)) }
func (t *svcTally) wallNs() int64 { return sumNs(t.roundWallNs) }

func (t *svcTally) add(r svcTally) {
	t.roundWallNs = append(t.roundWallNs, r.roundWallNs...)
	t.latNs = append(t.latNs, r.latNs...)
	t.alloc.mallocs += r.alloc.mallocs
	t.alloc.bytes += r.alloc.bytes
	t.meter.BytesSent += r.meter.BytesSent
	t.meter.MsgsSent += r.meter.MsgsSent
	t.costBytes += r.costBytes
	t.costRounds += r.costRounds
	t.chunks += r.chunks
	t.words += r.words
	t.checkNs += r.checkNs
	t.verifyNs += r.verifyNs
	t.rejected += r.rejected
	t.errored += r.errored
	t.submitNs += r.submitNs
	t.dispatchNs += r.dispatchNs
	t.accNs += r.accNs
	t.resNs += r.resNs
	t.retireNs += r.retireNs
	t.merge(r.failureCount)
}

// runRound runs one round of jobs with svcWindow of them in flight: a
// closed loop, the generator submits the next job as soon as one is
// done.
func (v *svcVariant) runRound() (svcTally, error) {
	var res svcTally
	var mu sync.Mutex // guards res while jobs complete concurrently
	sets := len(v.run.sets)
	window := make(chan struct{}, svcWindow)

	a0 := readAllocs()
	m0 := comm.NetworkMeter(v.run.net)
	t0 := time.Now()
	for n := 0; n < svcRoundJobs; n++ {
		i := v.next
		v.next++
		plan := planJob(i, sets)
		window <- struct{}{}
		var jobSpan, sub *open
		var jt *jobTrace
		start := time.Now()
		if v.rec != nil {
			jt = new(jobTrace)
			jobSpan = v.rec.begin(v.rec.clientLane(), i, nil, "job")
			jobSpan.tid = int(i%svcWindow) + 1
			jobSpan.start = start
			sub = v.rec.begin(v.rec.clientLane(), i, jobSpan, "service.submit")
		}
		job, err := v.submit(i, plan, jobSpan, jt)
		submitted := time.Now()
		if sub != nil {
			sub.end()
		}
		if err != nil {
			<-window
			return res, fmt.Errorf("service_mixed/%s: submit job %d: %w", v.name, i, err)
		}
		go func() {
			defer func() { <-window }()
			var aw *open
			if jobSpan != nil {
				aw = v.rec.begin(v.rec.clientLane(), i, jobSpan, "service.await")
			}
			jerr := job.Await()
			done := time.Now()
			if aw != nil {
				aw.end()
				jobSpan.end()
			}
			why := v.judge(plan, job, jerr)
			cost := job.Cost()
			var rounds, chunks, words, checkNs, verifyNs int64
			for _, st := range job.Stats() {
				rounds += int64(st.CheckerRounds)
				chunks += int64(st.Chunks)
				checkNs += st.CheckNs
			}
			for _, sum := range job.Summaries() {
				rounds += int64(sum.Rounds)
				words += int64(sum.Words - sum.Stages) // Words counts one flag word per stage
				verifyNs += sum.WallNs
			}

			mu.Lock()
			defer mu.Unlock()
			res.latNs = append(res.latNs, done.Sub(start).Nanoseconds())
			res.costBytes += cost.Bytes
			res.costRounds += rounds
			res.chunks += chunks
			res.words += words
			res.checkNs += checkNs + verifyNs
			res.verifyNs += verifyNs
			res.attempted++
			switch {
			case jerr == nil:
			case job.Rejected():
				res.rejected++
			default:
				res.errored++
			}
			if why != "" {
				res.fail(fmt.Sprintf("job %d (%s, input set %d): %s", i, kindNames[plan.kind], plan.set, why))
			}
			if v.rec != nil {
				res.submitNs += submitted.Sub(start).Nanoseconds()
				res.dispatchNs += jt.bodyStart.Sub(submitted).Nanoseconds()
				res.accNs += jt.accNs
				res.resNs += jt.resNs
				res.retireNs += done.Sub(jt.bodyEnd).Nanoseconds()
			}
		}()
	}
	for n := 0; n < svcWindow; n++ { // every slot taken: every job done
		window <- struct{}{}
	}
	res.roundWallNs = []int64{time.Since(t0).Nanoseconds()}
	res.meter = meterDelta(m0, comm.NetworkMeter(v.run.net))
	res.alloc = readAllocs().sub(a0)
	return res, nil
}

// judge returns why the job counts as failed, or "".
func (v *svcVariant) judge(plan jobPlan, job *service.Job, err error) string {
	switch {
	case err != nil && !job.Rejected():
		return "died on infrastructure: " + err.Error()
	case v.off && err != nil:
		return "rejected although checking is off"
	case v.off:
		return ""
	case plan.corrupted && err == nil:
		return "corrupted output accepted"
	case !plan.corrupted && err != nil:
		return "clean job rejected by its checker"
	}
	return ""
}

// runServiceUntraced measures the end-to-end metrics of service_mixed:
// two checked rounds alternate with one CheckOff round of the same
// bodies on the same pool.
func runServiceUntraced(cfg runConfig) (*result, error) {
	sr, setupS, err := timedSetup(cfg.setups, func() (*svcRun, error) {
		return setupService(cfg.seed, cfg.sz, cfg.sab, nil, nil)
	})
	if err != nil {
		return nil, err
	}
	defer sr.close()

	checked := &svcVariant{name: "checked", run: sr}
	off := &svcVariant{name: "off", run: sr, off: true}
	var tc, tb svcTally
	err = timeBox(cfg.seconds, func(warmup bool) error {
		for _, v := range []*svcVariant{checked, checked, off} {
			r, err := v.runRound()
			if err != nil {
				return err
			}
			t := &tc
			if v.off {
				t = &tb
			}
			if warmup {
				t.merge(r.failureCount)
			} else {
				t.add(r)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := newResult(cfg, false)
	res.addFailures(tc.failureCount)
	res.addFailures(tb.failureCount)
	jobs := tc.jobs()
	// Two checked rounds — one turn of the rotation — make a window.
	tput := sumWindows(tc.roundWallNs, 2)
	for i, wallMs := range tput {
		tput[i] = float64(2*svcRoundJobs*numPEs*cfg.sz.servicePerPE) / (wallMs / 1e3)
	}
	fillEndToEnd(res, endToEndInputs{
		jobMs: nsToMs(tc.latNs), baseMs: nsToMs(tb.latNs),
		window: 2 * svcRoundJobs, baseWindow: svcRoundJobs, throughput: tput,
		checkerBytes: perJob(tc.costBytes, jobs), checkerRounds: perJob(tc.costRounds, jobs),
		commBytes: perJob(tc.meter.BytesSent, jobs), commMsgs: perJob(tc.meter.MsgsSent, jobs),
		allocBytes: perJob(int64(tc.alloc.bytes), jobs), allocs: perJob(int64(tc.alloc.mallocs), jobs),
		setupS:     setupS,
		localBytes: float64(12 * cfg.sz.servicePerPE), // mean over the kinds: two of 16 B pairs, two of 8 B values
	})
	res.Counts["checked_jobs"] = float64(jobs)
	res.Counts["base_jobs"] = float64(tb.jobs())
	res.Counts["rounds"] = float64(tc.rounds())
	res.Counts["rejected"] = float64(tc.rejected)
	res.Counts["errored"] = float64(tc.errored + tb.errored)
	stats := sr.pool.Stats()
	res.Counts["pool_high_water"] = float64(stats.HighWater)
	return res, nil
}
