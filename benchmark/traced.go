package main

import (
	"fmt"
	"slices"

	"repro"
	"repro/benchmark/meternet"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/obs"
)

// The traced run. The same jobs run in four variants, block by block in
// rotation so drift hits all alike:
//
//	plain   checked, through the Context, nothing traced   (the reference)
//	off     the same under CheckOff
//	obs     checked, with Options.Tracer set
//	traced  checked, decomposed by hand on the meternet decorator, a
//	        span at every layer boundary
//
// The traced variant must reproduce the plain variant's verdict, checker
// bytes and checker rounds exactly; otherwise the trace is not of the
// same job and the run fails. Layer probes follow the jobs.

// jobShare is the part of the measuring time the job rotation gets; the
// probes run on fixed call counts in what is left.
const jobShare = 0.9

// keptJobs is how many traced jobs keep their spans for the trace file.
const keptJobs = 16

var opSpans = []string{"ops.reduce", "ops.sort", "ops.union", "ops.zip"}

func runPipelineTraced(wl *pipeWorkload, cfg runConfig, calibrationMs float64) (*result, error) {
	pr, _, err := timedSetup(1, func() (*pipeRun, error) {
		return setupPipeline(wl, cfg.seed, cfg.sz, cfg.sab)
	})
	if err != nil {
		return nil, err
	}
	defer pr.close()

	rec := newRecorder(numPEs, true, keptJobs)
	withObs := pr.baseOptions(repro.CheckEager)
	withObs.Tracer = obs.NewTracer(numPEs, 0)
	plain := &variant{name: "plain", net: pr.net, opts: pr.baseOptions(repro.CheckEager)}
	off := &variant{name: "off", net: pr.net, opts: pr.baseOptions(repro.CheckOff)}
	traced := &variant{name: "traced", net: meternet.Wrap(pr.net, rec.sink), opts: pr.baseOptions(repro.CheckEager), rec: rec}
	rotation := []*variant{plain, off, {name: "obs", net: pr.net, opts: withObs}, traced}
	tallies := make([]tally, len(rotation))

	// The harness floor: a block whose jobs do nothing, for the
	// allocations NewContext, the barriers and the run itself cost.
	floor, err := pr.runBlock(&variant{name: "floor", net: pr.net, opts: off.opts, empty: true})
	if err != nil {
		return nil, err
	}
	err = timeBox(jobShare*cfg.seconds, func(warmup bool) error {
		for i, v := range rotation {
			b, err := pr.runBlock(v)
			if err != nil {
				return err
			}
			if warmup {
				tallies[i].merge(b.failureCount)
			} else {
				tallies[i].add(b)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tp, tb, to, tt := &tallies[0], &tallies[1], &tallies[2], &tallies[3]

	res := newResult(cfg, true)
	for i := range tallies {
		res.addFailures(tallies[i].failureCount)
	}
	if res.Failed == 0 && (tp.costBytes*tt.jobs() != tt.costBytes*tp.jobs() || tp.costRounds*tt.jobs() != tt.costRounds*tp.jobs()) {
		return nil, fmt.Errorf("%s: the decomposed job is not the Context job: checker bytes/job %v vs %v, rounds/job %v vs %v",
			wl.name, perJob(tt.costBytes, tt.jobs()), perJob(tp.costBytes, tp.jobs()), perJob(tt.costRounds, tt.jobs()), perJob(tp.costRounds, tp.jobs()))
	}

	fillVariantRatios(res, calibrationMs, tp.jobNs, tb.jobNs, to.jobNs, tt.jobNs)

	// Context's own accounting of the plain jobs, bottleneck over PEs.
	wall := float64(sumNs(tp.jobNs))
	res.set("context.op_share", ratio(float64(tp.opNs), wall))
	res.set("context.check_share", ratio(float64(tp.checkNs), wall))
	res.set("context.verify_us", perJob(tp.verifyNs, tp.jobs())/1e3)
	res.set("context.new_context_us", mean(nsToMs(tp.newCtxNs))*1e3)

	// The budget, from rank 0's spans of the traced jobs.
	job := rec.total(0, "job")
	var opsAgg layerAgg
	for _, name := range opSpans {
		a := rec.total(0, name)
		opsAgg.Ns += a.Ns
		opsAgg.SelfNs += a.SelfNs
	}
	acc := rec.total(0, "core.accumulate")
	resolve, prep, barrier := rec.total(0, "core.resolve"), rec.total(0, "core.prep"), rec.total(0, "collective.barrier")
	jobNs := float64(job.Ns)
	res.set("budget.ops_share", ratio(float64(opsAgg.SelfNs), jobNs))
	res.set("budget.core_share", ratio(float64(acc.Ns), jobNs))
	res.set("budget.collective_share", ratio(float64(resolve.SelfNs+prep.SelfNs+barrier.SelfNs), jobNs))
	res.set("budget.comm_share", ratio(float64(rec.total(0, meternet.OpSend.String()).Ns), jobNs))
	res.set("budget.wait_share", ratio(float64(recvNs(rec, 0)), jobNs))
	res.set("budget.service_share", 0)
	res.set("budget.cover_ratio", ratio(float64(opsAgg.Ns+acc.Ns+resolve.Ns+prep.Ns+barrier.Ns), jobNs))

	res.set("core.resolve_us", perJob(resolve.Ns, resolve.Calls)/1e3)
	res.set("core.resolve_self_us", perJob(resolve.SelfNs, resolve.Calls)/1e3)
	res.set("core.state_words", perJob(tt.words, tt.jobs()))
	red, srt := rec.total(0, "ops.reduce"), rec.total(0, "ops.sort")
	res.set("ops.reduce_ns_per_elem", perJob(red.Ns, tt.reduceElems))
	res.set("ops.reduce_self_ns_per_elem", perJob(red.SelfNs, tt.reduceElems))
	res.set("ops.sort_ns_per_elem", perJob(srt.Ns, tt.sortElems))
	res.set("ops.sort_self_ns_per_elem", perJob(srt.SelfNs, tt.sortElems))
	res.set("ops.bytes_sent_per_call", perJob(tt.opsBytes, tt.jobs()))
	// An unchecked job is its ops calls plus the harness floor.
	floorJobs := floor.jobs()
	res.set("ops.allocs_per_call", (perJob(int64(tb.alloc.mallocs), tb.jobs())-perJob(int64(floor.alloc.mallocs), floorJobs))/numPEs)
	res.set("ops.alloc_mb_per_call", (perJob(int64(tb.alloc.bytes), tb.jobs())-perJob(int64(floor.alloc.bytes), floorJobs))/numPEs/1e6)

	send := rec.totalAll(meternet.OpSend.String())
	res.set("comm.send_us_per_msg", perJob(send.Ns, send.Calls)/1e3)
	res.set("comm.recv_wait_share", ratio(float64(recvNs(rec, 0)), jobNs))
	res.set("comm.straggler_skew", stragglerSkew(rec))
	res.set("comm.wire_bytes_per_job", perJob(tt.meter.WireSent, tt.jobs()))
	res.set("comm.conns_open", float64(max(tt.meter.ConnsOpen, 0)))

	for _, name := range []string{"stream.chunks_per_job", "service.submit_us", "service.empty_job_us", "service.jobs_per_s",
		"service.inflight_high_water", "service.rounds_per_job", "service.bytes_per_job", "service.rejected", "service.errored"} {
		res.set(name, 0) // the pipeline workloads never enter stream or service
	}

	checkerWords := int(perJob(tt.words, resolve.Calls)) + 1
	partWords := int(perJob(tt.opsBytes, tt.jobs())) / 8 / (numPEs - 1)
	if err := runProbes(res, cfg, wl.transport, pipelineProbeShares(pr.sets[0]), checkerWords, partWords); err != nil {
		return nil, err
	}
	return res, writeTrace(rec, cfg)
}

// fillVariantRatios sets the metrics that compare the four variants'
// median job times, each ratio printed with its bases, and keeps the
// samples behind them.
func fillVariantRatios(res *result, calibrationMs float64, plainNs, offNs, obsNs, tracedNs []int64) {
	ms := map[string][]float64{"plain": nsToMs(plainNs), "off": nsToMs(offNs), "obs": nsToMs(obsNs), "traced": nsToMs(tracedNs)}
	for name, xs := range ms {
		res.sample("job_ms."+name, xs)
	}
	for _, r := range []struct{ metric, over, under string }{
		{"context.check_overhead_ratio", "plain", "off"},
		{"obs.tracer_on_ratio", "obs", "plain"},
		{"bench.trace_overhead_ratio", "traced", "plain"},
	} {
		a, b := median(ms[r.over]), median(ms[r.under])
		res.set(r.metric, ratio(a, b))
		res.Derived = append(res.Derived, fmt.Sprintf("%s = %.4f (%s %.4f ms / %s %.4f ms)", r.metric, ratio(a, b), r.over, a, r.under, b))
	}
	res.set("bench.calibration_ms", calibrationMs)
	res.set("bench.traced_jobs", float64(len(tracedNs)))
}

// writeTrace writes the recorder's kept spans where the run asked for
// them.
func writeTrace(rec *recorder, cfg runConfig) error {
	if cfg.traceOut == "" {
		return nil
	}
	if err := rec.writeChromeTrace(cfg.traceOut); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// recvNs is the time rank spent blocked in Recv and RecvAny.
func recvNs(rec *recorder, rank int) int64 {
	return rec.total(rank, meternet.OpRecv.String()).Ns + rec.total(rank, meternet.OpRecvAny.String()).Ns
}

// stragglerSkew is max / median over ranks of busy time: the job spans
// minus the time blocked receiving.
func stragglerSkew(rec *recorder) float64 {
	busy := make([]float64, numPEs)
	for r := range busy {
		busy[r] = float64(rec.total(r, "job").Ns - recvNs(rec, r))
	}
	return ratio(slices.Max(busy), median(busy))
}

// pipelineProbeShares picks rank 0's share of an input set, and an
// output share of the size a PE really produces, for the builder probes.
func pipelineProbeShares(s *pipeSet) probeShares {
	var sh probeShares
	if s.pairs != nil {
		sh.pairIn = s.pairs[0]
		sh.pairOut = s.reduced[:len(s.reduced)/numPEs]
	}
	switch {
	case s.a != nil:
		sh.seqIn = s.a[0]
		sh.seqOut = s.sorted[:len(s.a[0])]
	case s.b != nil:
		sh.seqIn = s.b[0]
		sh.seqOut = s.sorted[:len(s.b[0])]
	}
	return sh
}

// runServiceTraced is the traced run of service_mixed: the same four
// variants, each on a pool of its own so a tracer or the decorator can
// be installed and the plain pool's own statistics cover checked jobs
// only. The traced variant's bodies are the benchmark's own —
// the assertion, then the Verify the pool would make — with spans
// around Submit, Await and both halves of the body.
func runServiceTraced(cfg runConfig, calibrationMs float64) (*result, error) {
	sr, _, err := timedSetup(1, func() (*svcRun, error) {
		return setupService(cfg.seed, cfg.sz, cfg.sab, nil, nil)
	})
	if err != nil {
		return nil, err
	}
	defer sr.close()
	offRun, err := newServicePool(cfg.seed, cfg.sz, sr.sets, nil, nil)
	if err != nil {
		return nil, err
	}
	defer offRun.close()
	obsRun, err := newServicePool(cfg.seed, cfg.sz, sr.sets, nil, obs.NewTracer(numPEs, 0))
	if err != nil {
		return nil, err
	}
	defer obsRun.close()
	rec := newRecorder(numPEs, false, 4*svcWindow)
	tracedRun, err := newServicePool(cfg.seed, cfg.sz, sr.sets, func(n comm.Network) comm.Network { return meternet.Wrap(n, rec.sink) }, nil)
	if err != nil {
		return nil, err
	}
	defer tracedRun.close()

	rotation := []*svcVariant{
		{name: "plain", run: sr},
		{name: "off", run: offRun, off: true},
		{name: "obs", run: obsRun},
		{name: "traced", run: tracedRun, rec: rec},
	}
	tallies := make([]svcTally, len(rotation))
	err = timeBox(jobShare*cfg.seconds, func(warmup bool) error {
		for i, v := range rotation {
			r, err := v.runRound()
			if err != nil {
				return err
			}
			if warmup {
				tallies[i].merge(r.failureCount)
			} else {
				tallies[i].add(r)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tp, tb, to, tt := &tallies[0], &tallies[1], &tallies[2], &tallies[3]

	res := newResult(cfg, true)
	for i := range tallies {
		res.addFailures(tallies[i].failureCount)
	}
	if res.Failed == 0 && (tp.costBytes*tt.jobs() != tt.costBytes*tp.jobs() || tp.costRounds*tt.jobs() != tt.costRounds*tp.jobs()) {
		return nil, fmt.Errorf("service_mixed: the traced bodies are not the pool's jobs: checker bytes/job %v vs %v, rounds/job %v vs %v",
			perJob(tt.costBytes, tt.jobs()), perJob(tp.costBytes, tp.jobs()), perJob(tt.costRounds, tt.jobs()), perJob(tp.costRounds, tp.jobs()))
	}

	fillVariantRatios(res, calibrationMs, tp.latNs, tb.latNs, to.latNs, tt.latNs)

	// Rank 0's own accounting of the plain jobs (Job.Stats, Job.Summaries).
	lat := float64(sumNs(tp.latNs))
	res.set("context.op_share", 0)
	res.set("context.check_share", ratio(float64(tp.checkNs), lat))
	res.set("context.verify_us", perJob(tp.verifyNs, tp.jobs())/1e3)
	res.set("stream.chunks_per_job", perJob(tp.chunks, tp.jobs()))

	// The budget: a traced job's submit-to-done time splits into Submit
	// (admission, minting), dispatch (until rank 0's body starts), the
	// body's accumulate and resolve halves, and retirement (the slowest
	// rank, accounting, block release). Endpoint calls of interleaved
	// jobs cannot be told apart, so comm stays inside resolve here.
	tracedLat := float64(sumNs(tt.latNs))
	res.set("budget.ops_share", 0)
	res.set("budget.core_share", ratio(float64(tt.accNs), tracedLat))
	res.set("budget.collective_share", ratio(float64(tt.resNs), tracedLat))
	res.set("budget.comm_share", 0)
	res.set("budget.wait_share", 0)
	res.set("budget.service_share", ratio(float64(tt.submitNs+tt.dispatchNs+tt.retireNs), tracedLat))
	res.set("budget.cover_ratio", ratio(float64(tt.accNs+tt.resNs+tt.submitNs+tt.dispatchNs+tt.retireNs), tracedLat))
	res.set("core.resolve_us", perJob(tt.resNs, tt.jobs())/1e3)
	res.set("core.resolve_self_us", perJob(tt.resNs, tt.jobs())/1e3)
	res.set("core.state_words", perJob(tt.words, tt.jobs()))
	res.set("service.submit_us", perJob(tt.submitNs, tt.jobs())/1e3)

	for _, name := range []string{"ops.reduce_ns_per_elem", "ops.reduce_self_ns_per_elem", "ops.sort_ns_per_elem", "ops.sort_self_ns_per_elem",
		"ops.allocs_per_call", "ops.alloc_mb_per_call", "ops.bytes_sent_per_call", "comm.wire_bytes_per_job", "comm.conns_open"} {
		res.set(name, 0) // no ops calls, no connections
	}
	send := rec.totalAll(meternet.OpSend.String())
	res.set("comm.send_us_per_msg", perJob(send.Ns, send.Calls)/1e3)
	res.set("comm.recv_wait_share", ratio(float64(recvNs(rec, 0)), float64(tt.wallNs())))
	busy := make([]float64, numPEs)
	for r := range busy {
		busy[r] = float64(tt.wallNs() - recvNs(rec, r))
	}
	res.set("comm.straggler_skew", ratio(slices.Max(busy), median(busy)))

	stats := sr.pool.Stats()
	// An empty body: minting, one Verify with nothing pending, retirement.
	var emptyErr error
	empty := timeCalls(cfg.sz.calls(300), func() {
		j, err := sr.pool.Submit("empty", func(*repro.Context) error { return nil })
		if err == nil {
			err = j.Await()
		}
		if err != nil {
			emptyErr = err
		}
	})
	if emptyErr != nil {
		return nil, fmt.Errorf("service_mixed: empty job: %w", emptyErr)
	}
	for i := range empty {
		empty[i] /= 1e3
	}
	res.sample("service.empty_job_us", empty)
	res.set("service.empty_job_us", median(empty))
	res.set("service.jobs_per_s", ratio(float64(tp.jobs()), float64(tp.wallNs())/1e9))
	res.set("service.inflight_high_water", float64(stats.HighWater))
	res.set("service.rounds_per_job", stats.RoundsPerJob)
	res.set("service.bytes_per_job", stats.BytesPerJob)
	res.set("service.rejected", float64(stats.Rejected))
	res.set("service.errored", float64(stats.Errored))
	res.Counts["pool_completed"] = float64(stats.Completed)

	set := sr.sets[0]
	shares := probeShares{
		pairIn: set.claims[kindAssertSum].pairIn[0], pairOut: set.claims[kindAssertSum].pairOut[0],
		seqIn: set.claims[kindAssertSorted].seqIn[0], seqOut: set.claims[kindAssertSorted].seqOut[0],
		streamed: true, chunk: cfg.sz.streamChunk,
	}
	if err := runProbes(res, cfg, dist.TransportMem, shares, int(perJob(tt.words, tt.jobs()))+1, 0); err != nil {
		return nil, err
	}
	res.set("context.new_context_us", 0) // the pool builds the job's Context; it is inside dispatch
	return res, writeTrace(rec, cfg)
}
