package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	sz       sizes
	sab      sabotage
	setups   int // how often set-up runs at least; setup_s is their 10th percentile
	traceOut string
}

// warmupShare is the part of the measuring time whose jobs are run and
// checked but not timed.
const warmupShare = 0.05

// timeBox drives alternating rounds until the measuring time is used up.
// round runs one unit of paired work and says whether to keep it; the
// first round, and every round begun within the warm-up share, is
// reported to it as warm-up. At least one measured round always runs.
func timeBox(seconds float64, round func(warmup bool) error) error {
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	measured := false
	for i := 0; ; i++ {
		began := time.Now()
		warm := i == 0 || float64(began.Sub(start)) < warmupShare*float64(budget)
		if err := round(warm); err != nil {
			return err
		}
		measured = measured || !warm
		last := time.Since(began)
		if measured && time.Since(start)+last > budget {
			return nil
		}
	}
}

// timedSetup runs setup n times — and on, up to 5n times, while all of
// them together took under half a second, so that a set-up of a few
// milliseconds is not one noisy reading — tearing every instance but the
// last down again, and returns the last instance with all set-up times.
func timedSetup[T interface{ close() }](n int, setup func() (T, error)) (T, []float64, error) {
	var inst T
	var secs []float64
	var total float64
	for i := 0; i < max(n, 1) || (n > 1 && i < 5*n && total < 0.5); i++ {
		if i > 0 {
			inst.close()
		}
		t := time.Now()
		var err error
		inst, err = setup()
		if err != nil {
			return inst, nil, err
		}
		secs = append(secs, time.Since(t).Seconds())
		total += secs[i]
	}
	// The discarded instances are garbage now; collect it here so the
	// first timed jobs do not pay for it.
	runtime.GC()
	return inst, secs, nil
}

// runPipelineUntraced measures the end-to-end metrics of a pipeline
// workload: checked and CheckOff blocks alternate on the same inputs
// over one transport, nothing is traced.
func runPipelineUntraced(wl *pipeWorkload, cfg runConfig) (*result, error) {
	pr, setupS, err := timedSetup(cfg.setups, func() (*pipeRun, error) {
		return setupPipeline(wl, cfg.seed, cfg.sz, cfg.sab)
	})
	if err != nil {
		return nil, err
	}
	defer pr.close()

	checked := &variant{name: "checked", net: pr.net, opts: pr.baseOptions(repro.CheckEager)}
	off := &variant{name: "off", net: pr.net, opts: pr.baseOptions(repro.CheckOff)}
	var tc, tb tally
	err = timeBox(cfg.seconds, func(warmup bool) error {
		bc, err := pr.runBlock(checked)
		if err != nil {
			return err
		}
		bo, err := pr.runBlock(off)
		if err != nil {
			return err
		}
		if warmup {
			tc.merge(bc.failureCount)
			tb.merge(bo.failureCount)
		} else {
			tc.add(bc)
			tb.add(bo)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := newResult(cfg, false)
	res.addFailures(tc.failureCount)
	res.addFailures(tb.failureCount)
	// Two blocks make a window. Its throughput is its input elements over
	// its busy time, NewContext to closing barrier, oracle checks excluded.
	window := 2 * len(pr.sets)
	elems := float64(window * numPEs * wl.perPE(cfg.sz))
	tput := sumWindows(tc.cycleNs, window)
	for i, busyMs := range tput {
		tput[i] = elems / (busyMs / 1e3)
	}
	fillEndToEnd(res, endToEndInputs{
		jobMs: nsToMs(tc.jobNs), baseMs: nsToMs(tb.jobNs),
		window: window, baseWindow: window, throughput: tput,
		checkerBytes: perJob(tc.costBytes, tc.jobs()), checkerRounds: perJob(tc.costRounds, tc.jobs()),
		commBytes: perJob(tc.meter.BytesSent, tc.jobs()), commMsgs: perJob(tc.meter.MsgsSent, tc.jobs()),
		allocBytes: perJob(int64(tc.alloc.bytes), tc.jobs()), allocs: perJob(int64(tc.alloc.mallocs), tc.jobs()),
		setupS:     setupS,
		localBytes: float64(wl.elemBytes * wl.perPE(cfg.sz)),
	})
	res.Counts["checked_jobs"] = float64(tc.jobs())
	res.Counts["base_jobs"] = float64(tb.jobs())
	res.Counts["blocks"] = float64(tc.blocks)
	return res, nil
}

// endToEndInputs is what every workload hands fillEndToEnd.
type endToEndInputs struct {
	jobMs, baseMs               []float64 // every measured job, in run order
	window, baseWindow          int       // jobs per window of jobMs and of baseMs
	throughput                  []float64 // elements per second, one value per window
	checkerBytes, checkerRounds float64   // per job
	commBytes, commMsgs         float64   // per job
	allocBytes, allocs          float64   // per job
	setupS                      []float64
	localBytes                  float64 // one PE's local input bytes per job
}

// windows cuts samples into consecutive windows of n and returns stat of
// each; a trailing partial window is dropped, and fewer samples than one
// window make a single window.
func windows(samples []float64, n int, stat func([]float64) float64) []float64 {
	if len(samples) < n || n < 1 {
		if len(samples) == 0 {
			return nil
		}
		return []float64{stat(samples)}
	}
	out := make([]float64, 0, len(samples)/n)
	for i := 0; i+n <= len(samples); i += n {
		out = append(out, stat(samples[i:i+n]))
	}
	return out
}

func p90(samples []float64) float64 { return summarize(samples).P90 }

func sumWindows(ns []int64, n int) []float64 {
	return windows(nsToMs(ns), n, func(w []float64) float64 {
		var t float64
		for _, x := range w {
			t += x
		}
		return t
	})
}

// fillEndToEnd sets the twelve end-to-end metrics and the derived
// ratios, each ratio with its base.
//
// The timing metrics come from windows: a run's jobs are cut into
// consecutive windows of identical work, the statistic (median, 90th
// percentile, elements per second) is taken within each window, and the
// metric is its value in the quietest tenth of the windows: the 10th
// percentile across windows of a time, the 90th of a rate. Whatever else
// uses the machine only ever adds time, for seconds at a stretch, so it
// spoils some windows, and a median across windows moves with how many.
// A change to the program moves every window, the quiet ones too; a
// window is long enough to hold several garbage collections, so the
// program's own periodic costs are in every one. setup_s is the 10th
// percentile of the run's set-ups for the same reason.
func fillEndToEnd(res *result, in endToEndInputs) {
	res.Samples["job_ms"], res.Samples["base_ms"] = in.jobMs, in.baseMs
	res.sample("job_ms_p50", windows(in.jobMs, in.window, median))
	res.sample("job_ms_p90", windows(in.jobMs, in.window, p90))
	res.sample("base_ms_p50", windows(in.baseMs, in.baseWindow, median))
	res.sample("throughput_elems_per_s", in.throughput)
	res.sample("setup_s", in.setupS)
	for _, name := range []string{"job_ms_p50", "job_ms_p90", "base_ms_p50", "setup_s"} {
		res.set(name, res.Summaries[name].P10)
	}
	res.set("throughput_elems_per_s", res.Summaries["throughput_elems_per_s"].P90)
	job, base := res.Metrics["job_ms_p50"].Value, res.Metrics["base_ms_p50"].Value
	res.set("checker_bytes_per_pe", in.checkerBytes)
	res.set("checker_rounds_per_job", in.checkerRounds)
	res.set("comm_bytes_per_job", in.commBytes)
	res.set("comm_msgs_per_job", in.commMsgs)
	res.set("alloc_mb_per_job", in.allocBytes/1e6)
	res.set("allocs_per_job", in.allocs)
	res.set("ok_ratio", 1-ratio(float64(res.Failed), float64(res.Attempted)))
	all := summarize(in.jobMs)
	res.Derived = append(res.Derived,
		fmt.Sprintf("context.check_overhead_ratio = %.4f (job_ms_p50 %.4f ms / base_ms_p50 %.4f ms)", ratio(job, base), job, base),
		fmt.Sprintf("checker_bytes_per_pe / local input bytes = %.6f (%.0f B / %.0f B)",
			ratio(in.checkerBytes, in.localBytes), in.checkerBytes, in.localBytes),
		fmt.Sprintf("fail_ratio = %.6f (failed %d / attempted %d)",
			ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted),
		fmt.Sprintf("all %d checked jobs pooled: median %.4f ms, p90 %.4f ms, min %.4f ms, max %.4f ms; windows of %d jobs",
			all.N, all.Median, all.P90, all.Min, all.Max, in.window),
	)
}
