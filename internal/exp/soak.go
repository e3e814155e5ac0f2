package exp

import (
	"fmt"
	"sort"
	"time"

	"repro"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/obs"
	"repro/internal/service"
)

// SoakOptions configures the service-mode soak-and-chaos run: mixed
// verification traffic over one resident mesh while manipulators
// corrupt claimed results and a fault injector attacks the transport.
// The zero value of any field selects the default noted on it.
type SoakOptions struct {
	P           int // PEs (default 4)
	Concurrency int // in-flight job bound (default 64)
	Jobs        int // phase-A traffic jobs (default 512)
	Elements    int // elements per PE per job (default 2000)
	// CorruptEvery corrupts every n-th corruptible phase-A job via the
	// paper's manipulators (default 3; <0 disables corruption).
	CorruptEvery int
	// Flips and Faults are the phase-B chaos episodes: armed transport
	// bitflips and hard receive faults, one clean job wave each
	// (defaults 4 and 4; 0 keeps the default, <0 disables).
	Flips  int
	Faults int
	// WaveJobs is the wave width of one phase-B episode (default
	// Concurrency/4, minimum 4).
	WaveJobs int
	Seed     uint64
	Mode     repro.CheckMode // default CheckDeferred
	Dist     dist.Config     // transport (default mem)
	// JobTimeout backstops wedged jobs (default 60s).
	JobTimeout time.Duration
	// KillRank, when >= 1, runs phase C: an elastic pool with that rank
	// crashed mid-flight and the full recovery contract asserted
	// (0 disables; rank 0 is not a supported victim).
	KillRank int
	// Verbose, when set, receives progress lines.
	Verbose func(format string, args ...any)
	// Tracer, when non-nil, records spans for the soak's pool jobs
	// (internal/obs).
	Tracer *obs.Tracer
}

func (o *SoakOptions) fill() {
	if o.P == 0 {
		o.P = 4
	}
	if o.Concurrency == 0 {
		o.Concurrency = 64
	}
	if o.Jobs == 0 {
		o.Jobs = 512
	}
	if o.Elements == 0 {
		o.Elements = 2000
	}
	if o.CorruptEvery == 0 {
		o.CorruptEvery = 3
	}
	if o.Flips == 0 {
		o.Flips = 4
	}
	if o.Faults == 0 {
		o.Faults = 4
	}
	if o.WaveJobs == 0 {
		if o.WaveJobs = o.Concurrency / 4; o.WaveJobs < 4 {
			o.WaveJobs = 4
		}
	}
	if o.Mode == repro.CheckEager {
		o.Mode = repro.CheckDeferred
	}
	if o.JobTimeout == 0 {
		o.JobTimeout = 60 * time.Second
	}
	if o.Verbose == nil {
		o.Verbose = func(string, ...any) {}
	}
}

// SoakRow tallies one traffic kind of the soak's phase A.
type SoakRow struct {
	Kind        string `json:"kind"`
	Clean       int    `json:"clean"`
	CleanPassed int    `json:"clean_passed"`
	Corrupted   int    `json:"corrupted"`
	Detected    int    `json:"detected"`
}

// SoakResult is the outcome of one soak-and-chaos run. The run passes
// (OK) iff every injected corruption was detected, no clean job was
// rejected or errored, every transport-fault episode stayed contained
// to the job owning the hit tag, and the pool actually sustained the
// requested concurrency.
type SoakResult struct {
	Rows []SoakRow `json:"rows"`

	Jobs        int `json:"jobs"`
	Corrupted   int `json:"corrupted"`
	Detected    int `json:"detected"`
	Escapes     int `json:"escapes"`      // corrupted jobs that passed
	FalseAlarms int `json:"false_alarms"` // clean jobs that did not pass

	Flips          int `json:"flips"`           // bitflip episodes that landed
	FlipContained  int `json:"flip_contained"`  // ...whose fallout stayed in the hit job
	Faults         int `json:"faults"`          // hard-fault episodes that landed
	FaultContained int `json:"fault_contained"` // ...contained, pool survived

	// Recovery is the phase-C kill-a-rank episode (nil unless KillRank
	// was set).
	Recovery *RecoveryEpisode `json:"recovery,omitempty"`

	HighWater    int     `json:"high_water"`
	JobsPerSec   float64 `json:"jobs_per_sec"`
	P50Ns        int64   `json:"p50_ns"`
	P99Ns        int64   `json:"p99_ns"`
	BytesPerJob  float64 `json:"bytes_per_job"`
	RoundsPerJob float64 `json:"rounds_per_job"`

	OK bool `json:"ok"`
}

// soakJob is one unit of phase-A traffic, fully precomputed before
// submission so the submit loop saturates the pool instead of
// generating data.
type soakJob struct {
	kind      string
	corrupted bool
	submit    func(pool *service.Pool, name string) (*service.Job, error)
}

// soakGen precomputes soak traffic: deterministic datasets, corrupted
// claimed outputs (via the paper's Table 4/6 manipulators, with a
// guaranteed-effective fallback), and the submit closures.
type soakGen struct {
	opt   SoakOptions
	rng   *hashing.MT19937_64
	pairM []manipulate.PairManipulator
	seqM  []manipulate.SeqManipulator
	next  uint64 // stream counter
}

func newSoakGen(opt SoakOptions) *soakGen {
	return &soakGen{
		opt:   opt,
		rng:   hashing.NewMT19937_64(hashing.Mix64(opt.Seed ^ 0x736f616b52756e21)), // "soakRun!"
		pairM: manipulate.PairManipulators(),
		seqM:  manipulate.SeqManipulators(),
	}
}

const soakKeyUniverse = 1 << 10

// pairShares builds the p local shares of one job's pair dataset.
func (g *soakGen) pairShares(stream uint64) [][]repro.Pair {
	rng := hashing.NewMT19937_64(hashing.Mix64(g.opt.Seed + stream))
	shares := make([][]repro.Pair, g.opt.P)
	for r := range shares {
		sh := make([]repro.Pair, g.opt.Elements)
		for i := range sh {
			sh[i] = repro.Pair{Key: rng.Uint64()%soakKeyUniverse + 1, Value: rng.Uint64() % (1 << 20)}
		}
		shares[r] = sh
	}
	return shares
}

// seqShares builds the p local shares of one job's word sequence, plus
// the globally sorted sequence split the same way (the correct claimed
// output of a distributed sort).
func (g *soakGen) seqShares(stream uint64) (in, sorted [][]uint64) {
	rng := hashing.NewMT19937_64(hashing.Mix64(g.opt.Seed + stream + 0x5e40))
	n := g.opt.Elements
	all := make([]uint64, n*g.opt.P)
	for i := range all {
		all[i] = rng.Uint64() % (1 << 30)
	}
	srt := make([]uint64, len(all))
	copy(srt, all)
	sort.Slice(srt, func(i, j int) bool { return srt[i] < srt[j] })
	in = make([][]uint64, g.opt.P)
	sorted = make([][]uint64, g.opt.P)
	for r := 0; r < g.opt.P; r++ {
		in[r] = all[r*n : (r+1)*n]
		sorted[r] = srt[r*n : (r+1)*n]
	}
	return in, sorted
}

// countShares computes the correct claimed output of a distributed
// per-key count over shares: global (key, count) pairs in key order,
// split evenly across the p ranks.
func (g *soakGen) countShares(shares [][]repro.Pair) [][]repro.Pair {
	counts := map[uint64]uint64{}
	for _, sh := range shares {
		for _, pr := range sh {
			counts[pr.Key]++
		}
	}
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	all := make([]repro.Pair, len(keys))
	for i, k := range keys {
		all[i] = repro.Pair{Key: k, Value: counts[k]}
	}
	p := len(shares)
	out := make([][]repro.Pair, p)
	for r := 0; r < p; r++ {
		out[r] = all[r*len(all)/p : (r+1)*len(all)/p]
	}
	return out
}

// corruptPairs manipulates ps in place until the aggregation result
// provably changed, falling back to a direct value edit.
func (g *soakGen) corruptPairs(ps []repro.Pair) {
	orig := make([]repro.Pair, len(ps))
	copy(orig, ps)
	m := g.pairM[int(g.rng.Uint64n(uint64(len(g.pairM))))]
	if m.Apply(ps, g.rng, soakKeyUniverse) && manipulate.ChangesAggregation(orig, ps) {
		return
	}
	copy(ps, orig)
	ps[int(g.rng.Uint64n(uint64(len(ps))))].Value += 1 + g.rng.Uint64n(1<<16)
}

// corruptSeq manipulates xs in place until the multiset provably
// changed, falling back to a direct element edit.
func (g *soakGen) corruptSeq(xs []uint64) {
	orig := make([]uint64, len(xs))
	copy(orig, xs)
	m := g.seqM[int(g.rng.Uint64n(uint64(len(g.seqM))))]
	if m.Apply(xs, g.rng, 1<<30) && manipulate.ChangesMultiset(orig, xs) {
		return
	}
	copy(xs, orig)
	xs[int(g.rng.Uint64n(uint64(len(xs))))] ^= 1 + g.rng.Uint64n(1<<20)
}

// job precomputes the i-th phase-A job. Kinds rotate through a real
// checked operation, two assertion-style jobs whose claimed outputs the
// manipulators corrupt, and two streamed jobs.
func (g *soakGen) job(i int) soakJob {
	g.next++
	stream := g.next
	opts := repro.DefaultOptions()
	opts.Mode = g.opt.Mode
	corrupt := g.opt.CorruptEvery > 0 && i%g.opt.CorruptEvery == g.opt.CorruptEvery-1

	switch i % 5 {
	case 0: // real checked pipeline; never corrupted (nothing claimed)
		shares := g.pairShares(stream)
		return soakJob{kind: "reduce-collect", submit: func(pool *service.Pool, name string) (*service.Job, error) {
			return pool.SubmitWith(name, opts, func(ctx *repro.Context) error {
				w := ctx.Worker()
				_, err := ctx.Pairs(shares[w.Rank()]).ReduceByKey(repro.SumFn).Collect()
				return err
			})
		}}
	case 1: // claimed sum-preserving output, maybe manipulated
		in := g.pairShares(stream)
		out := make([][]repro.Pair, len(in))
		for r := range in {
			out[r] = make([]repro.Pair, len(in[r]))
			copy(out[r], in[r])
		}
		if corrupt {
			g.corruptPairs(out[int(g.rng.Uint64n(uint64(len(out))))])
		}
		return soakJob{kind: "assert-sum", corrupted: corrupt, submit: func(pool *service.Pool, name string) (*service.Job, error) {
			return pool.SubmitWith(name, opts, func(ctx *repro.Context) error {
				w := ctx.Worker()
				return ctx.AssertSum(in[w.Rank()], out[w.Rank()])
			})
		}}
	case 2: // claimed sort output, maybe manipulated
		in, sorted := g.seqShares(stream)
		if corrupt {
			g.corruptSeq(sorted[int(g.rng.Uint64n(uint64(len(sorted))))])
		}
		return soakJob{kind: "assert-sorted", corrupted: corrupt, submit: func(pool *service.Pool, name string) (*service.Job, error) {
			return pool.SubmitWith(name, opts, func(ctx *repro.Context) error {
				w := ctx.Worker()
				return ctx.AssertSorted(in[w.Rank()], sorted[w.Rank()])
			})
		}}
	case 3: // streamed permutation check, maybe manipulated
		in, sorted := g.seqShares(stream)
		if corrupt {
			g.corruptSeq(sorted[int(g.rng.Uint64n(uint64(len(sorted))))])
		}
		return soakJob{kind: "stream-perm", corrupted: corrupt, submit: func(pool *service.Pool, name string) (*service.Job, error) {
			return pool.SubmitStream(name, service.StreamSpec{
				Op:        service.StreamPermutation,
				SeqInput:  func(r int) repro.SeqSource { return repro.SliceSeq(in[r], 256) },
				SeqOutput: func(r int) repro.SeqSource { return repro.SliceSeq(sorted[r], 256) },
			})
		}}
	default: // streamed per-key count check, maybe manipulated
		in := g.pairShares(stream)
		out := g.countShares(in)
		if corrupt {
			// Doctor one claimed count: the count aggregation provably
			// changes.
			sh := out[int(g.rng.Uint64n(uint64(len(out))))]
			sh[int(g.rng.Uint64n(uint64(len(sh))))].Value += 1 + g.rng.Uint64n(16)
		}
		return soakJob{kind: "stream-count", corrupted: corrupt, submit: func(pool *service.Pool, name string) (*service.Job, error) {
			return pool.SubmitStream(name, service.StreamSpec{
				Op:         service.StreamCount,
				PairInput:  func(r int) repro.PairSource { return repro.SlicePairs(in[r], 256) },
				PairOutput: func(r int) repro.PairSource { return repro.SlicePairs(out[r], 256) },
			})
		}}
	}
}

// ServeTraffic generates an endless stream of clean mixed checked jobs
// for the `repro serve` subcommand: the soak generator's traffic kinds
// with corruption disabled.
type ServeTraffic struct {
	gen *soakGen
}

// NewServeTraffic builds a generator for a pool of p PEs with the given
// per-PE job size. Not safe for concurrent use; drive it from one
// submission loop.
func NewServeTraffic(p, elements int, seed uint64) *ServeTraffic {
	opt := SoakOptions{P: p, Elements: elements, Seed: seed, CorruptEvery: -1}
	opt.fill()
	return &ServeTraffic{gen: newSoakGen(opt)}
}

// SubmitOne submits the i-th synthetic job. Blocks on the pool's
// backpressure when it is saturated; the job's completion is tracked by
// the pool's own stats, so the caller needs no handle.
func (tr *ServeTraffic) SubmitOne(pool *service.Pool, i int) error {
	sj := tr.gen.job(i)
	_, err := sj.submit(pool, fmt.Sprintf("serve-%s-%d", sj.kind, i))
	return err
}

// Soak runs the service-mode soak-and-chaos harness: one resident mesh,
// mixed concurrent verification traffic with manipulator-corrupted
// jobs (phase A), then armed transport bitflips and hard receive
// faults against clean waves (phase B), checking that every fault's
// blast radius is exactly the job that absorbed it.
func Soak(opt SoakOptions) (SoakResult, error) {
	opt.fill()
	var res SoakResult

	inner, err := opt.Dist.NewNetwork(opt.P)
	if err != nil {
		return res, err
	}
	defer inner.Close()
	fn := comm.NewFaultyNetwork(inner, 0, 0) // disarmed until phase B
	pool, err := service.NewOnNetwork(fn, service.Options{
		P:             opt.P,
		Seed:          opt.Seed,
		MaxConcurrent: opt.Concurrency,
		JobTimeout:    opt.JobTimeout,
		Tracer:        opt.Tracer,
	})
	if err != nil {
		return res, err
	}
	defer pool.Close()

	// ---- Phase A: mixed traffic with manipulated claimed outputs ----
	gen := newSoakGen(opt)
	jobs := make([]soakJob, opt.Jobs)
	for i := range jobs {
		jobs[i] = gen.job(i)
	}
	opt.Verbose("soak: %d jobs precomputed, submitting at concurrency %d over %d PEs",
		opt.Jobs, opt.Concurrency, opt.P)

	rows := map[string]*SoakRow{}
	rowOf := func(kind string) *SoakRow {
		r := rows[kind]
		if r == nil {
			r = &SoakRow{Kind: kind}
			rows[kind] = r
		}
		return r
	}
	phaseA := time.Now()
	handles := make([]*service.Job, len(jobs))
	for i, sj := range jobs {
		h, err := sj.submit(pool, fmt.Sprintf("%s-%d", sj.kind, i))
		if err != nil {
			return res, fmt.Errorf("soak: submit job %d (%s): %w", i, sj.kind, err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		sj := jobs[i]
		jerr := h.Await()
		row := rowOf(sj.kind)
		switch {
		case sj.corrupted:
			row.Corrupted++
			res.Corrupted++
			if jerr != nil && h.Rejected() {
				row.Detected++
				res.Detected++
			} else if jerr == nil {
				res.Escapes++
				opt.Verbose("soak: ESCAPE: corrupted job %d (%s) passed", i, sj.kind)
			} else {
				// Infrastructure failure on a corrupted job: not a
				// detection, and phase A injects no transport faults.
				res.FalseAlarms++
				opt.Verbose("soak: corrupted job %d (%s) died on infrastructure: %v", i, sj.kind, jerr)
			}
		default:
			row.Clean++
			if jerr == nil {
				row.CleanPassed++
			} else {
				res.FalseAlarms++
				opt.Verbose("soak: FALSE ALARM: clean job %d (%s): %v", i, sj.kind, jerr)
			}
		}
	}
	wall := time.Since(phaseA).Seconds()
	res.Jobs = opt.Jobs
	if wall > 0 {
		res.JobsPerSec = float64(opt.Jobs) / wall
	}

	// ---- Phase B: transport chaos against clean waves ----
	wave := func(tagged string) (failed []*service.Job, passed, total int, err error) {
		hs := make([]*service.Job, 0, opt.WaveJobs)
		for i := 0; i < opt.WaveJobs; i++ {
			sj := gen.cleanWaveJob()
			h, serr := sj.submit(pool, fmt.Sprintf("%s-%d", tagged, i))
			if serr != nil {
				return nil, 0, 0, fmt.Errorf("soak: submit %s wave: %w", tagged, serr)
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			if werr := h.Await(); werr != nil {
				failed = append(failed, h)
			} else {
				passed++
			}
		}
		return failed, passed, len(hs), nil
	}

	contained := func(failed []*service.Job, tag int) bool {
		for _, h := range failed {
			lo, hi := h.TagBlock()
			if tag < lo || tag >= hi {
				return false
			}
		}
		return true
	}

	nFlips := max(0, opt.Flips)
	for f := 0; f < nFlips; f++ {
		fn.ArmBitflip(int64(16+13*f), 1+f%7)
		failed, _, _, err := wave(fmt.Sprintf("flip%d", f))
		if err != nil {
			return res, err
		}
		fn.Disarm()
		_, tag, landed := fn.InjectedAt()
		if !landed {
			opt.Verbose("soak: flip %d never landed (wave finished first)", f)
			continue
		}
		res.Flips++
		if len(failed) >= 1 && contained(failed, tag) {
			res.FlipContained++
		} else if len(failed) == 0 {
			opt.Verbose("soak: flip %d on tag %d escaped: all wave jobs passed", f, tag)
		} else {
			opt.Verbose("soak: flip %d on tag %d leaked beyond its job", f, tag)
		}
	}

	nFaults := max(0, opt.Faults)
	for f := 0; f < nFaults; f++ {
		fn.ArmRecvErr(int64(16 + 13*f))
		failed, _, _, err := wave(fmt.Sprintf("fault%d", f))
		if err != nil {
			return res, err
		}
		fn.Disarm()
		_, tag, landed := fn.InjectedAt()
		if !landed {
			opt.Verbose("soak: fault %d never landed (wave finished first)", f)
			continue
		}
		res.Faults++
		// A hard fault must fail its owner, stay inside its block, and
		// leave the pool serving: probe with a clean job.
		ok := len(failed) >= 1 && contained(failed, tag)
		probeFailed, _, _, err := wave(fmt.Sprintf("probe%d", f))
		if err != nil {
			return res, err
		}
		if ok && len(probeFailed) == 0 {
			res.FaultContained++
		} else {
			opt.Verbose("soak: fault %d on tag %d: owner failed=%v, probe failures=%d",
				f, tag, len(failed) >= 1, len(probeFailed))
		}
	}

	// ---- Phase C: kill a PE on an elastic pool, assert recovery ----
	if opt.KillRank > 0 {
		opt.Verbose("soak: phase C: killing rank %d on a fresh elastic mesh", opt.KillRank)
		ep, eerr := RunRecoveryEpisode(opt)
		if eerr != nil {
			return res, fmt.Errorf("soak: recovery episode: %w", eerr)
		}
		res.Recovery = &ep
	}

	st := pool.Stats()
	res.HighWater = st.HighWater
	res.P50Ns = st.P50Ns
	res.P99Ns = st.P99Ns
	res.BytesPerJob = st.BytesPerJob
	res.RoundsPerJob = st.RoundsPerJob

	for _, r := range rows {
		res.Rows = append(res.Rows, *r)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Kind < res.Rows[j].Kind })

	wantHW := opt.Concurrency
	if opt.Jobs < wantHW {
		wantHW = opt.Jobs
	}
	res.OK = res.Escapes == 0 &&
		res.FalseAlarms == 0 &&
		res.Detected == res.Corrupted &&
		res.FlipContained == res.Flips &&
		res.FaultContained == res.Faults &&
		res.HighWater >= wantHW &&
		(res.Recovery == nil || res.Recovery.OK)
	return res, nil
}

// cleanWaveJob builds one clean real-operation job for a chaos wave:
// an actual checked reduce, so the injected fault hits live operation
// or checker traffic.
func (g *soakGen) cleanWaveJob() soakJob {
	g.next++
	stream := g.next
	opts := repro.DefaultOptions()
	opts.Mode = g.opt.Mode
	shares := g.pairShares(stream)
	return soakJob{kind: "wave", submit: func(pool *service.Pool, name string) (*service.Job, error) {
		return pool.SubmitWith(name, opts, func(ctx *repro.Context) error {
			w := ctx.Worker()
			_, err := ctx.Pairs(shares[w.Rank()]).ReduceByKey(repro.SumFn).Collect()
			return err
		})
	}}
}

// RenderSoak prints the soak verdict table.
func RenderSoak(r SoakResult) string {
	var b []byte
	app := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	app("Service soak: %d jobs, high-water %d in flight, %.0f jobs/s (p50 %.2fms, p99 %.2fms)\n\n",
		r.Jobs, r.HighWater, r.JobsPerSec, float64(r.P50Ns)/1e6, float64(r.P99Ns)/1e6)
	app("%-16s %8s %8s %10s %10s\n", "kind", "clean", "passed", "corrupted", "detected")
	for _, row := range r.Rows {
		app("%-16s %8d %8d %10d %10d\n", row.Kind, row.Clean, row.CleanPassed, row.Corrupted, row.Detected)
	}
	app("\ncorruption: %d/%d detected, %d escapes, %d false alarms\n",
		r.Detected, r.Corrupted, r.Escapes, r.FalseAlarms)
	app("transport chaos: %d/%d bitflips contained, %d/%d hard faults contained\n",
		r.FlipContained, r.Flips, r.FaultContained, r.Faults)
	if ep := r.Recovery; ep != nil {
		app("recovery: rank %d killed, detected in %.1fms (epoch %d, %d alive, %d view change(s))\n",
			ep.KilledRank, float64(ep.DetectNs)/1e6, ep.Epoch, ep.Alive, ep.ViewChanges)
		app("recovery: %d/%d in-flight jobs recovered in %.1fms, %d/%d verdicts bit-identical to serial rerun, %d/%d post-epoch jobs passed\n",
			ep.Recovered, ep.InFlight, float64(ep.RecoverNs)/1e6,
			ep.VerdictMatch, ep.VerdictTotal, ep.PostPassed, ep.PostJobs)
	}
	app("per job: %.0f bytes, %.1f rounds\n", r.BytesPerJob, r.RoundsPerJob)
	if r.OK {
		app("\nSOAK OK\n")
	} else {
		app("\nSOAK FAILED\n")
	}
	return string(b)
}
