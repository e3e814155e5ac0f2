package exp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/obs"
	"repro/internal/service"
)

// SoakOptions configures `repro soak`, the chaos runner: one fault
// schedule over the resident service, whose rows are clean traffic with
// doctored claims, armed bitflips and hard receive faults. A zero field
// selects the default noted on it.
type SoakOptions struct {
	P           int // PEs (default 4)
	Concurrency int // in-flight job bound (default 64)
	Jobs        int // clean-row jobs; every third one that claims an output is doctored (default 512; <0 skips the row)
	Elements    int // elements per PE per job (default 2000)
	Flips       int // bitflip rows (default 4; <0 disables)
	Faults      int // receive-fault rows, each followed by a probe row (default 4; <0 disables)
	WaveJobs    int // jobs per fault row (default Concurrency/4, at least 4, at most Concurrency)
	Seed        uint64
	Dist        dist.Config // transport (default mem)
	Tracer      *obs.Tracer // records the pool jobs' spans
}

const (
	soakBound       = 60 * time.Second // caps every wait: a wedged job, a gate
	soakKeyUniverse = 1 << 10
)

// ChaosRow is the Milvus chaos Checker of one (phase, op kind): how the
// kind's jobs fared while the phase's fault was live, with latency from
// Job.Cost().WallNs, and how many broke each invariant the gate names.
type ChaosRow struct {
	Phase, Kind                      string
	Total, Passed, Rejected, Errored int
	AvgNs, MinNs, MaxNs              int64
	Corrupted                        int // doctored claims, each of which must be rejected
	Absorbed                         int // failures inside the tag block the fault hit
	// The gate's counts, in the order of invariants.
	Escapes, FalseAlarms, Unexplained, Leaked int
}

var invariants = [...]string{
	"escape: %d doctored claim(s) passed or landed fault(s) failed no job",
	"false alarm: %d job(s) rejected with no doctored claim or fault to blame",
	"clean success rate < 1: %d job(s) errored with no fault to blame",
	"fallout outside the hit job's tag block [lo,hi): %d job(s)",
}

func (r ChaosRow) counts() []int {
	return []int{r.Escapes, r.FalseAlarms, r.Unexplained, r.Leaked}
}

// SoakResult is one run of the fault schedule: a row per (phase, kind),
// the pool's high-water, and one named violation per broken invariant.
type SoakResult struct {
	Rows       []ChaosRow
	HighWater  int
	Violations []string
}

// OK reports whether the run broke no invariant.
func (r SoakResult) OK() bool { return len(r.Violations) == 0 }

// gate names every broken invariant as "<phase>/<kind>: <invariant>".
func gate(res SoakResult, opt SoakOptions) []string {
	v := []string{}
	for _, r := range res.Rows {
		for i, n := range r.counts() {
			if n > 0 {
				v = append(v, r.Phase+"/"+r.Kind+": "+fmt.Sprintf(invariants[i], n))
			}
		}
	}
	if want := min(opt.Concurrency, opt.Jobs); want > 0 && res.HighWater < want {
		v = append(v, fmt.Sprintf("clean/pool: high-water %d below the concurrency %d", res.HighWater, want))
	}
	return v
}

// phase is one row of the fault schedule. Its containment check is
// record's: a failure must lie in the tag block the fault hit.
type phase struct {
	name string
	jobs int
	job  func(i int) soakJob          // the i-th job
	arm  func(fn *comm.FaultyNetwork) // nil: the row runs disarmed
}

func schedule(o SoakOptions, g *soakGen) []phase {
	wave := func(int) soakJob { return g.job(0, false) }
	var s []phase
	if o.Jobs > 0 {
		s = append(s, phase{name: "clean", jobs: o.Jobs, job: func(i int) soakJob { return g.job(i%5, i%3 == 2) }})
	}
	for f := range max(0, o.Flips) {
		s = append(s, phase{name: fmt.Sprintf("flip%d", f), jobs: o.WaveJobs, job: wave,
			arm: func(fn *comm.FaultyNetwork) { fn.ArmBitflip(int64(16+13*f), 1+f%7) }})
	}
	for f := range max(0, o.Faults) {
		s = append(s, phase{name: fmt.Sprintf("fault%d", f), jobs: o.WaveJobs, job: wave,
			arm: func(fn *comm.FaultyNetwork) { fn.ArmRecvErr(int64(16 + 13*f)) }},
			phase{name: fmt.Sprintf("fault%d/probe", f), jobs: o.WaveJobs, job: wave})
	}
	return s
}

// Soak plays the fault schedule and gates the outcome on named
// violations.
func Soak(opt SoakOptions) (SoakResult, error) {
	opt.P, opt.Concurrency, opt.Jobs, opt.Elements = cmp.Or(opt.P, 4), cmp.Or(opt.Concurrency, 64), cmp.Or(opt.Jobs, 512), cmp.Or(opt.Elements, 2000)
	opt.Flips, opt.Faults = cmp.Or(opt.Flips, 4), cmp.Or(opt.Faults, 4)
	opt.WaveJobs = min(cmp.Or(opt.WaveJobs, max(4, opt.Concurrency/4)), opt.Concurrency) // an armed row is in flight at once
	var res SoakResult
	if min(opt.P, opt.Concurrency, opt.Elements, opt.WaveJobs) < 1 {
		return res, fmt.Errorf("exp: soak: p %d, concurrency %d, elements %d and wave jobs %d must all be positive",
			opt.P, opt.Concurrency, opt.Elements, opt.WaveJobs)
	}
	inner, err := opt.Dist.NewNetwork(opt.P)
	if err != nil {
		return res, err
	}
	fn := comm.NewFaultyNetwork(inner, 0, 0) // disarmed until a row arms it
	defer fn.Close()
	pool, err := service.NewOnNetwork(fn, service.Options{P: opt.P, Seed: opt.Seed, MaxConcurrent: opt.Concurrency,
		JobTimeout: soakBound, Tracer: opt.Tracer})
	if err != nil {
		return res, err
	}
	defer pool.Close()
	for _, ph := range schedule(opt, newSoakGen(opt.P, opt.Elements, opt.Seed)) {
		if err := res.run(ph, fn, pool); err != nil {
			return res, err
		}
	}
	res.HighWater = pool.Stats().HighWater
	res.Violations = gate(res, opt)
	return res, nil
}

// run plays one schedule row. An armed row holds every rank of every
// job at a gate until the fault is armed, so the fault lands mid-body
// and not by luck.
func (res *SoakResult) run(ph phase, fn *comm.FaultyNetwork, pool *service.Pool) error {
	p, jobs, hs := pool.Size(), make([]soakJob, ph.jobs), make([]*service.Job, ph.jobs)
	for i := range jobs { // all data first, so the submit loop saturates the pool
		jobs[i] = ph.job(i)
	}
	ready, release, hold := make(chan struct{}, ph.jobs*p), make(chan struct{}), func() {}
	if ph.arm != nil {
		hold = func() { ready <- struct{}{}; <-release }
	}
	for i := range jobs {
		var err error
		if hs[i], err = jobs[i].submit(pool, fmt.Sprintf("%s-%s-%d", ph.name, jobs[i].kind, i), hold); err != nil {
			close(release)
			return fmt.Errorf("exp: soak: %s: submit job %d: %w", ph.name, i, err)
		}
	}
	if ph.arm != nil {
		for range ph.jobs * p {
			select {
			case <-ready:
			case <-time.After(soakBound):
				close(release)
				return fmt.Errorf("exp: soak: %s: jobs never reached their bodies", ph.name)
			}
		}
		ph.arm(fn)
		close(release)
	}
	for _, h := range hs {
		_ = h.Await() // every job settles before the fault is disarmed; record reads the outcome
	}
	fn.Disarm()
	_, tag, landed := fn.InjectedAt()
	if !landed || ph.arm == nil {
		tag = -1
	}
	var row *ChaosRow // an armed row submits one kind
	for i, h := range hs {
		row = res.record(ph.name, jobs[i], h, tag)
	}
	if tag >= 0 && row.Absorbed == 0 {
		row.Escapes++
	}
	return nil
}

// record tallies one settled job into its (phase, kind) checker; tag is
// the transport tag the row's fault hit, -1 for none.
func (res *SoakResult) record(phase string, sj soakJob, h *service.Job, tag int) *ChaosRow {
	i := slices.IndexFunc(res.Rows, func(row ChaosRow) bool { return row.Phase == phase && row.Kind == sj.kind })
	if i < 0 {
		i, res.Rows = len(res.Rows), append(res.Rows, ChaosRow{Phase: phase, Kind: sj.kind, MinNs: math.MaxInt64})
	}
	row, err, ns := &res.Rows[i], h.Await(), h.Cost().WallNs
	row.Total++
	row.AvgNs += (ns - row.AvgNs) / int64(row.Total)
	row.MinNs, row.MaxNs = min(row.MinNs, ns), max(row.MaxNs, ns)
	if sj.doctored {
		row.Corrupted++
	}
	switch {
	case err == nil:
		row.Passed++
	case h.Rejected():
		row.Rejected++
	default:
		row.Errored++
	}
	lo, hi := h.TagBlock()
	switch {
	case err == nil && sj.doctored:
		row.Escapes++
	case err == nil, sj.doctored && h.Rejected(): // the verdict the claim deserves
	case tag >= lo && tag < hi:
		row.Absorbed++
	case tag >= 0:
		row.Leaked++
	case h.Rejected():
		row.FalseAlarms++
	default:
		row.Unexplained++
	}
	return row
}

// soakJob is one precomputed job: a body or a stream spec. A body
// calls hold first, on every rank.
type soakJob struct {
	kind     string
	doctored bool // the claimed output is manipulated: the job must be rejected
	body     func(ctx *repro.Context, rank int) error
	stream   *service.StreamSpec
}

func (sj soakJob) submit(pool *service.Pool, name string, hold func()) (*service.Job, error) {
	if sj.stream != nil {
		return pool.SubmitStream(name, *sj.stream)
	}
	return pool.Submit(name, func(ctx *repro.Context) error { hold(); return sj.body(ctx, ctx.Worker().Rank()) })
}

// soakGen yields every job the runner submits, each over the next
// deterministic pairShares dataset.
type soakGen struct {
	p, elements int
	seed, next  uint64 // next numbers the datasets
	rng         *hashing.MT19937_64
}

func newSoakGen(p, elements int, seed uint64) *soakGen {
	return &soakGen{p: p, elements: elements, seed: seed, rng: hashing.NewMT19937_64(hashing.Mix64(seed ^ 0x736f616b52756e21))} // "soakRun!"
}

func (g *soakGen) pairShares() [][]repro.Pair {
	g.next++
	rng, all := hashing.NewMT19937_64(hashing.Mix64(g.seed+g.next)), make([]repro.Pair, g.p*g.elements)
	for i := range all {
		all[i] = repro.Pair{Key: rng.Uint64()%soakKeyUniverse + 1, Value: rng.Uint64() % (1 << 20)}
	}
	return split(all, g.p)
}

// split cuts xs into p contiguous, even shares, each capped at its own
// end so that appending to one never writes into the next.
func split[T any](xs []T, p int) [][]T {
	out := make([][]T, p)
	for r := range out {
		lo, hi := r*len(xs)/p, (r+1)*len(xs)/p
		out[r] = xs[lo:hi:hi]
	}
	return out
}

// doctor applies a Table 4 or Table 6 manipulator to one share of a
// claim, or edit to one element unless the claim then provably differs.
func doctor[T any](rng *hashing.MT19937_64, out [][]T, apply func([]T, *hashing.MT19937_64, uint64) bool,
	universe uint64, differs func(orig, xs []T) bool, edit func(*T)) {
	xs := out[rng.Uint64n(uint64(len(out)))]
	if orig := slices.Clone(xs); !apply(xs, rng, universe) || !differs(orig, xs) {
		copy(xs, orig)
		edit(&xs[rng.Uint64n(uint64(len(xs)))])
	}
}

var soakKinds = [...]string{"reduce-collect", "assert-sum", "assert-sorted", "stream-perm", "stream-count"}

// job builds a job of one of the five mixed kinds: a real checked
// reduce, which claims nothing, and two assertions and two streamed
// checks whose claims are doctored on request.
func (g *soakGen) job(kind int, doctored bool) soakJob {
	in := g.pairShares()
	all, sj := slices.Concat(in...), soakJob{kind: soakKinds[kind], doctored: doctored && kind > 0}
	var claim [][]repro.Pair // a pair claim, doctored after the switch
	switch kind {
	case 0:
		sj.body = func(ctx *repro.Context, r int) error {
			_, err := ctx.Pairs(in[r]).ReduceByKey(repro.SumFn).Collect()
			return err
		}
	case 1:
		claim = split(all, g.p) // all is a copy: the identity claim
		sj.body = func(ctx *repro.Context, r int) error { return ctx.AssertSum(in[r], claim[r]) }
	case 2, 3: // the values as a word sequence and its sorted order, split alike
		words := make([]uint64, len(all))
		for i, pr := range all {
			words[i] = pr.Value
		}
		seq, sorted := split(words, g.p), split(slices.Sorted(slices.Values(words)), g.p)
		if m := manipulate.SeqManipulators(); doctored {
			doctor(g.rng, sorted, m[g.rng.Uint64n(uint64(len(m)))].Apply, 1<<30, manipulate.ChangesMultiset,
				func(x *uint64) { *x ^= 1 + g.rng.Uint64n(1<<20) })
		}
		sj.body = func(ctx *repro.Context, r int) error { return ctx.AssertSorted(seq[r], sorted[r]) }
		if kind == 3 {
			sj.body, sj.stream = nil, &service.StreamSpec{Op: service.StreamPermutation,
				SeqInput:  func(r int) repro.SeqSource { return repro.SliceSeq(seq[r], 256) },
				SeqOutput: func(r int) repro.SeqSource { return repro.SliceSeq(sorted[r], 256) }}
		}
	default: // the per-key counts in key order, split evenly
		counts := make([]repro.Pair, soakKeyUniverse+1)
		for _, pr := range all {
			counts[pr.Key] = repro.Pair{Key: pr.Key, Value: counts[pr.Key].Value + 1}
		}
		claim = split(slices.DeleteFunc(counts, func(pr repro.Pair) bool { return pr.Value == 0 }), g.p)
		sj.stream = &service.StreamSpec{Op: service.StreamCount,
			PairInput:  func(r int) repro.PairSource { return repro.SlicePairs(in[r], 256) },
			PairOutput: func(r int) repro.PairSource { return repro.SlicePairs(claim[r], 256) }}
	}
	if m := manipulate.PairManipulators(); doctored && claim != nil {
		doctor(g.rng, claim, m[g.rng.Uint64n(uint64(len(m)))].Apply, soakKeyUniverse, manipulate.ChangesAggregation,
			func(pr *repro.Pair) { pr.Value += 1 + g.rng.Uint64n(1<<16) })
	}
	return sj
}

// ServeTraffic generates the endless clean traffic of `repro serve`: the
// soak's five mixed kinds, none doctored. Drive it from one goroutine.
type ServeTraffic struct{ gen *soakGen }

// NewServeTraffic builds a generator for p PEs and the per-PE job size.
func NewServeTraffic(p, elements int, seed uint64) *ServeTraffic {
	return &ServeTraffic{newSoakGen(p, elements, seed)}
}

// SubmitOne submits the i-th job, blocking on the pool's backpressure.
func (tr *ServeTraffic) SubmitOne(pool *service.Pool, i int) error {
	sj := tr.gen.job(i%5, false)
	_, err := sj.submit(pool, fmt.Sprintf("serve-%s-%d", sj.kind, i), func() {})
	return err
}

// RenderSoak prints every checker row — with the Milvus success rate,
// passed over total, and its average latency over the clean row of its
// kind (reported, not gated) — then the violations.
func RenderSoak(res SoakResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Service soak: high-water %d in flight\n\n%-20s %-14s %5s %6s %8s %7s %9s %5s %7s %7s %7s %6s\n", res.HighWater, "phase", "kind",
		"total", "passed", "rejected", "errored", "corrupted", "succ", "avg ms", "min ms", "max ms", "×clean")
	clean := map[string]int64{}
	for _, r := range res.Rows {
		ratio, note := "", ""
		if r.Phase == "clean" {
			clean[r.Kind] = r.AvgNs
		} else if c := clean[r.Kind]; c > 0 {
			ratio = fmt.Sprintf("%.2f", float64(r.AvgNs)/float64(c))
		}
		if r.Absorbed > 0 && slices.Max(r.counts()) == 0 {
			note = "  contained"
		}
		fmt.Fprintf(&b, "%-20s %-14s %5d %6d %8d %7d %9d %5.2f %7.2f %7.2f %7.2f %6s%s\n", r.Phase, r.Kind,
			r.Total, r.Passed, r.Rejected, r.Errored, r.Corrupted, float64(r.Passed)/float64(max(1, r.Total)),
			float64(r.AvgNs)/1e6, float64(r.MinNs)/1e6, float64(r.MaxNs)/1e6, ratio, note)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "VIOLATION %s\n", v)
	}
	if res.OK() {
		return b.String() + "\nSOAK OK\n"
	}
	return b.String() + "\nSOAK FAILED\n"
}
