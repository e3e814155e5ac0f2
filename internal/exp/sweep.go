package exp

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/workload"
)

// Point is one (PE count, input size) pair of a pipeline sweep.
type Point struct {
	P          int
	ItemsPerPE int
}

// Grid pairs every PE count with one per-PE input size: weak scaling.
func Grid(pes []int, itemsPerPE int) []Point {
	pts := make([]Point, len(pes))
	for i, p := range pes {
		pts[i] = Point{P: p, ItemsPerPE: itemsPerPE}
	}
	return pts
}

// SweepOptions configures the pipeline sweep behind fig4, commvolume
// and modeled. There is no zero-fill: DefaultFig4, DefaultCommVolume
// and DefaultModeled are where each experiment's defaults live.
type SweepOptions struct {
	Points  []Point          // run in order, one network each
	Configs []core.SumConfig // one Row per point and configuration
	// Mode resolves the checked runs eagerly or deferred; the baseline
	// always runs with checking off.
	Mode repro.CheckMode
	// Repeats is the number of timed runs behind each wall-clock column,
	// after one untimed warm-up. Zero runs each job once, cold — all the
	// byte, message, round and virtual-time columns need, since they do
	// not vary between runs.
	Repeats int
	Seed    uint64
	// Dist selects the transport; the zero value is the in-memory
	// network. Wall-clock columns mean something on mem and tcp, the
	// virtual makespans exist on simnet only; every endpoint meters
	// traffic, so the volume columns are the same on all three.
	Dist dist.Config
}

// DefaultFig4 is the Fig. 4 reproduction at laptop scale. The paper
// runs 125 000 Zipf items per PE on 2^5..2^12 cores of a cluster; here
// PEs are goroutines on one machine. The y-axis (relative overhead) is
// the quantity being reproduced.
func DefaultFig4() SweepOptions {
	return SweepOptions{
		Points:  Grid([]int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}, 20000),
		Configs: core.ScalingConfigs(),
		Repeats: 3,
		Seed:    0xf19f4,
	}
}

// DefaultCommVolume sweeps three decades of total input size, 10^4 to
// 10^6 elements, at p = 8.
func DefaultCommVolume() SweepOptions {
	return SweepOptions{
		Points:  []Point{{8, 1250}, {8, 12_500}, {8, 125_000}},
		Configs: []core.SumConfig{{Iterations: 5, Buckets: 16, RHatLog: 5, Family: hashing.FamilyCRC}},
		Seed:    0xc0117,
	}
}

// DefaultModeled reaches the paper's 2^5..2^12 PE range on the simnet
// transport (alpha = 10 us, beta = 1 ns/byte unless Dist says
// otherwise): virtual time is free of wall-clock noise, so PE counts
// are not bounded by physical cores.
func DefaultModeled() SweepOptions {
	return SweepOptions{
		Points:  Grid([]int{32, 64, 128, 256, 512, 1024, 2048, 4096}, 5000),
		Configs: []core.SumConfig{{Iterations: 6, Buckets: 32, RHatLog: 9, Family: hashing.FamilyCRC}},
		Seed:    0x0de1ed,
		Dist:    dist.Config{Transport: dist.TransportSim},
	}
}

// keyUniverse is the power-law key universe of the swept job (paper: 10^6).
const keyUniverse = 1e6

// Row is one point of the pipeline sweep under one checker
// configuration: everything fig4, commvolume and modeled print about
// the job Zipf pairs → ReduceByKey, run through repro.Context once with
// CheckOff and once checked, over the same network and input.
// Communication figures are bottleneck maxima over PEs (the paper's
// metric) of the checked run.
type Row struct {
	P          int
	ItemsPerPE int
	Config     string
	TableBits  int // configured minireduction size

	BaseSec    float64 // CheckOff job, wall seconds (mean over repeats)
	CheckedSec float64 // checked job, wall seconds (mean over repeats)

	OpBytes       int64 // bytes the operation sent
	CheckerBytes  int64 // bytes the checker sent, batched Verify included
	CheckerMsgs   int64
	CheckerRounds int                // collective operations of the checker
	Stages        []repro.CheckStats // per stage, bottleneck over PEs

	// Virtual makespans of the two jobs under the alpha-beta model of
	// Section 2; zero unless the network is a *comm.SimNetwork. Virtual
	// time covers communication only — local computation does not
	// advance the clocks — so their difference is what the checker's
	// messages add to the job's critical path, not a stand-alone time.
	BaseModelMs    float64
	CheckedModelMs float64
}

// Sweep runs the pipeline sweep: per point it builds the network and
// the input once, runs the job with CheckOff, then once per
// configuration checked, and fills one Row each.
func Sweep(opt SweepOptions) ([]Row, error) {
	if len(opt.Points) == 0 || len(opt.Configs) == 0 {
		return nil, fmt.Errorf("exp: sweep needs at least one point and one configuration")
	}
	// One shared Zipf sampler (read-only after construction); each PE's
	// share is drawn with its own rng.
	zipf := workload.NewZipf(keyUniverse, hashing.NewMT19937_64(opt.Seed))
	var rows []Row
	for _, pt := range opt.Points {
		got, err := sweepPoint(opt, pt, zipf)
		if err != nil {
			return nil, fmt.Errorf("exp: sweep p=%d items/PE=%d: %w", pt.P, pt.ItemsPerPE, err)
		}
		rows = append(rows, got...)
	}
	return rows, nil
}

// sweepPoint is the one driver of the checked reduce job. The transport
// is built once and reused by every run of the point — rebuilding e.g.
// the O(p²) TCP mesh per run would dominate the timings being taken.
func sweepPoint(opt SweepOptions, pt Point, zipf *workload.Zipf) ([]Row, error) {
	if pt.ItemsPerPE < 0 {
		return nil, fmt.Errorf("negative input size")
	}
	net, err := opt.Dist.NewNetwork(pt.P)
	if err != nil {
		return nil, err
	}
	defer net.Close()
	locals := make([][]data.Pair, pt.P)
	for rank := range locals {
		rng := hashing.NewMT19937_64(hashing.Mix64(opt.Seed + uint64(rank)))
		local := make([]data.Pair, pt.ItemsPerPE)
		for i := range local {
			local[i] = data.Pair{Key: zipf.SampleR(rng), Value: rng.Uint64n(1 << 30)}
		}
		locals[rank] = local
	}
	opts := repro.DefaultOptions()
	opts.Mode = repro.CheckOff
	base, err := runJob(net, opt, opts, locals)
	if err != nil {
		return nil, fmt.Errorf("CheckOff: %w", err)
	}
	rows := make([]Row, 0, len(opt.Configs))
	for _, cfg := range opt.Configs {
		opts.Mode, opts.Sum = opt.Mode, cfg
		checked, err := runJob(net, opt, opts, locals)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Name(), err)
		}
		row := Row{
			P: pt.P, ItemsPerPE: pt.ItemsPerPE, Config: cfg.Name(), TableBits: cfg.TableBits(),
			BaseSec: base.sec, CheckedSec: checked.sec,
			BaseModelMs: base.modelMs, CheckedModelMs: checked.modelMs,
		}
		perPE := make([][]repro.CheckStats, pt.P)
		for rank, ctx := range checked.ctxs {
			perPE[rank] = ctx.Stats()
			var opBytes, msgs int64
			var rounds int
			for _, s := range perPE[rank] {
				opBytes += s.OpBytes
				msgs += s.CheckerMsgs
				rounds += s.CheckerRounds
			}
			for _, s := range ctx.VerifySummaries() {
				msgs += s.Msgs
				rounds += s.Rounds
			}
			row.OpBytes = max(row.OpBytes, opBytes)
			row.CheckerBytes = max(row.CheckerBytes, ctx.TotalCheckerBytes())
			row.CheckerMsgs = max(row.CheckerMsgs, msgs)
			row.CheckerRounds = max(row.CheckerRounds, rounds)
		}
		row.Stages = bottleneckStages(perPE)
		rows = append(rows, row)
	}
	return rows, nil
}

// jobCost is what one job (all its repetitions) cost: mean wall
// seconds, the last run's virtual makespan, and each PE's Context of
// the last run, to be read now that the run is over.
type jobCost struct {
	sec     float64
	modelMs float64
	ctxs    []*repro.Context
}

// runJob runs the job over net — input share → ReduceByKey → Verify,
// all through repro.Context — and times it from outside: what a user of
// the library pays, seed broadcast and worker start-up included.
func runJob(net comm.Network, opt SweepOptions, opts repro.Options, locals [][]data.Pair) (jobCost, error) {
	cost := jobCost{ctxs: make([]*repro.Context, len(locals))}
	sim, _ := net.(*comm.SimNetwork)
	once := func() (time.Duration, error) {
		if sim != nil {
			sim.ResetClocks() // each run's makespan starts from zero
		}
		start := time.Now()
		err := dist.RunNetworkTimeout(net, opt.Dist.Timeout, opt.Seed, func(w *dist.Worker) error {
			ctx, err := repro.NewContext(w, opts)
			if err != nil {
				return err
			}
			if _, err := ctx.Pairs(locals[w.Rank()]).ReduceByKey(repro.SumFn).Collect(); err != nil {
				return err
			}
			if err := ctx.Verify(); err != nil {
				return err
			}
			cost.ctxs[w.Rank()] = ctx // overwritten every run; the last one survives
			return nil
		})
		return time.Since(start), err
	}
	runs := opt.Repeats
	if runs > 0 {
		if _, err := once(); err != nil { // warm-up
			return cost, err
		}
	} else {
		runs = 1
	}
	var total time.Duration
	for i := 0; i < runs; i++ {
		d, err := once()
		if err != nil {
			return cost, err
		}
		total += d
	}
	cost.sec = total.Seconds() / float64(runs)
	if sim != nil {
		cost.modelMs = sim.MakespanNs() / 1e6
	}
	return cost, nil
}
