package main

import (
	"errors"
	"fmt"
	"runtime"

	"repro"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/ops"
)

// stages is the operation surface the pipeline workloads are written
// against, so one job body runs both ways: through the public
// repro.Context (the job of record), and decomposed by hand into the
// calls context.go makes — ops.X, core.New...Builder, core.ResolveOn —
// with a span at each boundary (the traced job).
type stages interface {
	Reduce(in []data.Pair) ([]data.Pair, error)
	Sort(in []uint64) ([]uint64, error)
	Union(a, b []uint64) ([]uint64, error)
	Zip(a, b []uint64) ([]data.Pair, error)
	// Finish settles verification and reports what the checker cost this
	// PE. A rejection comes back as repro.ErrCheckFailed.
	Finish() (checkerCost, error)
}

// checkerCost is one PE's checker bill for one job, as
// Context.TotalCheckerBytes and the CheckerRounds/VerifySummary.Rounds
// counters define it.
type checkerCost struct {
	Bytes  int64
	Rounds int
}

// ---------------------------------------------------------------------
// Through the public Context
// ---------------------------------------------------------------------

type ctxStages struct{ ctx *repro.Context }

func (s ctxStages) Reduce(in []data.Pair) ([]data.Pair, error) {
	return s.ctx.Pairs(in).ReduceByKey(repro.SumFn).Collect()
}

func (s ctxStages) Sort(in []uint64) ([]uint64, error) { return s.ctx.Seq(in).Sort().Collect() }

func (s ctxStages) Union(a, b []uint64) ([]uint64, error) {
	return s.ctx.Seq(a).Union(s.ctx.Seq(b)).Collect()
}

func (s ctxStages) Zip(a, b []uint64) ([]data.Pair, error) {
	return s.ctx.Seq(a).Zip(s.ctx.Seq(b)).Collect()
}

func (s ctxStages) Finish() (checkerCost, error) {
	err := s.ctx.Verify()
	return contextCost(s.ctx), err
}

// contextCost reads a Context's checker bill.
func contextCost(ctx *repro.Context) checkerCost {
	c := checkerCost{Bytes: ctx.TotalCheckerBytes()}
	for _, st := range ctx.Stats() {
		c.Rounds += st.CheckerRounds
	}
	for _, sum := range ctx.VerifySummaries() {
		c.Rounds += sum.Rounds
	}
	return c
}

// ---------------------------------------------------------------------
// Decomposed by hand, traced
// ---------------------------------------------------------------------

// manualStages drives each stage through the layers' public functions
// in eager mode, exactly as Context.runStage does, metering the checker
// against the worker's communicator the way Context.commSnapshot does.
// It must reproduce the Context job's verdict, checker bytes and
// checker rounds; the traced run fails otherwise.
type manualStages struct {
	w    *dist.Worker
	opts repro.Options
	seed uint64
	pt   ops.Partitioner
	par  core.ParallelAccumulator

	rec  *recorder
	job  *open // the rank's job span, parent of every stage span
	next int   // stage index, for labels

	cost     checkerCost
	words    int      // checker state words, summed over stages
	opsBytes int64    // bytes the ops calls sent
	elems    [2]int64 // local input elements of the reduce and the sort calls
	err      error
}

// allocDelta accumulates runtime.MemStats deltas.
type allocDelta struct{ mallocs, bytes uint64 }

func newManualStages(w *dist.Worker, opts repro.Options, rec *recorder, job *open) (*manualStages, error) {
	seed, err := w.CommonSeed()
	if err != nil {
		return nil, err
	}
	return &manualStages{
		w: w, opts: opts, seed: seed,
		pt:  ops.NewPartitioner(seed, w.Size()),
		par: core.NewParallelAccumulator(opts.Parallelism),
		rec: rec, job: job,
	}, nil
}

func (m *manualStages) span(name string) *open {
	return m.rec.begin(m.w.Rank(), m.job.job, m.job, name)
}

func (m *manualStages) label(op string) string {
	l := fmt.Sprintf("%s#%d", op, m.next)
	m.next++
	return l
}

// runOp runs the operation itself under an ops span and meters what it
// sent.
func (m *manualStages) runOp(name string, exec func() error) error {
	b0 := m.w.Coll.BytesSent()
	sp := m.span(name)
	err := exec()
	sp.end()
	m.opsBytes += m.w.Coll.BytesSent() - b0
	return err
}

// check accumulates the stage's checker state with mk (no
// communication) and resolves it inline.
func (m *manualStages) check(prep func() error, mk func() core.CheckState) error {
	b0, r0 := m.w.Coll.BytesSent(), m.w.Coll.OpsStarted()
	if prep != nil {
		sp := m.span("core.prep")
		err := prep()
		sp.end()
		if err != nil {
			return err
		}
	}
	sp := m.span("core.accumulate")
	st := mk()
	sp.end()
	m.words += len(st.Words())

	sp = m.span("core.resolve")
	verdicts, err := core.ResolveOn(m.w.Coll, st)
	sp.end()
	m.cost.Bytes += m.w.Coll.BytesSent() - b0
	m.cost.Rounds += m.w.Coll.OpsStarted() - r0
	if err != nil {
		return err
	}
	if !verdicts[0] {
		return fmt.Errorf("stage %s: %w", st.Stage(), repro.ErrCheckFailed)
	}
	return nil
}

// stage runs one pipeline stage the way Context.runStagePrep does: the
// operation, then the checker — an optional communicating preparation,
// local accumulation by mk, inline resolution. Like the Context's, the
// first error sticks and later stages no-op.
func (m *manualStages) stage(op, span string, exec, prep func() error, mk func(label string) core.CheckState) error {
	if m.err != nil {
		return m.err
	}
	label := m.label(op)
	err := m.runOp(span, exec)
	if err == nil {
		err = m.check(prep, func() core.CheckState { return mk(label) })
	}
	m.err = err
	return err
}

func (m *manualStages) Reduce(in []data.Pair) (out []data.Pair, err error) {
	m.elems[0] += int64(len(in))
	err = m.stage("ReduceByKey", "ops.reduce", func() (err error) {
		out, err = ops.ReduceByKey(m.w, m.pt, in, ops.SumFn)
		return err
	}, nil, func(label string) core.CheckState {
		b := core.NewSumAggBuilder(label, m.opts.Sum, m.seed, m.par, false)
		b.AddInput(in)
		b.AddOutput(out)
		return b.Seal()
	})
	return out, err
}

func (m *manualStages) Sort(in []uint64) (out []uint64, err error) {
	m.elems[1] += int64(len(in))
	err = m.stage("Sort", "ops.sort", func() (err error) {
		out, err = ops.Sort(m.w, in)
		return err
	}, nil, func(label string) core.CheckState {
		b := core.NewSortedBuilder(label, m.opts.Perm, m.seed, m.par)
		b.AddInput(in)
		b.AddOutput(out)
		return b.Seal()
	})
	return out, err
}

func (m *manualStages) Union(a, b []uint64) (out []uint64, err error) {
	err = m.stage("Union", "ops.union", func() (err error) {
		out, err = ops.Union(m.w, a, b)
		return err
	}, nil, func(label string) core.CheckState {
		pb := core.NewPermBuilder(label, m.opts.Perm, m.seed, m.par)
		pb.AddInput(a)
		pb.AddInput(b)
		pb.AddOutput(out)
		return pb.Seal()
	})
	return out, err
}

func (m *manualStages) Zip(a, b []uint64) (out []data.Pair, err error) {
	var starts, totals []uint64
	err = m.stage("Zip", "ops.zip", func() (err error) {
		out, err = ops.Zip(m.w, a, b)
		return err
	}, func() (err error) {
		starts, totals, err = core.ExclusiveCounts(m.w, len(a), len(b), len(out))
		return err
	}, func(label string) core.CheckState {
		lengthsOK := totals[0] == totals[1] && totals[1] == totals[2]
		return core.NewZipState(label, m.opts.Zip, m.seed, a, b, out, starts[0], starts[1], starts[2], lengthsOK)
	})
	return out, err
}

func (m *manualStages) Finish() (checkerCost, error) { return m.cost, m.err }

// isRejection reports whether err is a checker verdict rather than an
// infrastructure failure.
func isRejection(err error) bool { return errors.Is(err, repro.ErrCheckFailed) }

// readAllocs snapshots the process-wide allocation counters. It stops
// the world, so callers only use it between timed sections.
func readAllocs() allocDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocDelta{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func (a allocDelta) sub(b allocDelta) allocDelta {
	return allocDelta{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes}
}
