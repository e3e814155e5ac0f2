package repro

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/stream"
)

// CheckMode selects when the checkers of a Context's operations resolve
// their collective rounds.
type CheckMode int

const (
	// CheckEager resolves every operation's checker inline, immediately
	// after the operation: k chained operations pay k serialized
	// verification rounds. This is the default.
	CheckEager CheckMode = iota
	// CheckDeferred runs only the checkers' local accumulation phase
	// per operation and batches all pending collective rounds into a
	// single all-reduction at Context.Verify — k chained operations
	// resolve in ~1 round, and the verdict reports which stage failed.
	CheckDeferred
	// CheckOff skips all checker work (no accumulation, no
	// communication) for baseline timing.
	CheckOff
)

// String names the mode for stats output.
func (m CheckMode) String() string {
	switch m {
	case CheckEager:
		return "eager"
	case CheckDeferred:
		return "deferred"
	case CheckOff:
		return "off"
	}
	return fmt.Sprintf("CheckMode(%d)", int(m))
}

// Verdict is the outcome of one stage's checker.
type Verdict int

const (
	// VerdictPending: the stage's checker state awaits Context.Verify.
	VerdictPending Verdict = iota
	// VerdictPass: the checker accepted the stage's result.
	VerdictPass
	// VerdictFail: the checker rejected the stage's result.
	VerdictFail
	// VerdictSkipped: checking was disabled (CheckOff).
	VerdictSkipped
	// VerdictError: the stage's operation or checker resolution failed
	// with a communication error before a verdict could be reached.
	VerdictError
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictPending:
		return "pending"
	case VerdictPass:
		return "pass"
	case VerdictFail:
		return "fail"
	case VerdictSkipped:
		return "skipped"
	case VerdictError:
		return "error"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// CheckStats instruments one pipeline stage on this PE: data volumes,
// communication attributable to the operation versus its checker, wall
// times, and the checker's verdict. Retrieve the entries with
// Context.Stats; experiment harnesses use them instead of hand-rolled
// network metering.
type CheckStats struct {
	// Stage is the unique stage label, e.g. "ReduceByKey#0".
	Stage string
	// Op is the operation name, e.g. "ReduceByKey".
	Op string
	// ElementsIn / ElementsOut count this PE's local input and output
	// records of the operation.
	ElementsIn  int
	ElementsOut int
	// OpBytes is how many bytes this PE sent while running the
	// operation itself.
	OpBytes int64
	// OpNs is the operation's wall time on this PE in nanoseconds.
	OpNs int64
	// CheckerBytes is what this PE measurably sent on this stage's
	// checker: the inline resolution in eager mode, plus any
	// checker-side preparation (e.g. the zip checker's offset prefix
	// sum) in every checking mode. A deferred stage's share of the
	// batched Verify traffic is not included — it lives, measured once,
	// in the batch's VerifySummary. Zero under CheckOff.
	CheckerBytes int64
	// CheckerMsgs counts messages behind CheckerBytes.
	CheckerMsgs int64
	// CheckerRounds counts collective operations behind CheckerBytes
	// (deferred stages share the rounds reported in their
	// VerifySummary).
	CheckerRounds int
	// BatchWords is how many 64-bit words (checker state plus flag)
	// this stage contributed to its deferred Verify batch; zero in
	// eager and off modes.
	BatchWords int
	// CheckNs is the checker's wall time on this PE: local accumulation
	// plus, in eager mode, the inline resolution.
	CheckNs int64
	// Chunks counts the source chunks a streaming stage consumed on
	// this PE, input and output sides together; zero for one-shot
	// stages.
	Chunks int
	// PeakResident is the largest single chunk, in elements, that was
	// resident at once during a streaming stage — the stage's memory
	// high-water mark; zero for one-shot stages.
	PeakResident int
	// Verdict is the checker's outcome for this stage.
	Verdict Verdict
}

// VerifySummary instruments one batched Context.Verify call in deferred
// mode.
type VerifySummary struct {
	// Stages is how many pipeline stages the batch resolved.
	Stages int
	// Words is the batched all-reduction payload in 64-bit words.
	Words int
	// Bytes / Msgs are what this PE sent during the batched resolution.
	Bytes int64
	Msgs  int64
	// Rounds counts collective operations the batch started
	// (independent of Stages — that is the point of deferral).
	Rounds int
	// WallNs is the batch's wall time on this PE.
	WallNs int64
	// Failed lists the stage labels whose checkers rejected.
	Failed []string
}

// StageError reports that a specific pipeline stage's checker rejected
// the stage's result. It unwraps to ErrCheckFailed.
type StageError struct {
	// Stage is the unique stage label, e.g. "ReduceByKey#2".
	Stage string
	// Op is the operation name.
	Op string
}

// Error describes the failed stage.
func (e *StageError) Error() string {
	return fmt.Sprintf("repro: stage %s: checker rejected the operation result", e.Stage)
}

// Unwrap ties StageError into the ErrCheckFailed sentinel.
func (e *StageError) Unwrap() error { return ErrCheckFailed }

// Context is the execution context of a checked pipeline on one PE: it
// carries the checker Options, the run's shared partitioner, the
// CheckMode, and a stats sink. Create one per Worker with NewContext,
// build pipelines from Pairs and Seq, and — in CheckDeferred mode —
// resolve all pending checkers with Verify.
//
// A Context is owned by its PE goroutine and must not be shared. Like
// all SPMD code, every PE must build the same pipeline; verdicts are
// identical on all PEs.
//
// Errors are sticky: after an operation fails (its checker rejected, or
// communication broke), subsequent operations on the Context no-op and
// terminal methods return the first error. Verdicts are replicated, so
// every PE stops at the same stage.
type Context struct {
	w    *Worker
	opts Options
	pt   ops.Partitioner
	seed uint64

	// pending, states, stats and summaries start out in the inline
	// arrays below, so a Context of a few stages — a service job's —
	// keeps its bookkeeping in its own allocation.
	pending   []pendingCheck
	states    []core.CheckState // the pending stages' states, in stage order
	stats     []CheckStats
	summaries []VerifySummary
	err       error

	pendingBuf [inlineStages]pendingCheck
	stateBuf   [inlineStages]core.CheckState
	statsBuf   [inlineStages]CheckStats
	sumBuf     [1]VerifySummary
}

// inlineStages is how many stages a Context tracks before its
// bookkeeping moves to the heap. A service job's claim check is one
// stage; room for more would cost every Context more bytes than the
// allocations it saves a longer pipeline.
const inlineStages = 2

// pendingCheck links a deferred stage's checker states — the next
// states entries of Context.states — to its stats entry (most stages
// register one state; Join registers one per relation).
type pendingCheck struct {
	states int
	stats  int
}

// NewContext builds a pipeline context for this Worker. It derives the
// run-wide checker seed and shared partitioner, so like any collective
// the first NewContext must happen at the same point of every PE's
// program. opts.Mode selects the check mode. Each checked stage
// validates the checker configuration it uses before it runs (see
// validSum), so an Options that only fills the configs its operations
// need keeps working.
func NewContext(w *Worker, opts Options) (*Context, error) {
	if opts.Tracer != nil {
		w.SetTracer(opts.Tracer)
	}
	seed, err := w.CommonSeed()
	if err != nil {
		return nil, err
	}
	c := &Context{
		w:    w,
		opts: opts,
		pt:   ops.NewPartitioner(seed, w.Size()),
		seed: seed,
	}
	c.pending, c.states = c.pendingBuf[:0], c.stateBuf[:0]
	c.stats, c.summaries = c.statsBuf[:0], c.sumBuf[:0]
	return c, nil
}

// Worker returns the Worker this Context runs on.
func (c *Context) Worker() *Worker { return c.w }

// Stats returns a copy of the per-stage instrumentation recorded so
// far, in pipeline order.
func (c *Context) Stats() []CheckStats {
	out := make([]CheckStats, len(c.stats))
	copy(out, c.stats)
	return out
}

// VerifySummaries returns a copy of the batched-verification summaries
// recorded by Verify calls in deferred mode.
func (c *Context) VerifySummaries() []VerifySummary {
	out := make([]VerifySummary, len(c.summaries))
	copy(out, c.summaries)
	return out
}

// TotalCheckerBytes sums the checker communication this PE actually
// paid: the per-stage measured bytes plus the measured bytes of every
// batched Verify. Nothing is double-counted — deferred stages' batch
// contributions are only ever metered inside their VerifySummary.
func (c *Context) TotalCheckerBytes() int64 {
	var total int64
	for _, s := range c.stats {
		total += s.CheckerBytes
	}
	for _, s := range c.summaries {
		total += s.Bytes
	}
	return total
}

// commSnapshot reads this PE's sent-traffic counters and collective
// operation count from the Context's communicator. Metering is
// per-communicator, not per-endpoint: when many jobs share one
// endpoint on a resident mesh, each Context's deltas cover its own
// pipeline's traffic and nothing else.
func (c *Context) commSnapshot() (bytes, msgs int64, rounds int) {
	return c.w.Coll.BytesSent(), c.w.Coll.MsgsSent(), c.w.Coll.OpsStarted()
}

// fail records err as the Context's sticky error.
func (c *Context) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return c.err
}

// validSum, validPerm and validZip check the Options field a stage's
// checker is configured from; a checked stage names the one it uses in
// its stage value, and run calls it before the operation communicates. A
// bad configuration is thereby the same error on every PE with nothing
// sent, instead of a checker constructor's panic after the operation
// ran — which a service.Pool would treat as an infrastructure abort.
func (c *Context) validSum() error  { return optionErr("Sum", c.opts.Sum.Validate()) }
func (c *Context) validPerm() error { return optionErr("Perm", c.opts.Perm.Validate()) }
func (c *Context) validZip() error  { return optionErr("Zip", c.opts.Zip.Validate()) }

func optionErr(field string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("repro: Options.%s: %w", field, err)
}

// stage is one pipeline stage as the runner sees it. The operation's
// name travels beside it, not in it: the name ends up in the Context's
// stats, and escape analysis treats a struct as one location, so a name
// inside the struct would move every stage's closures to the heap.
type stage struct {
	// elemsIn is this PE's input record count, where it is known before
	// the stage runs (a streamed stage learns it from its meters).
	elemsIn int
	// valid is the stage's configuration check (nil for a checker without
	// one); it runs first and is skipped under CheckOff.
	valid func() error
	// exec runs the operation and returns this PE's output record count.
	// Nil for a streamed stage: the data already streamed past, so there
	// is no operation to run and everything is charged to the checker.
	exec func() (int, error)
	// prep is checker-side preparation that communicates (the zip
	// checker's global-offset prefix sum). It runs after the operation,
	// its traffic and time are charged to the checker, and it is skipped
	// under CheckOff. Nil for every other stage.
	prep func() error
	// check builds the checker's local-phase states, appends them to
	// states and returns the result; it must not communicate. A streamed
	// stage consumes its sources here and returns the input-side and
	// output-side meters; a one-shot stage returns zero meters. Not
	// called under CheckOff — a streamed stage's sources are then not
	// consumed at all. Nil marks an unchecked stage.
	check func(label string, states []core.CheckState) (_ []core.CheckState, in, out stream.Meter, err error)
}

// oneShot adapts the local phase of a materialised stage — one state
// built from slices at hand, nothing to meter, nothing to fail — to
// stage.check.
func oneShot(mk func(label string) core.CheckState) func(string, []core.CheckState) ([]core.CheckState, stream.Meter, stream.Meter, error) {
	return func(label string, states []core.CheckState) ([]core.CheckState, stream.Meter, stream.Meter, error) {
		return append(states, mk(label)), stream.Meter{}, stream.Meter{}, nil
	}
}

// stageLabels interns the stage labels "op#i": the ops are a fixed set
// and a pipeline's stages are numbered from 0, so every job's labels
// are the first few of the same lists. Indices from maxInternedStage on
// are formatted per stage.
var stageLabels = struct {
	sync.Mutex
	byOp map[string][]string
}{byOp: make(map[string][]string)}

const maxInternedStage = 64

// stageLabel returns the label of stage i, the operation op.
func stageLabel(op string, i int) string {
	if i >= maxInternedStage {
		return fmt.Sprintf("%s#%d", op, i)
	}
	stageLabels.Lock()
	defer stageLabels.Unlock()
	labels := stageLabels.byOp[op]
	for j := len(labels); j <= i; j++ {
		labels = append(labels, fmt.Sprintf("%s#%d", op, j))
	}
	stageLabels.byOp[op] = labels
	return labels[i]
}

// run executes one pipeline stage of the operation named op (the runner
// derives the unique stage label from it) — configuration check,
// operation, checker preparation, local accumulation — and then
// registers the checker states per the check mode: queued for the
// batched Verify in deferred mode, resolved inline in eager mode. Every
// exit appends exactly one CheckStats entry.
func (c *Context) run(op string, s stage) error {
	if c.err != nil {
		return c.err
	}
	label := stageLabel(op, len(c.stats))
	st := CheckStats{Stage: label, Op: op, ElementsIn: s.elemsIn}
	span := c.w.Span(obs.KindStage, label)
	defer span.End()

	checked := c.opts.Mode != CheckOff && s.check != nil
	if checked && s.valid != nil {
		if err := s.valid(); err != nil {
			return c.record(st, VerdictError, err)
		}
	}
	if s.exec != nil {
		b0, _, _ := c.commSnapshot()
		t0 := time.Now()
		elemsOut, err := s.exec()
		st.OpNs = time.Since(t0).Nanoseconds()
		b1, _, _ := c.commSnapshot()
		st.OpBytes = b1 - b0
		if err != nil {
			return c.record(st, VerdictError, err)
		}
		st.ElementsOut = elemsOut
	}
	if !checked {
		return c.record(st, VerdictSkipped, nil)
	}

	t1 := time.Now()
	if s.prep != nil {
		b0, m0, r0 := c.commSnapshot()
		err := s.prep()
		b1, m1, r1 := c.commSnapshot()
		st.CheckerBytes, st.CheckerMsgs, st.CheckerRounds = b1-b0, m1-m0, r1-r0
		if err != nil {
			st.CheckNs = time.Since(t1).Nanoseconds()
			return c.record(st, VerdictError, err)
		}
	}
	all, in, out, err := s.check(label, c.states)
	st.CheckNs = time.Since(t1).Nanoseconds()
	if s.exec == nil {
		st.ElementsIn, st.ElementsOut = in.Elements, out.Elements
	}
	in.Merge(out)
	st.Chunks, st.PeakResident = in.Chunks, in.PeakResident
	if err != nil {
		return c.record(st, VerdictError, err)
	}
	states := all[len(c.states):]

	if c.opts.Mode == CheckDeferred {
		for _, cs := range states {
			st.BatchWords += len(cs.Words()) + 1
		}
		c.states = all
		c.pending = append(c.pending, pendingCheck{states: len(states), stats: len(c.stats)})
		return c.record(st, VerdictPending, nil)
	}
	b0, m0, r0 := c.commSnapshot()
	t2 := time.Now()
	verdicts, err := core.Resolve(c.w, states...)
	// Keep the storage the states were appended to, not the states.
	clear(states)
	c.states = all[:len(c.states)]
	st.CheckNs += time.Since(t2).Nanoseconds()
	b1, m1, r1 := c.commSnapshot()
	st.CheckerBytes += b1 - b0
	st.CheckerMsgs += m1 - m0
	st.CheckerRounds += r1 - r0
	if err != nil {
		return c.record(st, VerdictError, err)
	}
	for _, ok := range verdicts {
		if !ok {
			return c.record(st, VerdictFail, &StageError{Stage: st.Stage, Op: st.Op})
		}
	}
	return c.record(st, VerdictPass, nil)
}

// record appends a stage's finished stats entry with its verdict and
// makes err, if any, the Context's sticky error.
func (c *Context) record(st CheckStats, v Verdict, err error) error {
	st.Verdict = v
	c.stats = append(c.stats, st)
	if err != nil {
		return c.fail(err)
	}
	return nil
}

// Verify resolves every pending checker in one batched collective round
// and reports the verdicts: nil if all stages passed, or an error
// naming each stage whose checker rejected (unwrapping to
// ErrCheckFailed). In eager or off mode — or with nothing pending — it
// returns the Context's sticky error, if any. After Verify returns every
// stage so far has its final verdict.
//
// Like every collective, all PEs must call Verify at the same point of
// their pipeline. The batch costs a single all-reduction of the
// concatenated checker states regardless of how many stages are
// pending; per-batch accounting is appended to VerifySummaries.
func (c *Context) Verify() error {
	if c.err != nil {
		return c.err
	}
	if len(c.pending) == 0 {
		return nil
	}
	sum := VerifySummary{Stages: len(c.pending)}
	for _, s := range c.states {
		sum.Words += len(s.Words()) + 1
	}
	b0, m0, r0 := c.commSnapshot()
	t0 := time.Now()
	verdicts, err := core.Resolve(c.w, c.states...)
	sum.WallNs = time.Since(t0).Nanoseconds()
	b1, m1, r1 := c.commSnapshot()
	sum.Bytes, sum.Msgs, sum.Rounds = b1-b0, m1-m0, r1-r0
	if err != nil {
		return c.fail(err)
	}
	pending := c.pending
	c.pending = c.pending[:0]
	clear(c.states)
	c.states = c.states[:0]

	// Per-stage verdicts into the stats entries, failed stage labels
	// into the summary, and the joined StageErrors as the result.
	var failures []error
	vi := 0
	for _, p := range pending {
		ok := true
		for range p.states {
			ok = ok && verdicts[vi]
			vi++
		}
		entry := &c.stats[p.stats]
		if ok {
			entry.Verdict = VerdictPass
		} else {
			entry.Verdict = VerdictFail
			sum.Failed = append(sum.Failed, entry.Stage)
			failures = append(failures, &StageError{Stage: entry.Stage, Op: entry.Op})
		}
	}
	c.summaries = append(c.summaries, sum)
	if len(failures) > 0 {
		return c.fail(errors.Join(failures...))
	}
	return nil
}

// ---------------------------------------------------------------------
// Datasets
// ---------------------------------------------------------------------

// Dataset is a distributed collection of (key, value) pairs bound to a
// Context; each PE holds its local share. Operations return new
// Datasets (or terminal results) and register their checkers with the
// Context per its CheckMode.
type Dataset struct {
	ctx   *Context
	pairs []Pair
}

// Seq is a distributed sequence of 64-bit words bound to a Context.
type Seq struct {
	ctx  *Context
	vals []uint64
}

// Pairs wraps this PE's local share of a distributed pair collection.
func (c *Context) Pairs(local []Pair) *Dataset { return &Dataset{ctx: c, pairs: local} }

// Seq wraps this PE's local share of a distributed word sequence.
func (c *Context) Seq(local []uint64) *Seq { return &Seq{ctx: c, vals: local} }

// Collect returns this PE's local share of the dataset, or the
// Context's sticky error. In deferred mode the data may still await
// verification — call Context.Verify for the verdicts.
func (d *Dataset) Collect() ([]Pair, error) {
	if d.ctx.err != nil {
		return nil, d.ctx.err
	}
	return d.pairs, nil
}

// Collect returns this PE's local share of the sequence; see
// Dataset.Collect.
func (s *Seq) Collect() ([]uint64, error) {
	if s.ctx.err != nil {
		return nil, s.ctx.err
	}
	return s.vals, nil
}

// sameContext guards two-input operations against mixing pipelines.
func (c *Context) sameContext(other *Context) error {
	if c != other {
		return c.fail(errors.New("repro: operands belong to different Contexts"))
	}
	return nil
}

// ReduceByKey aggregates values per key with fn, verified by the sum
// aggregation checker (Theorem 1). fn must be associative, commutative,
// and satisfy x⊕y ≠ x for y ≠ 0 — SumFn and bitwise XOR qualify.
//
// The checker verifies sums over the integers, not mod 2^64 — literally
// so: it adds the input's values exactly into int64 cells (a value of
// 2^40 or more as two 32-bit halves), reduces them mod r only
// afterwards, and does the same with the asserted output. SumFn wraps. A correct SumFn reduce in which some key's true
// sum reaches 2^64 therefore reports a value 2^64 (or a multiple) short
// of what the checker summed, and the stage is rejected like any other
// wrong sum. Keep per-key sums below 2^64 for a checked SumFn reduce;
// the one-sided guarantee (a correct result is never rejected) holds on
// that domain.
func (d *Dataset) ReduceByKey(fn ReduceFn) *Dataset {
	c := d.ctx
	var out []Pair
	c.run("ReduceByKey", stage{elemsIn: len(d.pairs), valid: c.validSum, exec: func() (int, error) {
		var err error
		out, err = ops.ReduceByKey(c.w, c.pt, d.pairs, fn)
		return len(out), err
	}, check: oneShot(func(label string) core.CheckState {
		return core.NewSumAggState(label, c.opts.Sum, c.seed, d.pairs, out)
	})})
	return &Dataset{ctx: c, pairs: out}
}

// GroupByKey groups all values per key, the redistribution phase
// verified invasively (Corollary 14). Groups are sorted by key, values
// within a group ascending.
func (d *Dataset) GroupByKey() ([]Group, error) {
	c := d.ctx
	var red ops.RedistInputs
	var groups []Group
	err := c.run("GroupByKey", stage{elemsIn: len(d.pairs), valid: c.validPerm, exec: func() (int, error) {
		var err error
		red, err = ops.RedistributeByKey(c.w, c.pt, d.pairs)
		if err != nil {
			return 0, err
		}
		groups = ops.GroupPairs(red.After)
		return len(groups), nil
	}, check: oneShot(func(label string) core.CheckState {
		return core.NewRedistState(label, c.opts.Perm, c.seed, c.pt, c.w.Rank(), red.Before, red.After)
	})})
	if err != nil {
		return nil, err
	}
	return groups, nil
}

// Join computes the inner hash join with other, the redistribution of
// both relations verified invasively (Corollary 15); the local join is
// deterministic local work outside the checker's scope, per the paper.
// Rows are sorted by (key, left, right), so identical runs produce
// identical output.
func (d *Dataset) Join(other *Dataset) ([]JoinRow, error) {
	c := d.ctx
	if err := c.sameContext(other.ctx); err != nil {
		return nil, err
	}
	var redL, redR ops.RedistInputs
	var rows []JoinRow
	err := c.run("Join", stage{elemsIn: len(d.pairs) + len(other.pairs), valid: c.validPerm, exec: func() (int, error) {
		var err error
		redL, err = ops.RedistributeByKey(c.w, c.pt, d.pairs)
		if err != nil {
			return 0, err
		}
		redR, err = ops.RedistributeByKey(c.w, c.pt, other.pairs)
		if err != nil {
			return 0, err
		}
		rows = ops.JoinPairs(redL.After, redR.After)
		return len(rows), nil
	}, check: func(label string, states []core.CheckState) ([]core.CheckState, stream.Meter, stream.Meter, error) {
		return append(states,
			core.NewRedistState(label+"/left", c.opts.Perm, c.seed, c.pt, c.w.Rank(), redL.Before, redL.After),
			core.NewRedistState(label+"/right", c.opts.Perm, c.seed, c.pt, c.w.Rank(), redR.Before, redR.After),
		), stream.Meter{}, stream.Meter{}, nil
	}})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// MinByKey computes per-key minima, verified by the deterministic
// certificate checker (Theorem 9). The result and witness certificate
// are replicated at every PE, as the checker requires.
func (d *Dataset) MinByKey() (MinMaxResult, error) {
	return d.optByKey("MinByKey", true)
}

// MaxByKey computes per-key maxima; see MinByKey.
func (d *Dataset) MaxByKey() (MinMaxResult, error) {
	return d.optByKey("MaxByKey", false)
}

func (d *Dataset) optByKey(op string, wantMin bool) (MinMaxResult, error) {
	c := d.ctx
	var res MinMaxResult
	err := c.run(op, stage{elemsIn: len(d.pairs), exec: func() (int, error) {
		var err error
		if wantMin {
			res, err = ops.MinByKey(c.w, c.pt, d.pairs)
		} else {
			res, err = ops.MaxByKey(c.w, c.pt, d.pairs)
		}
		return len(res.Result), err
	}, check: oneShot(func(label string) core.CheckState {
		if wantMin {
			return core.NewMinAggState(label, c.seed, c.w.Rank(), c.w.Size(), d.pairs, res.Result, res.Witness)
		}
		return core.NewMaxAggState(label, c.seed, c.w.Rank(), c.w.Size(), d.pairs, res.Result, res.Witness)
	})})
	if err != nil {
		return MinMaxResult{}, err
	}
	return res, nil
}

// MedianByKey computes per-key medians — returned as doubled values,
// replicated at every PE — verified by the median checker with
// tie-breaking certificates (Theorem 10). Works for arbitrary, also
// non-unique, values.
func (d *Dataset) MedianByKey() ([]Pair, error) {
	c := d.ctx
	var medians []Pair
	ties := make(map[uint64]core.TieCert)
	err := c.run("MedianByKey", stage{elemsIn: len(d.pairs), valid: c.validSum, exec: func() (int, error) {
		groups, err := ops.GroupByKey(c.w, c.pt, d.pairs)
		if err != nil {
			return 0, err
		}
		// Derive medians and tie certificates from the grouped values,
		// then replicate both (part of the operation, not the checker).
		flat := make([]uint64, 0, 6*len(groups))
		for _, g := range groups {
			m2 := ops.MedianOfSorted2(g.Values)
			tc := core.ComputeTieCert(g.Values, m2)
			flat = append(flat, g.Key, m2, tc.EqLow, tc.EqHigh, tc.AtSlot)
		}
		all, err := c.w.Coll.AllGather(flat)
		if err != nil {
			return 0, err
		}
		for _, ws := range all {
			for i := 0; i+5 <= len(ws); i += 5 {
				medians = append(medians, Pair{Key: ws[i], Value: ws[i+1]})
				ties[ws[i]] = core.TieCert{EqLow: ws[i+2], EqHigh: ws[i+3], AtSlot: ws[i+4]}
			}
		}
		data.SortPairsByKey(medians)
		return len(medians), nil
	}, check: oneShot(func(label string) core.CheckState {
		return core.NewMedianAggState(label, c.opts.Sum, c.seed, c.w.Rank(), d.pairs, medians, ties)
	})})
	if err != nil {
		return nil, err
	}
	return medians, nil
}

// AverageByKey computes per-key averages as (key, sum, count) triples —
// the count doubling as the Corollary 8 certificate — verified by the
// average checker. The result stays distributed.
func (d *Dataset) AverageByKey() ([]Triple, error) {
	c := d.ctx
	var out []Triple
	err := c.run("AverageByKey", stage{elemsIn: len(d.pairs), valid: c.validSum, exec: func() (int, error) {
		var err error
		out, err = ops.AverageByKey(c.w, c.pt, d.pairs)
		return len(out), err
	}, check: oneShot(func(label string) core.CheckState {
		return core.NewAvgAggState(label, c.opts.Sum, c.seed, d.pairs, core.AvgAssertionsFromTriples(out))
	})})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Sort globally sorts the sequence, verified by the sort checker
// (Theorem 7).
func (s *Seq) Sort() *Seq {
	c := s.ctx
	var out []uint64
	c.run("Sort", stage{elemsIn: len(s.vals), valid: c.validPerm, exec: func() (int, error) {
		var err error
		out, err = ops.Sort(c.w, s.vals)
		return len(out), err
	}, check: oneShot(func(label string) core.CheckState {
		return core.NewSortedState(label, c.opts.Perm, c.seed, [][]uint64{s.vals}, out)
	})})
	return &Seq{ctx: c, vals: out}
}

// Merge merges this sorted sequence with another sorted sequence,
// verified by the merge checker (Corollary 13).
func (s *Seq) Merge(other *Seq) *Seq {
	c := s.ctx
	if err := c.sameContext(other.ctx); err != nil {
		return &Seq{ctx: c}
	}
	var out []uint64
	c.run("Merge", stage{elemsIn: len(s.vals) + len(other.vals), valid: c.validPerm, exec: func() (int, error) {
		var err error
		out, err = ops.Merge(c.w, s.vals, other.vals)
		return len(out), err
	}, check: oneShot(func(label string) core.CheckState {
		return core.NewSortedState(label, c.opts.Perm, c.seed, [][]uint64{s.vals, other.vals}, out)
	})})
	return &Seq{ctx: c, vals: out}
}

// Union concatenates this sequence with another, verified as a
// permutation of the two inputs (Corollary 12). Like Thrill's Union it
// is local: a PE's share of s, then its share of other; nothing is sent.
func (s *Seq) Union(other *Seq) *Seq {
	c := s.ctx
	if err := c.sameContext(other.ctx); err != nil {
		return &Seq{ctx: c}
	}
	var out []uint64
	c.run("Union", stage{elemsIn: len(s.vals) + len(other.vals), valid: c.validPerm, exec: func() (int, error) {
		var err error
		out, err = ops.Union(c.w, s.vals, other.vals)
		return len(out), err
	}, check: oneShot(func(label string) core.CheckState {
		return core.NewPermState(label, c.opts.Perm, c.seed, [][]uint64{s.vals, other.vals}, out)
	})})
	return &Seq{ctx: c, vals: out}
}

// Zip pairs this sequence with another index-wise, verified by the zip
// checker (Theorem 11). The sequences may be distributed differently;
// their global lengths must agree.
func (s *Seq) Zip(other *Seq) *Dataset {
	c := s.ctx
	if err := c.sameContext(other.ctx); err != nil {
		return &Dataset{ctx: c}
	}
	var out []Pair
	var starts, totals []uint64
	c.run("Zip", stage{elemsIn: len(s.vals) + len(other.vals), valid: c.validZip, exec: func() (int, error) {
		var err error
		out, err = ops.Zip(c.w, s.vals, other.vals)
		return len(out), err
	}, prep: func() error {
		// The checker's position-dependent fingerprints need the global
		// start offsets: one vectorized prefix sum, charged to the
		// checker and skipped entirely under CheckOff (the local
		// accumulation that follows stays zero-communication).
		var err error
		starts, totals, err = core.ExclusiveCounts(c.w, len(s.vals), len(other.vals), len(out))
		return err
	}, check: oneShot(func(label string) core.CheckState {
		lengthsOK := totals[0] == totals[1] && totals[1] == totals[2]
		return core.NewZipState(label, c.opts.Zip, c.seed, s.vals, other.vals, out,
			starts[0], starts[1], starts[2], lengthsOK)
	})})
	return &Dataset{ctx: c, pairs: out}
}

// AssertSum registers a sum aggregation check that output is the
// correct reduction of input — the pure checker entry (Theorem 1) in
// pipeline form, for verifying results computed elsewhere. In eager
// mode the verdict returns immediately; in deferred mode it surfaces at
// Verify.
func (c *Context) AssertSum(input, output []Pair) error {
	return c.run("AssertSum", stage{elemsIn: len(input), valid: c.validSum, exec: func() (int, error) {
		return len(output), nil
	}, check: oneShot(func(label string) core.CheckState {
		return core.NewSumAggState(label, c.opts.Sum, c.seed, input, output)
	})})
}

// AssertSorted registers a check that output is a sorted permutation of
// input — the pure sort checker (Theorem 7) in pipeline form; see
// AssertSum.
func (c *Context) AssertSorted(input, output []uint64) error {
	return c.run("AssertSorted", stage{elemsIn: len(input), valid: c.validPerm, exec: func() (int, error) {
		return len(output), nil
	}, check: oneShot(func(label string) core.CheckState {
		return core.NewSortedState(label, c.opts.Perm, c.seed, [][]uint64{input}, output)
	})})
}
