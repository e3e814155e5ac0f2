// Package repro is the public façade of the reproduction of
// "Communication Efficient Checking of Big Data Operations"
// (Hübschle-Schneider and Sanders): a data-parallel framework in the
// style of Thrill whose operations are verified by communication
// efficient probabilistic checkers. Checkers have one-sided error —
// correct results are never rejected — and add o(n/p) bottleneck
// communication volume.
//
// # Pipelines
//
// Work is expressed as a pipeline on a Context, created once per
// Worker. Entry points Pairs and Seq wrap this PE's local share of a
// distributed collection; fluent operations chain off them and register
// their checkers with the Context:
//
//	err := repro.Run(4, 42, func(w *repro.Worker) error {
//		ctx, err := repro.NewContext(w, repro.DefaultOptions())
//		if err != nil {
//			return err
//		}
//		sums, err := ctx.Pairs(myShare(w.Rank())).ReduceByKey(repro.SumFn).Collect()
//		...
//	})
//
// Options.Mode selects when checkers resolve their collective rounds:
//
//	CheckEager     every operation verifies inline (default)
//	CheckDeferred  checkers accumulate locally; one batched round at
//	               ctx.Verify() resolves all of them and names any
//	               failing stage
//	CheckOff       no checking, for baseline timing
//
// The paper's checkers are designed to run concurrently with the
// checked operation; CheckDeferred realizes the communication half of
// that design point — k chained operations pay ~1 verification round
// instead of k. Every stage additionally records a CheckStats entry
// (data volumes, checker bytes, wall times, verdict) retrievable from
// the Context.
//
// For data that never fits in memory at once, Context.StreamPairs and
// Context.StreamSeq verify operations over chunked sources (see
// PairSource): the checker partial
// accumulates chunk by chunk with only one chunk resident, sealed
// states are bit-identical to the one-shot path, and CheckStats
// reports chunk counts and the peak resident footprint.
//
// See examples/ for runnable programs and internal/exp for the
// experiment harness that regenerates the paper's tables and figures.
package repro

import (
	"errors"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/obs"
	"repro/internal/ops"
)

// ErrCheckFailed reports that a checker rejected an operation's result:
// with probability at least 1-delta the computation was incorrect.
// Stage-level failures (StageError) unwrap to it.
var ErrCheckFailed = errors.New("repro: checker rejected the operation result")

// Re-exported building blocks, so applications only import this
// package.
type (
	// Pair is a (key, value) record.
	Pair = data.Pair
	// Triple is a (key, sum, count) record of average aggregation.
	Triple = data.Triple
	// Worker is one PE's execution context inside Run.
	Worker = dist.Worker
	// ReduceFn combines two values of equal keys.
	ReduceFn = ops.ReduceFn
	// Group is one key's collected values from GroupByKey.
	Group = ops.Group
	// JoinRow is one inner-join match.
	JoinRow = ops.JoinRow
	// MinMaxResult is the replicated result + witness certificate of
	// min/max aggregation.
	MinMaxResult = ops.MinMaxResult
)

// SumFn adds values (wrapping).
var SumFn = ops.SumFn

// Run executes body on p PEs over an in-memory network: RunConfig with
// a zero Config.
func Run(p int, seed uint64, body func(w *Worker) error) error {
	return dist.RunConfig(dist.Config{}, p, seed, body)
}

// Config selects the transport backend (mem, simnet, tcp) and run
// limits for RunConfig. Timeout is plumbed into the transport as the
// per-operation communication deadline and also bounds the whole run;
// the zero value is the in-memory network with the default deadlock
// backstop. See dist.Config.
type Config = dist.Config

// Transport names a point-to-point backend for RunConfig.
type Transport = dist.Transport

// ParseTransport converts a flag value ("mem", "simnet", "tcp") into a
// Transport.
func ParseTransport(s string) (Transport, error) { return dist.ParseTransport(s) }

// RunConfig executes body on p PEs over the transport cfg selects; see
// dist.RunConfig.
func RunConfig(cfg Config, p int, seed uint64, body func(w *Worker) error) error {
	return dist.RunConfig(cfg, p, seed, body)
}

// Options selects checker configurations and the check mode for a
// Context's operations.
type Options struct {
	// Sum parameterises sum/count/average/median checking.
	Sum core.SumConfig
	// Perm parameterises permutation/sort/union/merge/redistribution
	// checking.
	Perm core.PermConfig
	// Zip parameterises zip checking.
	Zip core.ZipConfig
	// Mode selects when checkers resolve their collective rounds; the
	// zero value is CheckEager.
	Mode CheckMode
	// Parallelism is ignored: a checker accumulates on its own PE's
	// goroutine, the PE being the unit of parallelism. The field stays
	// only while benchmark/ sets it (ROADMAP item 4's shim rule).
	Parallelism int
	// Tracer, when non-nil, is installed on the Context's worker by
	// NewContext: every stage, collective round, receive wait, and
	// resolve round records a span (internal/obs). Export the result
	// with obs.Tracer.WriteChromeTrace, or cross-rank with
	// dist.GatherSpans. Nil — the default — costs nothing on the hot
	// paths.
	Tracer *obs.Tracer
}

// DefaultOptions returns a configuration in eager mode whose every
// checker accepts an incorrect result with probability at most 1e-9,
// at the least cost. The bound is the sum checker's: its configuration
// is core.ChooseSum(1e-9, CRC), the one with the fewest cell updates,
// hash evaluations and wire words per element that achieves the bound
// (15×4 CRC m10: (1/1024 + 1/4)^15 ≈ 9.87e-10, SumConfig.AchievedDelta,
// in 11 words on the wire). The bound is Lemma 2's, which takes the
// hash family to be random: CRC-32C is affine, so whether two keys that
// differ by a fixed bit pattern share a bucket does not depend on the
// seed. The permutation checker is one iteration of Lemma 5's product
// in F_(2^61-1), which needs no hash function: it achieves 3n/r <
// 3.5e-10 for n <= 2^28 elements for every wrong output, structured or
// not, in one 64-bit word, at one multiply per element and no table to
// fill. The zip checker is one iteration of a polynomial identity in
// F_(2^61-1), which needs no hash function either: it achieves (n+1)/r
// < 1.2e-10 for n <= 2^28 positions, for every wrong output, in one
// 64-bit word (internal/core's package documentation derives both).
// TestDefaultOptionsAchieveDocumentedDelta holds the defaults to this
// figure.
func DefaultOptions() Options {
	return Options{
		Sum:  defaultSum,
		Perm: core.PermConfig{Iterations: 1},
		Zip:  core.ZipConfig{Iterations: 1},
	}
}

// defaultDelta is the failure probability DefaultOptions' sum checker
// is chosen for.
const defaultDelta = 1e-9

// defaultSum is chosen once, at package initialisation: a service pool
// calls DefaultOptions for every job.
var defaultSum = func() core.SumConfig {
	cfg, err := core.ChooseSum(defaultDelta, hashing.FamilyCRC)
	if err != nil {
		panic(err)
	}
	return cfg
}()
