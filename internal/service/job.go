package service

import (
	"errors"
	"time"

	"repro"
)

// Job is the awaitable handle of one submitted verification job. The
// pool runs the job's body as p SPMD goroutines over the resident mesh;
// the handle resolves once every rank finished and the job's tag block
// was retired. Methods other than Await must only be consulted after
// Await has returned.
type Job struct {
	id   int64
	name string
	seed uint64
	// block is the job communicator's tag block [lo, hi), identical on
	// every rank — the job's address on the wire, used by chaos
	// harnesses to attribute injected faults to the job that absorbed
	// them.
	block [2]int
	start time.Time

	done chan struct{}

	// Written by the pool before done is closed; the close is the
	// happens-before edge readers rely on.
	err   error
	stats []repro.CheckStats
	sums  []repro.VerifySummary
	cost  JobCost
}

// JobCost is the communication and wall-clock cost of one job: the
// bottleneck (maximum over ranks) of the job communicator's own
// metering, unpolluted by whatever ran concurrently. Bytes/Msgs/Rounds
// cover every collective of the job, its Verify rounds included.
type JobCost struct {
	Bytes  int64
	Msgs   int64
	Rounds int
	WallNs int64
}

// TagBlock returns the job communicator's tag block [lo, hi): every
// tag the job's collectives use. A fault injected on a tag inside the
// block hit this job's traffic.
func (j *Job) TagBlock() (lo, hi int) { return j.block[0], j.block[1] }

// Await blocks until the job completes and returns its outcome: nil if
// every stage of every rank verified clean, an error unwrapping to
// repro.ErrCheckFailed if a checker rejected, any other error for an
// infrastructure failure (transport fault, panic, timeout). Idempotent.
func (j *Job) Await() error {
	<-j.done
	return j.err
}

// Rejected reports whether the job failed because a checker rejected a
// stage result (as opposed to passing, or dying on infrastructure).
func (j *Job) Rejected() bool { return errors.Is(j.err, repro.ErrCheckFailed) }

// Stats returns rank 0's per-stage CheckStats for the job. Valid after
// Await. (Element counts and local timings are per-PE; verdicts are
// replicated, so rank 0's view names every failed stage.)
func (j *Job) Stats() []repro.CheckStats { return j.stats }

// Summaries returns rank 0's batched-verification summaries. Valid
// after Await.
func (j *Job) Summaries() []repro.VerifySummary { return j.sums }

// Cost returns the job's bottleneck communication and wall time. Valid
// after Await.
func (j *Job) Cost() JobCost { return j.cost }
