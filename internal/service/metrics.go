package service

// PoolStats is a snapshot of the pool's service-level metrics.
type PoolStats struct {
	// Submitted / Completed count jobs accepted and finished; Passed,
	// Rejected (checker said no), and Errored (infrastructure failure)
	// partition Completed.
	Submitted int64
	Completed int64
	Passed    int64
	Rejected  int64
	Errored   int64
	// InFlight is the current number of running jobs; HighWater its
	// lifetime maximum — the concurrency the pool actually sustained.
	InFlight  int
	HighWater int
	// JobsPerSec is completed jobs over the pool's uptime.
	JobsPerSec float64
	// P50Ns / P99Ns are job-latency quantiles over the recent window
	// (submission to completion, all ranks).
	P50Ns int64
	P99Ns int64
	// BytesPerJob / RoundsPerJob average the completed jobs' bottleneck
	// communication cost.
	BytesPerJob  float64
	RoundsPerJob float64
}
