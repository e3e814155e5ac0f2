package main

import (
	"encoding/json"
	"fmt"
)

// This file is the benchmark's contract in one place: the workload
// names, every metric's name, unit, direction and bound, and the
// BENCHMARK.json rendering of them. bench_test.go holds the committed
// BENCHMARK.json to exactly this table.

// Fixed shape of every run (see README.md): p PEs as goroutines of one
// process, K input sets per workload cycled by the jobs, and the
// seconds one run measures when -seconds is not given.
const (
	numPEs         = 4
	numInputSets   = 8
	defaultSeconds = 25
	defaultSeed    = 0x5eedbe7c4
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"reduce_zipf", "Paper Fig. 4 job: checked ReduceByKey of 125k Zipf pairs per PE on mem; ops hash reduce and bulk all-to-all dominate, sum checker and CRC hashing are the rest"},
	{"sort_uniform", "Checked sample sort of 125k uniform values per PE on mem; same layers as reduce_zipf used differently: range partition, permutation+sortedness checker, tabulation hashing"},
	{"chain_small_tcp", "Four chained eager stages on 2000 elements per PE over loopback TCP; latency-bound, so serialized checker rounds, collective trees and comm framing dominate"},
	{"service_mixed", "Resident service.Pool with 8 claim-checking jobs in flight and every 8th output corrupted; service admission, sub-communicator minting, mux and deferred Verify dominate; carries the failure accounting"},
}

// exact is the bound of a count that repeats to the last digit: a
// thousandth, below one message, round or failed job in any workload,
// and not 0, so that "within a third of the bound" still has a meaning.
const exact = 0.001

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Help   string
}

// End-to-end metrics, reported by an untraced run of every workload.
// Timing bounds are max(10 %, 2 x the largest difference between two
// runs of one seed on the build box), capped at the contract's 25 % —
// which the cap decides for all of them, see REPEATABILITY.md; counts
// the program fixes exactly get the bound exact, counts that depend on
// the seeded input get room for what the seed moves.
var endToEnd = []metricSpec{
	{"job_ms_p50", "ms", "lower", 0.25, "wall time of a checked job (submit to done for service_mixed): the window median, in the quietest tenth of the run's windows"},
	{"job_ms_p90", "ms", "lower", 0.25, "the window 90th percentile of the same samples, in the quietest tenth of the windows"},
	{"base_ms_p50", "ms", "lower", 0.25, "the same as job_ms_p50 for the same job under CheckOff on the same inputs"},
	{"throughput_elems_per_s", "1/s", "higher", 0.25, "input elements / busy time of a window's checked jobs, in the quietest tenth of the windows"},
	{"checker_bytes_per_pe", "bytes", "lower", exact, "max over PEs of the checker's bytes sent per job, mean over jobs"},
	{"checker_rounds_per_job", "count", "lower", exact, "collective operations the checker started per job"},
	{"comm_bytes_per_job", "bytes", "lower", 0.02, "payload bytes sent by all PEs per checked job"},
	{"comm_msgs_per_job", "count", "lower", exact, "messages sent by all PEs per checked job"},
	{"alloc_mb_per_job", "MB", "lower", 0.10, "heap bytes allocated per checked job"},
	{"allocs_per_job", "count", "lower", 0.10, "heap objects allocated per checked job"},
	{"ok_ratio", "ratio", "higher", exact, "1 - failed/attempted over all jobs of both blocks (fail_ratio, stated so it is never 0)"},
	{"setup_s", "s", "lower", 0.25, "input generation + oracles + network or pool bring-up, 10th percentile of the run's set-ups (five or more)"},
}

// Per-layer metrics, reported by a traced run (-trace 1). A value of 0
// means the workload does not cross that layer.
var perLayer = []metricSpec{
	{Name: "hashing.crc_ns_per_elem", Unit: "ns", Better: "lower", Help: "CRC32C Hash64Batch over 1M keys"},
	{Name: "hashing.tab_ns_per_elem", Unit: "ns", Better: "lower", Help: "Tabulation32 Hash64Batch over 1M keys"},

	{Name: "core.sum_accumulate_ns_per_elem", Unit: "ns", Better: "lower", Help: "SumAggBuilder AddInput+AddOutput+Seal on one PE's share"},
	{Name: "core.perm_accumulate_ns_per_elem", Unit: "ns", Better: "lower", Help: "SortedBuilder AddInput+AddOutput+Seal on one PE's share"},
	{Name: "core.accumulate_allocs_per_call", Unit: "count", Better: "lower", Help: "heap objects per builder lifecycle"},
	{Name: "core.resolve_us", Unit: "us", Better: "lower", Help: "core.ResolveOn wall time per call, rank 0"},
	{Name: "core.resolve_self_us", Unit: "us", Better: "lower", Help: "the same minus comm child spans"},
	{Name: "core.state_words", Unit: "count", Better: "lower", Help: "checker state words per job, sum over stages"},

	{Name: "ops.reduce_ns_per_elem", Unit: "ns", Better: "lower", Help: "ops.ReduceByKey wall time per local input element, rank 0"},
	{Name: "ops.reduce_self_ns_per_elem", Unit: "ns", Better: "lower", Help: "the same minus comm child spans"},
	{Name: "ops.sort_ns_per_elem", Unit: "ns", Better: "lower", Help: "ops.Sort wall time per local input element, rank 0"},
	{Name: "ops.sort_self_ns_per_elem", Unit: "ns", Better: "lower", Help: "the same minus comm child spans"},
	{Name: "ops.allocs_per_call", Unit: "count", Better: "lower", Help: "heap objects per PE per job spent inside ops calls"},
	{Name: "ops.alloc_mb_per_call", Unit: "MB", Better: "lower", Help: "heap bytes per PE per job spent inside ops calls"},
	{Name: "ops.bytes_sent_per_call", Unit: "bytes", Better: "lower", Help: "max over PEs of bytes the job's ops calls sent"},

	{Name: "collective.allreduce_us", Unit: "us", Better: "lower", Help: "AllReduce at the workload's checker word count, rank 0"},
	{Name: "collective.allreduce_self_us", Unit: "us", Better: "lower", Help: "the same minus comm child spans"},
	{Name: "collective.alltoall_us", Unit: "us", Better: "lower", Help: "AllToAll at the workload's partition size, rank 0"},
	{Name: "collective.alltoall_self_us", Unit: "us", Better: "lower", Help: "the same minus comm child spans"},
	{Name: "collective.barrier_us", Unit: "us", Better: "lower", Help: "dissemination barrier, rank 0"},
	{Name: "collective.sub_mint_us", Unit: "us", Better: "lower", Help: "Sub + Release on every rank, what one pool job mints"},
	{Name: "collective.msgs_per_allreduce", Unit: "count", Better: "lower", Help: "messages all PEs send per AllReduce"},
	{Name: "collective.allocs_per_allreduce", Unit: "count", Better: "lower", Help: "heap objects all PEs allocate per AllReduce"},

	{Name: "comm.pingpong_us", Unit: "us", Better: "lower", Help: "64 B round trip between two endpoints"},
	{Name: "comm.stream_mb_per_s", Unit: "MB/s", Better: "higher", Help: "1 MiB messages one way"},
	{Name: "comm.send_us_per_msg", Unit: "us", Better: "lower", Help: "mean Send span of the traced jobs, all ranks"},
	{Name: "comm.recv_wait_share", Unit: "ratio", Better: "lower", Help: "share of rank 0's job wall time blocked in Recv/RecvAny"},
	{Name: "comm.straggler_skew", Unit: "ratio", Better: "lower", Help: "max / median over ranks of busy (not receiving) time"},
	{Name: "comm.wire_bytes_per_job", Unit: "bytes", Better: "lower", Help: "raw socket bytes per traced job (TCP only)"},
	{Name: "comm.allocs_per_msg", Unit: "count", Better: "lower", Help: "heap objects per ping-pong message"},
	{Name: "comm.conns_open", Unit: "count", Better: "lower", Help: "open connections (0 on connectionless transports)"},

	{Name: "dist.network_setup_ms", Unit: "ms", Better: "lower", Help: "transport bring-up and tear-down"},
	{Name: "dist.run_spawn_us", Unit: "us", Better: "lower", Help: "RunNetwork with an empty body"},
	{Name: "context.new_context_us", Unit: "us", Better: "lower", Help: "NewContext, mean over one block (first call broadcasts the seed)"},
	{Name: "context.op_share", Unit: "ratio", Better: "lower", Help: "Context.Stats OpNs / job wall, bottleneck over PEs"},
	{Name: "context.check_share", Unit: "ratio", Better: "lower", Help: "Context.Stats CheckNs + Verify wall / job wall, bottleneck over PEs"},
	{Name: "context.verify_us", Unit: "us", Better: "lower", Help: "batched Verify wall per job (0 when every stage resolves eagerly)"},
	{Name: "context.check_overhead_ratio", Unit: "ratio", Better: "lower", Help: "job_ms_p50 / base_ms_p50 of the traced run's plain jobs (paper Fig. 4 y-axis)"},

	{Name: "stream.accumulate_ns_per_elem", Unit: "ns", Better: "lower", Help: "chunked SumAccumulator drain, chunk 256"},
	{Name: "stream.chunks_per_job", Unit: "count", Better: "lower", Help: "source chunks consumed per job, rank 0"},

	{Name: "service.submit_us", Unit: "us", Better: "lower", Help: "Submit call: admission and sub-communicator minting"},
	{Name: "service.empty_job_us", Unit: "us", Better: "lower", Help: "empty body, submit to done: minting + one Verify round trip"},
	{Name: "service.jobs_per_s", Unit: "1/s", Better: "higher", Help: "jobs completed per second of the traced window"},
	{Name: "service.inflight_high_water", Unit: "count", Better: "lower", Help: "PoolStats.HighWater"},
	{Name: "service.rounds_per_job", Unit: "count", Better: "lower", Help: "PoolStats.RoundsPerJob"},
	{Name: "service.bytes_per_job", Unit: "bytes", Better: "lower", Help: "PoolStats.BytesPerJob"},
	{Name: "service.rejected", Unit: "count", Better: "lower", Help: "jobs the checkers rejected (every corrupted job, none other)"},
	{Name: "service.errored", Unit: "count", Better: "lower", Help: "jobs that died on infrastructure"},

	{Name: "obs.tracer_on_ratio", Unit: "ratio", Better: "lower", Help: "job_ms_p50 with Options.Tracer set / without"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower", Help: "traced (decomposed, on meternet) / untraced job_ms_p50"},
	{Name: "bench.calibration_ms", Unit: "ms", Better: "lower", Help: "CRC-32C over 64 MiB, for cross-machine normalisation"},
	{Name: "bench.traced_jobs", Unit: "count", Better: "higher", Help: "traced jobs behind the budget"},

	{Name: "budget.ops_share", Unit: "ratio", Better: "lower", Help: "ops self time / traced job wall"},
	{Name: "budget.core_share", Unit: "ratio", Better: "lower", Help: "checker accumulate time / traced job wall"},
	{Name: "budget.collective_share", Unit: "ratio", Better: "lower", Help: "resolve and checker-prep self time / traced job wall"},
	{Name: "budget.comm_share", Unit: "ratio", Better: "lower", Help: "time inside Send / traced job wall"},
	{Name: "budget.wait_share", Unit: "ratio", Better: "lower", Help: "time blocked in Recv/RecvAny / traced job wall (with comm_share: the ROADMAP's comm layer)"},
	{Name: "budget.service_share", Unit: "ratio", Better: "lower", Help: "admission, dispatch and retirement / traced job wall"},
	{Name: "budget.cover_ratio", Unit: "ratio", Better: "higher", Help: "sum of the layer self times / traced job wall"},
}

// benchmarkJSON renders the table as the BENCHMARK.json contract.
func benchmarkJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		Workloads:  workloadSpecs,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("render BENCHMARK.json: %w", err)
	}
	return append(out, '\n'), nil
}

func specByName(table []metricSpec) map[string]metricSpec {
	m := make(map[string]metricSpec, len(table))
	for _, s := range table {
		m[s.Name] = s
	}
	return m
}
