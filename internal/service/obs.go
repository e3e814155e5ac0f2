package service

import (
	"repro/internal/comm"
	"repro/internal/obs"
)

// Registry returns the pool's metrics registry, built on first call:
// one namespace absorbing the meters that used to live scattered across
// the layers — transport traffic (comm.NetworkMeter, wrappers
// included), collective rounds, and the pool's own job accounting
// (PoolStats stays as the struct API; the registry re-exposes it).
// Gauges read live state at render time, and service_job_latency_ns is
// the pool's own latency ring — the one Stats reads P50Ns/P99Ns from —
// so it covers the pool's whole life. Safe from any goroutine.
func (p *Pool) Registry() *obs.Registry {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.reg != nil {
		return p.reg
	}
	reg := obs.NewRegistry()

	stat := func(read func(PoolStats) int64) func() int64 {
		return func() int64 { return read(p.Stats()) }
	}
	reg.Gauge("service_jobs_submitted", stat(func(s PoolStats) int64 { return s.Submitted }))
	reg.Gauge("service_jobs_completed", stat(func(s PoolStats) int64 { return s.Completed }))
	reg.Gauge("service_jobs_passed", stat(func(s PoolStats) int64 { return s.Passed }))
	reg.Gauge("service_jobs_rejected", stat(func(s PoolStats) int64 { return s.Rejected }))
	reg.Gauge("service_jobs_errored", stat(func(s PoolStats) int64 { return s.Errored }))
	reg.Gauge("service_jobs_inflight", stat(func(s PoolStats) int64 { return int64(s.InFlight) }))
	reg.Gauge("service_jobs_highwater", stat(func(s PoolStats) int64 { return int64(s.HighWater) }))
	reg.GaugeFloat("service_jobs_per_sec", func() float64 { return p.Stats().JobsPerSec })
	reg.GaugeFloat("service_bytes_per_job", func() float64 { return p.Stats().BytesPerJob })
	reg.GaugeFloat("service_rounds_per_job", func() float64 { return p.Stats().RoundsPerJob })
	reg.Quantile("service_job_latency_ns", &p.lat)

	net := p.net
	meter := func(read func(comm.MeterSnapshot) int64) func() int64 {
		return func() int64 { return read(comm.NetworkMeter(net)) }
	}
	reg.Gauge("comm_bytes_sent", meter(func(m comm.MeterSnapshot) int64 { return m.BytesSent }))
	reg.Gauge("comm_bytes_recv", meter(func(m comm.MeterSnapshot) int64 { return m.BytesRecv }))
	reg.Gauge("comm_msgs_sent", meter(func(m comm.MeterSnapshot) int64 { return m.MsgsSent }))
	reg.Gauge("comm_msgs_recv", meter(func(m comm.MeterSnapshot) int64 { return m.MsgsRecv }))
	reg.Gauge("comm_wire_sent", meter(func(m comm.MeterSnapshot) int64 { return m.WireSent }))
	reg.Gauge("comm_wire_recv", meter(func(m comm.MeterSnapshot) int64 { return m.WireRecv }))
	reg.Gauge("comm_conns_open", meter(func(m comm.MeterSnapshot) int64 { return m.ConnsOpen }))
	reg.Gauge("comm_dials", meter(func(m comm.MeterSnapshot) int64 { return m.Dials }))
	reg.Gauge("comm_peer_downs", meter(func(m comm.MeterSnapshot) int64 { return m.PeerDowns }))

	workers := p.workers
	reg.Gauge("collective_ops_started", func() int64 {
		var total int64
		for _, w := range workers {
			total += int64(w.Coll.OpsStarted())
		}
		return total
	})

	if tr := p.opts.Tracer; tr != nil {
		reg.Gauge("trace_spans_dropped", func() int64 { return tr.Dropped() })
	}

	p.reg = reg
	return reg
}
