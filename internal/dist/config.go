package dist

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/comm"
)

// Transport names a point-to-point backend for RunConfig.
type Transport string

const (
	// TransportMem is the in-memory channel network — the default, and
	// the right choice for simulations with hundreds of PEs.
	TransportMem Transport = "mem"
	// TransportSim is the virtual-time network modeling the paper's
	// alpha-beta communication cost (Section 2).
	TransportSim Transport = "simnet"
	// TransportTCP is the loopback TCP network (real sockets, binary
	// length-prefixed frames), demonstrating transport agnosticism.
	TransportTCP Transport = "tcp"
)

// ParseTransport converts a flag value into a Transport. It accepts
// "mem" (alias "memory", ""), "simnet" (alias "sim"), and "tcp".
func ParseTransport(s string) (Transport, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "mem", "memory":
		return TransportMem, nil
	case "sim", "simnet":
		return TransportSim, nil
	case "tcp":
		return TransportTCP, nil
	}
	return "", fmt.Errorf("dist: unknown transport %q (want mem, simnet, or tcp)", s)
}

// Default simnet parameters: 10 us startup latency, 1 GB/s bandwidth —
// typical cluster interconnect figures (see comm.NewSimNetworkTimeout).
const (
	DefaultSimAlphaNs       = 10000
	DefaultSimBetaNsPerByte = 1
)

// Config selects the transport backend and run limits for RunConfig.
// The zero value runs over the in-memory network with no timeout, so
// callers can set only the fields they care about.
type Config struct {
	// Transport picks the backend; empty means TransportMem.
	Transport Transport
	// SimAlphaNs is the simnet startup latency in nanoseconds; if both
	// simnet parameters are zero, the defaults above apply.
	SimAlphaNs float64
	// SimBetaNsPerByte is the simnet per-byte transfer time.
	SimBetaNsPerByte float64
	// Timeout bounds the run's communication in two layers. NewNetwork
	// plumbs it into the transport as the per-operation deadline: every
	// blocking Send or Recv that exceeds it fails with an error naming
	// the stuck operation (net.Conn read/write deadlines on the TCP
	// path, timers on mem/simnet). The whole-run bound is RunConfig's:
	// it closes the network when the run exceeds Timeout; RunNetwork
	// relies on the transport deadline alone. Neither layer interrupts
	// local computation: a compute-bound body only notices the deadline
	// when it next touches the network. Zero keeps the transports'
	// DefaultTimeout deadlock backstop and applies no whole-run bound.
	Timeout time.Duration
	// SetupTimeout bounds the TCP transport's bring-up: every rank must
	// have its links to all the others within it (refused dials are
	// retried until then). Zero means comm.DefaultSetupTimeout.
	SetupTimeout time.Duration
}

// NewNetwork builds the configured transport for p PEs. The caller owns
// the returned network and must Close it.
func (c Config) NewNetwork(p int) (comm.Network, error) {
	if p < 1 {
		return nil, fmt.Errorf("dist: network requires p >= 1, got %d", p)
	}
	switch c.Transport {
	case "", TransportMem:
		return comm.NewMemNetworkTimeout(p, c.Timeout), nil
	case TransportSim:
		alpha, beta := c.SimAlphaNs, c.SimBetaNsPerByte
		if alpha == 0 && beta == 0 {
			alpha, beta = DefaultSimAlphaNs, DefaultSimBetaNsPerByte
		}
		return comm.NewSimNetworkTimeout(p, alpha, beta, c.Timeout), nil
	case TransportTCP:
		return comm.NewTCPNetworkOpts(p, c.TCPOptions())
	}
	return nil, fmt.Errorf("dist: unknown transport %q (want mem, simnet, or tcp)", c.Transport)
}

// TCPOptions translates the config's transport knobs into the comm
// layer's option struct — shared by NewNetwork's in-process path and
// the launcher's per-process TCPNode path, so both resolve the knobs
// identically.
func (c Config) TCPOptions() comm.TCPOptions {
	return comm.TCPOptions{
		Timeout:      c.Timeout,
		SetupTimeout: c.SetupTimeout,
	}
}

// RunConfig executes body as p SPMD workers over the transport cfg
// selects, tearing the network down when the run completes; a zero
// Config is the in-memory network. If cfg.Timeout elapses first, the
// network is closed — failing every worker at its next communication —
// and the returned error reports the timeout.
func RunConfig(cfg Config, p int, seed uint64, body func(w *Worker) error) error {
	net, err := cfg.NewNetwork(p)
	if err != nil {
		return err
	}
	defer net.Close()
	return runWorkers(net, cfg, 0, p, seed, body)
}
