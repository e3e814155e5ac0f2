package dist

import (
	"fmt"
	"net"
	"strings"

	"repro/internal/comm"
)

// LaunchConfig describes one rank's membership in a multi-process run:
// a static host list, every rank's listen address known up front.
type LaunchConfig struct {
	// Rank is this process's rank.
	Rank int
	// Hosts is the address book: Hosts[r] is rank r's listen address,
	// with an explicit port. The world size is len(Hosts).
	Hosts []string
	// Listener, when set, is this rank's already-bound listener (for
	// instance one a spawning parent bound and handed down), and Join
	// takes ownership of it. When nil, Join binds Hosts[Rank].
	Listener net.Listener
	// Config carries the transport knobs (Timeout, SetupTimeout). The
	// Transport field is ignored: a multi-process run is TCP by
	// construction.
	Config Config
}

// ParseHosts parses a comma-separated host list ("h0:p0,h1:p1,...")
// into an address book, rejecting empty entries, missing ports, and
// duplicate addresses (two ranks cannot share a listener).
func ParseHosts(s string) ([]string, error) {
	parts := strings.Split(s, ",")
	hosts := make([]string, 0, len(parts))
	seen := make(map[string]int)
	for i, part := range parts {
		addr := strings.TrimSpace(part)
		if addr == "" {
			return nil, fmt.Errorf("dist: host list entry %d is empty", i)
		}
		host, port, err := net.SplitHostPort(addr)
		if err != nil {
			return nil, fmt.Errorf("dist: host list entry %d (%q): %w", i, addr, err)
		}
		if host == "" || port == "" || port == "0" {
			return nil, fmt.Errorf("dist: host list entry %d (%q) needs an explicit host and port", i, addr)
		}
		if prev, dup := seen[addr]; dup {
			return nil, fmt.Errorf("dist: host list assigns %q to both rank %d and rank %d", addr, prev, i)
		}
		seen[addr] = i
		hosts = append(hosts, addr)
	}
	return hosts, nil
}

// Join bootstraps this process's rank into the distributed run: take
// or bind this rank's listener, install the host list, and bring up this
// rank's links to every other rank (comm.TCPNode.Connect: dial the
// higher ranks, wait for the lower ones). The returned node is a
// comm.Network hosting the local rank's endpoint — run the SPMD body on
// it with RunLocal.
func Join(lc LaunchConfig) (*comm.TCPNode, error) {
	p := len(lc.Hosts)
	if lc.Rank < 0 || lc.Rank >= p {
		if lc.Listener != nil {
			lc.Listener.Close()
		}
		return nil, fmt.Errorf("dist: Join: rank %d out of range for %d hosts", lc.Rank, p)
	}
	l := lc.Listener
	if l == nil {
		var err error
		if l, err = net.Listen("tcp", lc.Hosts[lc.Rank]); err != nil {
			return nil, fmt.Errorf("dist: rank %d listening on %s: %w", lc.Rank, lc.Hosts[lc.Rank], err)
		}
	}
	node, err := comm.NewTCPNode(lc.Rank, p, l, lc.Config.TCPOptions())
	if err != nil {
		return nil, err
	}
	if err := node.Connect(lc.Hosts); err != nil {
		node.Close()
		return nil, fmt.Errorf("dist: rank %d connecting to host list: %w", lc.Rank, err)
	}
	return node, nil
}
