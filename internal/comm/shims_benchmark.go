package comm

// Everything in this file is kept only because benchmark/ compiles
// against it (ROADMAP item 4's shim rule, "The shim rule, and removing
// the shims"). Each name goes when the benchmark moves off it.

// Topology is forwarded by benchmark/meternet from a transport's
// Topology() when it has one, and none does any more.
type Topology string

// NetworkMeter is n.Meter(), which benchmark/ calls by this name.
func NetworkMeter(n Network) MeterSnapshot { return n.Meter() }

// ConnsOpen is read by benchmark/meternet through a type assertion.
func (e *tcpEndpoint) ConnsOpen() int64 { return e.node.ConnsOpen() }

// Endpoint.Recv, which benchmark/'s ping-pong probe and its meternet
// decorator call: Mux.Recv on a Mux the endpoint makes on its first
// Recv.
func (e *memEndpoint) Recv(src, tag int) ([]byte, error)    { return e.shim.recv(e, src, tag) }
func (e *tcpEndpoint) Recv(src, tag int) ([]byte, error)    { return e.shim.recv(e, src, tag) }
func (e *simEndpoint) Recv(src, tag int) ([]byte, error)    { return e.shim.recv(e, src, tag) }
func (e *faultyEndpoint) Recv(src, tag int) ([]byte, error) { return e.shim.recv(e, src, tag) }

// recvShim holds the Mux behind an endpoint's Recv. As on every Mux, a
// transport error (closure, a deadline) is sticky there: after one,
// every later Recv on the endpoint reports it. The first Recv makes the
// Mux without a lock, so it must not race another receive on the
// endpoint; the benchmark's probes receive from one goroutine at a time.
type recvShim struct{ mux *Mux }

func (s *recvShim) recv(ep Endpoint, src, tag int) ([]byte, error) {
	if s.mux == nil {
		s.mux = NewMux(ep)
	}
	return s.mux.Recv(src, tag)
}
