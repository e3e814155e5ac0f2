// Package dist is the SPMD execution runtime beneath the repro façade:
// it turns a comm.Network of p endpoints into p worker goroutines, one
// per processing element, each holding the execution context the
// operations and checkers need — its rank, a collective communicator on
// its endpoint, a private deterministic random generator, and a seed
// shared by the whole run for keying the checkers' hash functions.
//
// The runtime follows the paper's machine model (Section 2): p PEs
// execute the same program over a single-ported network; operations and
// checkers are expressed purely against the Worker, so the same body
// runs unchanged over the in-memory, virtual-time, TCP, and
// fault-injecting transports.
//
// Failure semantics: every SPMD fan-out runs on one Group (group.go).
// A member's error or panic (recovered, naming the member) is offered
// to the run's abort, which here closes the network: every peer stuck
// in a send or receive is unblocked, and its ErrClosed never displaces
// the cause. A run waits for all its members before returning the first
// failure, so an erroring run leaks no goroutines.
package dist

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/hashing"
	"repro/internal/obs"
)

// workerSeedGamma spaces per-rank RNG seeds (the SplitMix64 increment),
// commonSeedDomain separates the run-wide checker seed from them, and
// jobStreamDomain separates per-job RNG streams (JobWorker) from the
// base per-rank stream.
const (
	workerSeedGamma  = 0x9e3779b97f4a7c15
	commonSeedDomain = 0x636f6d6d6f6e5364 // "commonSd"
	jobStreamDomain  = 0x6a6f625374726d21 // "jobStrm!"
)

// Worker is one PE's execution context inside a run. A Worker is owned
// by its PE goroutine and must not be shared.
type Worker struct {
	rank int
	size int
	seed uint64

	// Coll issues the collective operations of Section 2 on this PE's
	// endpoint. All PEs must call the same collective sequence.
	Coll *collective.Comm
	// Rng is this PE's private generator, derived deterministically from
	// the run seed and rank, so a run's results depend only on (p, seed)
	// and never on the transport or goroutine scheduling. Its state is
	// built on the first draw: a worker (a service job's, typically)
	// whose body never draws pays for the seed word only.
	Rng *hashing.MT19937_64

	commonSeed uint64
	haveCommon bool

	// tr, when non-nil, traces this worker's spans; job attributes
	// them (0 outside service mode, the job stream id inside it).
	tr  *obs.Tracer
	job int64
}

// Rank returns this PE's number in 0..Size()-1.
func (w *Worker) Rank() int { return w.rank }

// Size returns the number of PEs p.
func (w *Worker) Size() int { return w.size }

// Endpoint exposes this PE's port into the network, e.g. for metrics.
func (w *Worker) Endpoint() comm.Endpoint { return w.Coll.Endpoint() }

// SetTracer installs a span tracer on this worker and its collective
// communicator (nil disables tracing everywhere). Install before the
// worker carries traffic; job workers derived afterwards inherit it.
func (w *Worker) SetTracer(tr *obs.Tracer) {
	w.tr = tr
	w.Coll.SetTracer(tr, w.job)
}

// Span opens a span on this worker's endpoint rank,
// attributed to its job and its root tag block. The zero Active of a
// disabled tracer makes End free.
func (w *Worker) Span(kind obs.Kind, name string) obs.Active {
	if w.tr == nil {
		return obs.Active{}
	}
	lo, _ := w.Coll.Block()
	return w.tr.Start(w.Endpoint().Rank(), w.job, int64(lo), kind, name)
}

// CommonSeed returns the run-wide seed all PEs share, from which the
// checkers key their common hash functions. It is established once per
// run by a broadcast from PE 0 and cached; like any collective, the
// first call must happen at the same point of every PE's program. The
// value is a pure function of the run seed, so runs over different
// transports agree.
func (w *Worker) CommonSeed() (uint64, error) {
	if w.haveCommon {
		return w.commonSeed, nil
	}
	got, err := w.Coll.Broadcast([]uint64{hashing.Mix64(w.seed ^ commonSeedDomain)})
	if err != nil {
		return 0, err
	}
	if len(got) != 1 {
		return 0, fmt.Errorf("dist: common seed broadcast carried %d words", len(got))
	}
	w.commonSeed, w.haveCommon = got[0], true
	return got[0], nil
}

// workerSeed derives rank's private RNG seed from the run seed. Mix64
// is a bijection and the gamma is odd, so distinct ranks always get
// distinct, well-mixed seeds.
func workerSeed(seed uint64, rank int) uint64 {
	return hashing.Mix64(seed + workerSeedGamma*uint64(rank+1))
}

// newWorker builds rank's execution context over net.
func newWorker(net comm.Network, rank int, seed uint64) *Worker {
	return &Worker{
		rank: rank,
		size: net.Size(),
		seed: seed,
		Coll: collective.New(net.Endpoint(rank)),
		Rng:  hashing.NewMT19937_64(workerSeed(seed, rank)),
	}
}

// NewWorkers builds one persistent Worker per endpoint of net and
// establishes the run-wide common seed with the usual PE-0 broadcast —
// the entry point for resident-mesh services that keep the workers (and
// their root communicators) alive across many independent jobs instead
// of building a world per run. The caller keeps ownership of net; on
// error the network is left open but must not be reused (a failed
// broadcast poisons the root communicators' demultiplexers).
//
// All p workers live in this process, so their broadcast seeds are
// compared directly: a bit flipped in flight, which would leave ranks
// keyed apart for the mesh's whole life, is a named error here rather
// than a silent disagreement.
func NewWorkers(net comm.Network, seed uint64) ([]*Worker, error) {
	p := net.Size()
	if p < 1 {
		return nil, fmt.Errorf("dist: NewWorkers requires a network with p >= 1, got %d", p)
	}
	ws := make([]*Worker, p)
	for r := range ws {
		ws[r] = newWorker(net, r, seed)
	}
	var g Group
	err := g.Run(p, func(r int) error {
		if _, err := ws[r].CommonSeed(); err != nil {
			return fmt.Errorf("dist: NewWorkers: PE %d common-seed broadcast: %w", r, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for r, w := range ws[1:] {
		if w.commonSeed != ws[0].commonSeed {
			return nil, fmt.Errorf("dist: NewWorkers: PE %d received common seed %#x, PE 0 sent %#x: the broadcast was corrupted in flight",
				r+1, w.commonSeed, ws[0].commonSeed)
		}
	}
	return ws, nil
}

// JobWorker derives a job-scoped execution context over this worker's
// endpoint: collectives ride coll — typically a tag-isolated
// sub-communicator minted from this worker's Coll — the cached common
// seed is replaced by commonSeed, so contexts built on the job worker
// need no broadcast and key their checkers independently per job, and
// the private RNG is reseeded deterministically from the run seed,
// rank, and stream. The derived worker shares the endpoint but no
// mutable state with its parent: concurrent jobs on one PE are
// race-free, and a job's results depend only on (p, seed, commonSeed,
// stream) — a serial rerun with the same inputs is bit-identical.
func (w *Worker) JobWorker(coll *collective.Comm, commonSeed, stream uint64) *Worker {
	jw := &Worker{Coll: coll, Rng: new(hashing.MT19937_64)}
	w.ResetJobWorker(jw, commonSeed, stream)
	return jw
}

// ResetJobWorker makes jw, a job worker derived from w, what
// JobWorker(jw.Coll, commonSeed, stream) returns — in place, keeping
// its generator's storage — so a resident job slot hands the same
// worker from job to job. The stream is JobWorker's bit for bit, and a
// tracer an earlier job installed is replaced by w's.
func (w *Worker) ResetJobWorker(jw *Worker, commonSeed, stream uint64) {
	coll, rng, tr := jw.Coll, jw.Rng, jw.tr
	if rng == nil {
		rng = new(hashing.MT19937_64)
	}
	rng.Seed(hashing.Mix64(workerSeed(w.seed, coll.Rank()) ^ hashing.Mix64(stream+jobStreamDomain)))
	*jw = Worker{
		rank:       coll.Rank(),
		size:       coll.Size(),
		seed:       w.seed,
		Coll:       coll,
		Rng:        rng,
		commonSeed: commonSeed,
		haveCommon: true,
	}
	if w.tr != nil || tr != nil {
		// The job inherits the resident worker's tracer with the
		// stream id as its span attribution, and the job's
		// sub-communicator is stamped too, so collective and recv-wait
		// spans land on the job's trace lane.
		jw.tr = w.tr
		jw.job = int64(stream)
		coll.SetTracer(w.tr, jw.job)
	}
}

// RunNetwork executes body as net.Size() SPMD workers over net, one
// goroutine per endpoint. The caller keeps ownership of net: a
// successful run leaves it open, so multi-phase harnesses can audit or
// reset its metrics between phases and run again. The first failure
// closes net, which must then not be reused, and is returned annotated
// with its rank. RunNetwork bounds nothing itself: a stuck run ends at
// the transport's per-operation deadline.
func RunNetwork(net comm.Network, seed uint64, body func(w *Worker) error) error {
	if net.Size() < 1 {
		return fmt.Errorf("dist: RunNetwork requires a network with p >= 1, got %d", net.Size())
	}
	return runWorkers(net, Config{}, 0, net.Size(), seed, body)
}

// RunLocal executes body as the single local worker of a distributed
// run whose other ranks live in other processes: net hosts exactly one
// endpoint locally (a comm.TCPNode), and rank names it. It is
// RunNetwork with one member: a failure closes the network, so remote
// peers blocked on this rank fail fast, and verdicts are bit-identical
// to an in-process run with equal (p, seed).
func RunLocal(net comm.Network, rank int, seed uint64, body func(w *Worker) error) error {
	if rank < 0 || rank >= net.Size() {
		return fmt.Errorf("dist: RunLocal rank %d out of range [0, %d)", rank, net.Size())
	}
	return runWorkers(net, Config{}, rank, 1, seed, body)
}

// runWorkers runs body as the workers of ranks first..first+n-1 over
// net, one Group member each. The first
// failure, or cfg.Timeout if it elapses first, closes net.
func runWorkers(net comm.Network, cfg Config, first, n int, seed uint64, body func(w *Worker) error) error {
	g := Group{
		Timeout: cfg.Timeout,
		Name:    func(i int) string { return fmt.Sprintf("dist: worker %d", first+i) },
		Abort:   func(error) bool { net.Close(); return true },
	}
	return g.Run(n, func(i int) error {
		w := newWorker(net, first+i, seed)
		if err := body(w); err != nil {
			return fmt.Errorf("dist: worker %d: %w", first+i, err)
		}
		return nil
	})
}
