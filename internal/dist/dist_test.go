package dist

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/hashing"
)

func TestRunBasic(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		var mu sync.Mutex
		seen := make(map[int]bool)
		err := RunConfig(Config{}, p, 42, func(w *Worker) error {
			if w.Size() != p {
				return fmt.Errorf("size %d, want %d", w.Size(), p)
			}
			mu.Lock()
			seen[w.Rank()] = true
			mu.Unlock()
			sum, err := w.Coll.AllReduce([]uint64{uint64(w.Rank())}, collective.OpSum)
			if err != nil {
				return err
			}
			if want := uint64(p * (p - 1) / 2); sum[0] != want {
				return fmt.Errorf("allreduce got %d, want %d", sum[0], want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if len(seen) != p {
			t.Fatalf("p=%d: only %d distinct ranks ran", p, len(seen))
		}
	}
}

func TestRunRejectsBadP(t *testing.T) {
	if err := RunConfig(Config{}, 0, 1, func(w *Worker) error { return nil }); err == nil {
		t.Fatal("RunConfig(Config{}, 0, ...) succeeded")
	}
}

// TestRunDeterministicGivenSeed runs the same body twice per seed and
// requires identical per-PE RNG streams and common seeds; a different
// run seed must change both.
func TestRunDeterministicGivenSeed(t *testing.T) {
	const p = 4
	observe := func(seed uint64) ([][]uint64, []uint64) {
		draws := make([][]uint64, p)
		commons := make([]uint64, p)
		err := RunConfig(Config{}, p, seed, func(w *Worker) error {
			for i := 0; i < 8; i++ {
				draws[w.Rank()] = append(draws[w.Rank()], w.Rng.Uint64())
			}
			cs, err := w.CommonSeed()
			if err != nil {
				return err
			}
			commons[w.Rank()] = cs
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return draws, commons
	}
	d1, c1 := observe(7)
	d2, c2 := observe(7)
	d3, c3 := observe(8)
	for r := 0; r < p; r++ {
		for i := range d1[r] {
			if d1[r][i] != d2[r][i] {
				t.Fatalf("rank %d draw %d differs across identical seeds", r, i)
			}
		}
		if c1[r] != c2[r] {
			t.Fatalf("rank %d common seed differs across identical seeds", r)
		}
	}
	if d1[0][0] == d3[0][0] && d1[1][0] == d3[1][0] {
		t.Fatal("different run seeds produced identical RNG streams")
	}
	if c1[0] == c3[0] {
		t.Fatal("different run seeds produced identical common seeds")
	}
	// Distinct ranks must have distinct streams.
	if d1[0][0] == d1[1][0] && d1[0][1] == d1[1][1] {
		t.Fatal("ranks 0 and 1 share an RNG stream")
	}
}

// TestCommonSeedAgreement checks that every PE sees the same common
// seed, that repeated calls return the cached value, and that the value
// is transport independent, as the checkers' hash agreement requires.
func TestCommonSeedAgreement(t *testing.T) {
	const p = 3
	const seed = 99
	collect := func(net comm.Network) []uint64 {
		vals := make([]uint64, p)
		err := RunNetwork(net, seed, func(w *Worker) error {
			first, err := w.CommonSeed()
			if err != nil {
				return err
			}
			again, err := w.CommonSeed()
			if err != nil {
				return err
			}
			if first != again {
				return fmt.Errorf("rank %d: CommonSeed not stable: %d then %d", w.Rank(), first, again)
			}
			vals[w.Rank()] = first
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	mem := comm.NewMemNetworkTimeout(p, 0)
	defer mem.Close()
	sim := comm.NewSimNetwork(p, 1000, 1)
	defer sim.Close()
	memVals := collect(mem)
	simVals := collect(sim)
	for r := 1; r < p; r++ {
		if memVals[r] != memVals[0] {
			t.Fatalf("rank %d common seed %d != rank 0's %d", r, memVals[r], memVals[0])
		}
	}
	if simVals[0] != memVals[0] {
		t.Fatalf("common seed differs across transports: sim %d, mem %d", simVals[0], memVals[0])
	}
}

// TestFirstErrorPropagation fails one worker while its peers block in a
// collective; the failure must tear the run down promptly (well under
// the comm.DefaultTimeout deadlock backstop) and surface the root cause,
// not the peers' secondary closed-network errors.
func TestFirstErrorPropagation(t *testing.T) {
	sentinel := errors.New("worker 2 gave up")
	start := time.Now()
	err := RunConfig(Config{}, 4, 1, func(w *Worker) error {
		if w.Rank() == 2 {
			return sentinel
		}
		// Peers enter a barrier rank 2 never joins: without teardown
		// they would block until the recv timeout.
		if err := w.Coll.Barrier(); err != nil {
			return err
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the sentinel error", err)
	}
	if !strings.Contains(err.Error(), "worker 2") {
		t.Fatalf("error %q does not name the failing rank", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("teardown took %v; peers were not unblocked", elapsed)
	}
}

// TestPanicRecovered converts a worker panic into an ordinary error and
// still unblocks the surviving PEs.
func TestPanicRecovered(t *testing.T) {
	err := RunConfig(Config{}, 3, 1, func(w *Worker) error {
		if w.Rank() == 1 {
			panic("boom")
		}
		return w.Coll.Barrier()
	})
	if err == nil {
		t.Fatal("panic was swallowed")
	}
	if !strings.Contains(err.Error(), "worker 1 panicked") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error %q does not describe the panic", err)
	}
}

// TestRunNetworkSim runs collectives over the virtual-time transport
// and checks that modeled time advanced.
func TestRunNetworkSim(t *testing.T) {
	const p = 4
	net := comm.NewSimNetwork(p, 1000, 1)
	defer net.Close()
	err := RunNetwork(net, 5, func(w *Worker) error {
		sum, err := w.Coll.AllReduce([]uint64{uint64(w.Rank())}, collective.OpSum)
		if err != nil {
			return err
		}
		if want := uint64(p * (p - 1) / 2); sum[0] != want {
			return fmt.Errorf("allreduce got %d, want %d", sum[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if net.MakespanNs() <= 0 {
		t.Fatal("virtual time did not advance")
	}
}

// TestRunNetworkFaulty drives RunNetwork over the fault-injecting
// transport: an out-of-range target behaves like a clean network, and a
// sweep of in-range targets must always terminate — either the run
// fails fast (a corrupted length or header) or it completes.
func TestRunNetworkFaulty(t *testing.T) {
	const p = 3
	body := func(w *Worker) error {
		_, err := w.Coll.AllGather([]uint64{uint64(w.Rank()), uint64(w.Rank() * 10)})
		return err
	}
	clean := comm.NewFaultyNetwork(comm.NewMemNetworkTimeout(p, 0), 1<<40, 3)
	if err := RunNetwork(clean, 2, body); err != nil {
		t.Fatalf("out-of-range fault target broke a clean run: %v", err)
	}
	if _, _, landed := clean.InjectedAt(); landed {
		t.Fatal("fault injected despite out-of-range target")
	}
	clean.Close()
	injected := 0
	for target := int64(1); target <= 10; target++ {
		net := comm.NewFaultyNetwork(comm.NewMemNetworkTimeout(p, 0), target, 3)
		_ = RunNetwork(net, uint64(target), body) // may fail; must return
		if _, _, landed := net.InjectedAt(); landed {
			injected++
		}
		net.Close()
	}
	if injected == 0 {
		t.Fatal("fault sweep never landed a corruption")
	}
}

// TestNoGoroutineLeakAfterErrors hammers the error path — the one that
// tears networks down with peers mid-collective — and checks the
// goroutine count returns to baseline.
func TestNoGoroutineLeakAfterErrors(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sentinel := errors.New("fail")
	for i := 0; i < 25; i++ {
		err := RunConfig(Config{}, 5, uint64(i), func(w *Worker) error {
			if w.Rank() == i%5 {
				return sentinel
			}
			return w.Coll.Barrier()
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("iteration %d: got %v", i, err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at baseline, %d now", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestParseTransport(t *testing.T) {
	for in, want := range map[string]Transport{
		"":       TransportMem,
		"mem":    TransportMem,
		"Memory": TransportMem,
		"sim":    TransportSim,
		"simnet": TransportSim,
		"TCP":    TransportTCP,
	} {
		got, err := ParseTransport(in)
		if err != nil || got != want {
			t.Fatalf("ParseTransport(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseTransport("carrier-pigeon"); err == nil {
		t.Fatal("bogus transport accepted")
	}
}

// TestRunConfigTransports runs the same body over every backend.
func TestRunConfigTransports(t *testing.T) {
	const p = 3
	for _, tr := range []Transport{TransportMem, TransportSim, TransportTCP} {
		cfg := Config{Transport: tr}
		err := RunConfig(cfg, p, 11, func(w *Worker) error {
			sum, err := w.Coll.AllReduce([]uint64{uint64(w.Rank())}, collective.OpSum)
			if err != nil {
				return err
			}
			if want := uint64(p * (p - 1) / 2); sum[0] != want {
				return fmt.Errorf("allreduce got %d, want %d", sum[0], want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("transport %s: %v", tr, err)
		}
	}
}

// TestRunConfigTimeout deadlocks one PE on purpose; the configured
// deadline must close the network and report the timeout long before
// the comm.DefaultTimeout backstop.
func TestRunConfigTimeout(t *testing.T) {
	cfg := Config{Timeout: 150 * time.Millisecond}
	start := time.Now()
	err := RunConfig(cfg, 2, 1, func(w *Worker) error {
		if w.Rank() == 1 {
			// Wait at a barrier rank 0 never reaches.
			return w.Coll.Barrier()
		}
		return nil
	})
	if err == nil {
		t.Fatal("deadlocked run reported success")
	}
	if !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("error %q does not mention the timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v to fire", elapsed)
	}
}

func TestConfigNewNetworkUnknown(t *testing.T) {
	if _, err := (Config{Transport: "quantum"}).NewNetwork(2); err == nil {
		t.Fatal("unknown transport produced a network")
	}
}

// TestFirstErrorPropagationTCP is the socket version of the teardown
// attribution test: one PE fails while its peers are mid-collective
// over real connections, and the run must report the root cause — not
// the victims' closed-socket noise (which the transport now maps to
// comm.ErrClosed).
func TestFirstErrorPropagationTCP(t *testing.T) {
	sentinel := errors.New("worker 1 gave up")
	net, err := comm.NewTCPNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	start := time.Now()
	err = RunNetwork(net, 5, func(w *Worker) error {
		if w.Rank() == 1 {
			return sentinel
		}
		return w.Coll.Barrier()
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the sentinel error", err)
	}
	if strings.Contains(err.Error(), "use of closed network connection") {
		t.Fatalf("error %q leaks raw socket noise", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("teardown took %v; peers were not unblocked", elapsed)
	}
}

// TestConfigTimeoutReachesRecv checks the Config.Timeout plumbing into
// the transports' per-operation deadline: a Recv nothing will ever
// match must fail with a timeout error on every backend, without the
// run-level timer of RunConfig being involved.
func TestConfigTimeoutReachesRecv(t *testing.T) {
	for _, tr := range []Transport{TransportMem, TransportSim, TransportTCP} {
		tr := tr
		t.Run(string(tr), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Transport: tr, Timeout: 120 * time.Millisecond}
			net, err := cfg.NewNetwork(2)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			start := time.Now()
			_, err = net.Endpoint(0).Recv(1, 42)
			if err == nil {
				t.Fatal("recv with no sender succeeded")
			}
			if !strings.Contains(err.Error(), "timeout") {
				t.Fatalf("error %q does not mention the timeout", err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("per-operation deadline took %v to fire", elapsed)
			}
		})
	}
}

// TestJobWorkerRngStreamUnchanged: a job worker's generator builds its
// state on the first draw, and that must not show in a single number it
// hands out — the digests are the first 1000 draws (and the one after)
// of the eagerly seeded generator this one replaced — nor cost a job
// that never draws more than the seed word.
func TestJobWorkerRngStreamUnchanged(t *testing.T) {
	net := comm.NewMemNetworkTimeout(4, 0)
	defer net.Close()
	ws, err := NewWorkers(net, 0xfeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rank         int
		stream       uint64
		digest, next uint64
	}{
		{0, 0, 0xa27d7034e2fb8c31, 0x8d3452a006e919f},
		{0, 41, 0x29429faa6b81a252, 0xde7891c5f2985426},
		{3, 0, 0xcce690c41e4a93a9, 0x777b74cef0f17938},
		{3, 41, 0x4fc4bd7d8a0aab28, 0xe8d40974cce3fa78},
	} {
		jw := ws[tc.rank].JobWorker(ws[tc.rank].Coll, 7, tc.stream)
		var d uint64
		for i := 0; i < 1000; i++ {
			d = hashing.Mix64(d ^ jw.Rng.Uint64())
		}
		if next := jw.Rng.Uint64(); d != tc.digest || next != tc.next {
			t.Errorf("rank %d stream %d: 1000 draws digest to %#x, then %#x; the eager stream gives %#x, then %#x",
				tc.rank, tc.stream, d, next, tc.digest, tc.next)
		}
	}

	w := ws[1]
	var before, after runtime.MemStats
	const runs = 100
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		w.JobWorker(w.Coll, 7, uint64(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 256 {
		t.Errorf("a JobWorker that never draws allocates %d bytes, want under 256", per)
	}
}

// TestNewWorkersRejectsCorruptSeed: a bit flipped in any message of the
// common-seed broadcast fails NewWorkers with a named error instead of
// leaving ranks keyed apart; a clean broadcast gives every rank PE 0's
// seed.
func TestNewWorkersRejectsCorruptSeed(t *testing.T) {
	const p = 4
	for k := int64(1); ; k++ {
		inner := comm.NewMemNetworkTimeout(p, 0)
		net := comm.NewFaultyNetwork(inner, k, 17)
		ws, err := NewWorkers(net, 0xfeed)
		inner.Close()
		if _, _, landed := net.InjectedAt(); !landed {
			if k == 1 {
				t.Fatal("the broadcast carried no message")
			}
			if err != nil {
				t.Fatalf("clean broadcast: %v", err)
			}
			for r, w := range ws {
				if w.commonSeed != ws[0].commonSeed {
					t.Fatalf("clean broadcast: PE %d holds %#x, PE 0 %#x", r, w.commonSeed, ws[0].commonSeed)
				}
			}
			return
		}
		if err == nil || !strings.Contains(err.Error(), "corrupted in flight") {
			t.Errorf("flip in message %d of the broadcast: NewWorkers returned %v", k, err)
		}
	}
}
