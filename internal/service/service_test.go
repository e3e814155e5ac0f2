package service

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/hashing"
)

// jobData builds deterministic per-rank pair shares for a job: every
// rank generates the same global dataset from the stream seed and takes
// its slice, so bodies stay SPMD without cross-rank coordination.
func jobData(stream uint64, rank, size, perRank int) []repro.Pair {
	rng := hashing.NewMT19937_64(0xdeed + stream)
	all := make([]repro.Pair, perRank*size)
	for i := range all {
		all[i] = repro.Pair{Key: rng.Uint64()%512 + 1, Value: rng.Uint64() % 1e6}
	}
	return all[rank*perRank : (rank+1)*perRank]
}

func jobSeq(stream uint64, rank, size, perRank int) []uint64 {
	rng := hashing.NewMT19937_64(0xfeed + stream)
	all := make([]uint64, perRank*size)
	for i := range all {
		all[i] = rng.Uint64()
	}
	return all[rank*perRank : (rank+1)*perRank]
}

func newMemPool(t *testing.T, p int, opt Options) *Pool {
	t.Helper()
	opt.P = p
	pool, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { pool.Close() })
	return pool
}

func TestPoolCleanJobsPass(t *testing.T) {
	pool := newMemPool(t, 4, Options{Seed: 42})
	var jobs []*Job
	for i := 0; i < 8; i++ {
		stream := uint64(100 + i)
		j, err := pool.Submit(fmt.Sprintf("reduce-%d", i), func(ctx *repro.Context) error {
			w := ctx.Worker()
			local := jobData(stream, w.Rank(), w.Size(), 200)
			_, err := ctx.Pairs(local).ReduceByKey(repro.SumFn).Collect()
			return err
		})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if err := j.Await(); err != nil {
			t.Fatalf("job %d %q: %v", j.id, j.name, err)
		}
		if len(j.Stats()) == 0 {
			t.Errorf("job %d: no CheckStats", j.id)
		}
		if c := j.Cost(); c.Rounds == 0 || c.WallNs <= 0 {
			t.Errorf("job %d: implausible cost %+v", j.id, c)
		}
	}
	s := pool.Stats()
	if s.Passed != 8 || s.Rejected != 0 || s.Errored != 0 {
		t.Fatalf("stats: %+v", s)
	}
	if s.P50Ns <= 0 || s.BytesPerJob <= 0 {
		t.Errorf("metrics not populated: %+v", s)
	}
}

func TestPoolRejectsCorruptionAndSurvives(t *testing.T) {
	pool := newMemPool(t, 4, Options{Seed: 7})
	// Corrupted job: rank 0's claimed output drops one pair's value, so
	// the global sum is off — the checker must reject on every rank.
	bad, err := pool.Submit("bad-sum", func(ctx *repro.Context) error {
		w := ctx.Worker()
		in := jobData(1, w.Rank(), w.Size(), 150)
		out := make([]repro.Pair, len(in))
		copy(out, in)
		if w.Rank() == 0 {
			out[3].Value += 12345
		}
		return ctx.AssertSum(in, out)
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := bad.Await(); err == nil {
		t.Fatal("corrupted job passed")
	} else if !bad.Rejected() {
		t.Fatalf("corruption surfaced as infrastructure error, want checker rejection: %v", err)
	}
	// The mesh must keep serving after a rejection.
	good, err := pool.Submit("good-sum", func(ctx *repro.Context) error {
		w := ctx.Worker()
		in := jobData(2, w.Rank(), w.Size(), 150)
		return ctx.AssertSum(in, in)
	})
	if err != nil {
		t.Fatalf("Submit after rejection: %v", err)
	}
	if err := good.Await(); err != nil {
		t.Fatalf("clean job after rejection: %v", err)
	}
	s := pool.Stats()
	if s.Rejected != 1 || s.Passed != 1 {
		t.Fatalf("stats after mixed verdicts: %+v", s)
	}
}

// TestPoolConcurrentMixedJobs exercises many concurrent Contexts over
// one resident transport — interleaved eager, deferred, and streamed
// jobs on mem, simnet, and tcp — and checks every verdict is
// bit-identical to a serial rerun of the same job (same JobSeed, same
// stream) on a fresh single-job mesh.
func TestPoolConcurrentMixedJobs(t *testing.T) {
	const (
		p       = 4
		perRank = 120
		nJobs   = 18
		seed    = 99
	)
	for _, tr := range []dist.Transport{dist.TransportMem, dist.TransportSim, dist.TransportTCP} {
		t.Run(string(tr), func(t *testing.T) {
			jobs := int(nJobs)
			if tr == dist.TransportTCP && testing.Short() {
				jobs = 6
			}
			pool, err := New(Options{
				P:    p,
				Seed: seed,
				Dist: dist.Config{Transport: tr},
			})
			if err != nil {
				t.Fatalf("New(%s): %v", tr, err)
			}
			defer pool.Close()

			type outcome struct {
				job    *Job
				kind   string
				stream uint64
			}
			var (
				mu   sync.Mutex
				outs []outcome
				wg   sync.WaitGroup
			)
			submit := func(kind string, stream uint64, j *Job, err error) {
				if err != nil {
					t.Errorf("Submit %s/%d: %v", kind, stream, err)
					return
				}
				mu.Lock()
				outs = append(outs, outcome{j, kind, stream})
				mu.Unlock()
			}
			modes := []repro.CheckMode{repro.CheckEager, repro.CheckDeferred}
			for i := 0; i < jobs; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					stream := uint64(1000 + i)
					switch i % 3 {
					case 0: // one-shot reduce, alternating mode
						opts := repro.DefaultOptions()
						opts.Mode = modes[i%2]
						j, err := pool.SubmitWith("reduce", opts, reduceBody(stream, perRank, i%6 == 0))
						submit("reduce", stream, j, err)
					case 1: // one-shot sort
						opts := repro.DefaultOptions()
						opts.Mode = modes[(i/2)%2]
						j, err := pool.SubmitWith("sort", opts, sortBody(stream, perRank))
						submit("sort", stream, j, err)
					default: // streamed permutation assertion
						j, err := pool.SubmitStream("stream-perm", permSpec(stream, p, perRank, i%9 == 2))
						submit("stream-perm", stream, j, err)
					}
				}()
			}
			wg.Wait()
			if len(outs) != jobs {
				t.Fatalf("submitted %d of %d jobs", len(outs), jobs)
			}
			for _, o := range outs {
				got := o.job.Await()
				want := serialRerun(t, p, seed, o.job, o.kind, o.stream, perRank)
				if (got == nil) != (want == nil) {
					t.Fatalf("%s/%d: pooled verdict %v, serial verdict %v", o.kind, o.stream, got, want)
				}
				if got != nil && !errors.Is(got, repro.ErrCheckFailed) {
					t.Fatalf("%s/%d: non-checker failure: %v", o.kind, o.stream, got)
				}
				compareStages(t, o, o.job.Stats(), serialStats)
			}
		})
	}
}

// reduceBody builds the SPMD body of a reduce job; corrupt asserts a
// doctored claimed output instead, which every checker must reject.
func reduceBody(stream uint64, perRank int, corrupt bool) Body {
	return func(ctx *repro.Context) error {
		w := ctx.Worker()
		in := jobData(stream, w.Rank(), w.Size(), perRank)
		if corrupt {
			out := make([]repro.Pair, len(in))
			copy(out, in)
			if w.Rank() == w.Size()-1 {
				out[0].Value ^= 1 << 17
			}
			return ctx.AssertSum(in, out)
		}
		_, err := ctx.Pairs(in).ReduceByKey(repro.SumFn).Collect()
		return err
	}
}

func sortBody(stream uint64, perRank int) Body {
	return func(ctx *repro.Context) error {
		w := ctx.Worker()
		in := jobSeq(stream, w.Rank(), w.Size(), perRank)
		_, err := ctx.Seq(in).Sort().Collect()
		return err
	}
}

// permSpec streams a sequence against a deterministic global shuffle of
// itself; corrupt changes one output element so the multiset differs.
func permSpec(stream uint64, p, perRank int, corrupt bool) StreamSpec {
	return StreamSpec{
		Op:       StreamPermutation,
		SeqInput: func(rank int) repro.SeqSource { return repro.SliceSeq(jobSeq(stream, rank, p, perRank), 64) },
		SeqOutput: func(rank int) repro.SeqSource {
			rng := hashing.NewMT19937_64(0xfeed + stream)
			all := make([]uint64, perRank*p)
			for i := range all {
				all[i] = rng.Uint64()
			}
			// Fisher-Yates with a stream-keyed generator: same permutation
			// on every rank.
			sh := hashing.NewMT19937_64(0x5431 + stream)
			for i := len(all) - 1; i > 0; i-- {
				j := int(sh.Uint64() % uint64(i+1))
				all[i], all[j] = all[j], all[i]
			}
			if corrupt && rank == 0 {
				out := make([]uint64, perRank)
				copy(out, all[:perRank])
				out[perRank/2] ^= 0xff
				return repro.SliceSeq(out, 64)
			}
			return repro.SliceSeq(all[rank*perRank:(rank+1)*perRank], 64)
		},
	}
}

// serialStats holds rank 0's stats of the most recent serialRerun.
var serialStats []repro.CheckStats

// serialRerun replays one pooled job on a fresh dedicated mem mesh with
// the same job seed and stream, the way JobSeed documents, and returns
// its verdict. It also captures rank 0's CheckStats in serialStats.
func serialRerun(t *testing.T, p int, seed uint64, job *Job, kind string, stream uint64, perRank int) error {
	t.Helper()
	var (
		mu      sync.Mutex
		stats   []repro.CheckStats
		verdict error
	)
	// A rejection is recorded, not returned: a body that fails tears the
	// network down under ranks still forwarding the verdict broadcast,
	// which would turn their stage's verdict into an error.
	rejection := func(rank int, err error) error {
		if !errors.Is(err, repro.ErrCheckFailed) {
			return err
		}
		if rank == 0 {
			mu.Lock()
			verdict = err
			mu.Unlock()
		}
		return nil
	}
	err := dist.RunConfig(dist.Config{}, p, seed, func(w *dist.Worker) error {
		common, err := w.CommonSeed()
		if err != nil {
			return err
		}
		if got := JobSeed(common, job.id); got != job.seed {
			return fmt.Errorf("seed derivation diverged: %#x != %#x", got, job.seed)
		}
		jw := w.JobWorker(w.Coll, job.seed, uint64(job.id))
		ctx, err := repro.NewContext(jw, repro.DefaultOptions())
		if err != nil {
			return err
		}
		defer func() {
			if w.Rank() == 0 {
				mu.Lock()
				stats = ctx.Stats()
				mu.Unlock()
			}
		}()
		switch kind {
		case "reduce":
			corrupt := job.Rejected()
			if err := reduceBody(stream, perRank, corrupt)(ctx); err != nil {
				return rejection(w.Rank(), err)
			}
		case "sort":
			if err := sortBody(stream, perRank)(ctx); err != nil {
				return rejection(w.Rank(), err)
			}
		case "stream-perm":
			spec := permSpec(stream, p, perRank, job.Rejected())
			r := w.Rank()
			ctx.StreamSeq(spec.SeqInput(r)).AssertPermutation(spec.SeqOutput(r))
		}
		return rejection(w.Rank(), ctx.Verify())
	})
	if err == nil {
		err = verdict
	}
	serialStats = stats
	return err
}

// compareStages demands the pooled and serial runs agree stage by
// stage on names, verdicts, and element counts — the bit-identical
// part of the acceptance criterion that is independent of wall time.
func compareStages(t *testing.T, o struct {
	job    *Job
	kind   string
	stream uint64
}, pooled, serial []repro.CheckStats) {
	t.Helper()
	if len(pooled) != len(serial) {
		t.Fatalf("%s/%d: %d pooled stages vs %d serial", o.kind, o.stream, len(pooled), len(serial))
	}
	for i := range pooled {
		p, s := pooled[i], serial[i]
		if p.Stage != s.Stage || p.Op != s.Op || p.Verdict != s.Verdict ||
			p.ElementsIn != s.ElementsIn || p.ElementsOut != s.ElementsOut {
			t.Fatalf("%s/%d stage %d: pooled {%s %s verdict=%v in=%d out=%d} vs serial {%s %s verdict=%v in=%d out=%d}",
				o.kind, o.stream, i,
				p.Stage, p.Op, p.Verdict, p.ElementsIn, p.ElementsOut,
				s.Stage, s.Op, s.Verdict, s.ElementsIn, s.ElementsOut)
		}
	}
}

// TestPoolAbortUnblocksPeers kills rank 0 before it joins the job's
// collective; the peers are already inside it. The scoped abort must
// wake them, the job must error, and the next job must run clean.
func TestPoolAbortUnblocksPeers(t *testing.T) {
	pool := newMemPool(t, 4, Options{Seed: 5})
	boom := errors.New("rank 0 exploded")
	j, err := pool.Submit("abort", func(ctx *repro.Context) error {
		w := ctx.Worker()
		if w.Rank() == 0 {
			time.Sleep(20 * time.Millisecond) // let peers enter the collective
			return boom
		}
		in := jobData(9, w.Rank(), w.Size(), 100)
		_, err := ctx.Pairs(in).ReduceByKey(repro.SumFn).Collect()
		return err
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- j.Await() }()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("want the rank-0 error as the job outcome, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("abort did not unblock the peers")
	}
	if j.Rejected() {
		t.Fatal("infrastructure failure reported as checker rejection")
	}
	probe, err := pool.Submit("after-abort", func(ctx *repro.Context) error {
		w := ctx.Worker()
		in := jobData(10, w.Rank(), w.Size(), 100)
		return ctx.AssertSum(in, in)
	})
	if err != nil {
		t.Fatalf("Submit after abort: %v", err)
	}
	if err := probe.Await(); err != nil {
		t.Fatalf("pool did not survive the abort: %v", err)
	}
}

// newFaultyPool builds a plain pool over a fault-injecting in-memory
// mesh with the default transport deadline, which the pool's own
// failure path must never be left to.
func newFaultyPool(t *testing.T, p int, opt Options) (*Pool, *comm.FaultyNetwork) {
	t.Helper()
	inner := comm.NewMemNetworkTimeout(p, 0)
	fn := comm.NewFaultyNetwork(inner, 0, 0)
	opt.P = p
	pool, err := NewOnNetwork(fn, opt)
	if err != nil {
		inner.Close()
		t.Fatalf("NewOnNetwork: %v", err)
	}
	t.Cleanup(func() {
		pool.Close()
		inner.Close()
	})
	return pool, fn
}

// wantPeerDown fails unless err attributes a job's failure to victim's
// death.
func wantPeerDown(t *testing.T, err error, victim int) {
	t.Helper()
	var pd *comm.PeerDownError
	if !errors.Is(err, comm.ErrPeerDown) || !errors.As(err, &pd) || pd.Rank != victim {
		t.Fatalf("job error %v, want PeerDownError{Rank: %d}", err, victim)
	}
}

// TestPoolAttributesDeathOnPlainJobs kills a PE while a job is blocked
// mid-body: the job fails with the death attributed to the dead rank
// (PeerDownError), not with a bare transport error.
func TestPoolAttributesDeathOnPlainJobs(t *testing.T) {
	const p, victim = 4, 1
	pool, fn := newFaultyPool(t, p, Options{Seed: 9, MaxConcurrent: 4, JobTimeout: 10 * time.Second})

	var ready sync.WaitGroup
	ready.Add(p)
	killed := make(chan struct{})
	j, err := pool.Submit("plain", func(ctx *repro.Context) error {
		ready.Done()
		<-killed
		w := ctx.Worker()
		local := jobData(3, w.Rank(), w.Size(), 100)
		_, err := ctx.Pairs(local).ReduceByKey(repro.SumFn).Collect()
		return err
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ready.Wait()
	fn.ArmPeerDown(victim)
	close(killed)
	wantPeerDown(t, j.Await(), victim)
}

// TestPoolDeadPeerFailsFast runs jobs on a mesh whose PE 1 is already
// dead, its body sleeping first so the survivors park in their receives.
// The abort must wake every survivor at once, rank 0 included, whose
// wake-up must not depend on the dead rank: each job fails, by name,
// long before the job timeout, and leaves no live rank's endpoint
// poisoned for the next.
func TestPoolDeadPeerFailsFast(t *testing.T) {
	const p, victim = 4, 1
	pool, fn := newFaultyPool(t, p, Options{Seed: 21, JobTimeout: 10 * time.Second})
	fn.ArmPeerDown(victim)
	for i := range 3 {
		start := time.Now()
		j, err := pool.Submit(fmt.Sprintf("dead-peer-%d", i), func(ctx *repro.Context) error {
			w := ctx.Worker()
			if w.Rank() == victim {
				time.Sleep(50 * time.Millisecond)
			}
			local := jobData(uint64(40+i), w.Rank(), w.Size(), 100)
			_, err := ctx.Pairs(local).ReduceByKey(repro.SumFn).Collect()
			return err
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		err = j.Await()
		if el := time.Since(start); el > time.Second {
			t.Fatalf("job %d took %v to fail: %v", i, el, err)
		}
		wantPeerDown(t, err, victim)
	}
}

// TestPoolPanicIsJobScoped panics one rank mid-body: the job must fail
// with the panic converted to an error and the pool must keep serving.
func TestPoolPanicIsJobScoped(t *testing.T) {
	pool := newMemPool(t, 3, Options{Seed: 11})
	j, err := pool.Submit("panic", func(ctx *repro.Context) error {
		w := ctx.Worker()
		if w.Rank() == 1 {
			panic("job bug")
		}
		in := jobData(21, w.Rank(), w.Size(), 50)
		_, err := ctx.Pairs(in).ReduceByKey(repro.SumFn).Collect()
		return err
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := j.Await(); err == nil {
		t.Fatal("panicking job reported success")
	}
	probe, err := pool.Submit("after-panic", func(ctx *repro.Context) error {
		w := ctx.Worker()
		in := jobData(22, w.Rank(), w.Size(), 50)
		return ctx.AssertSum(in, in)
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := probe.Await(); err != nil {
		t.Fatalf("pool did not survive the panic: %v", err)
	}
}

// TestPoolTimeoutAborts wedges rank 0 in local compute past the job
// timeout; the watchdog must poison the job's block so the waiting
// peers die fast and the job reports the timeout.
func TestPoolTimeoutAborts(t *testing.T) {
	pool := newMemPool(t, 3, Options{Seed: 13, JobTimeout: 100 * time.Millisecond})
	j, err := pool.Submit("slow", func(ctx *repro.Context) error {
		w := ctx.Worker()
		if w.Rank() == 0 {
			time.Sleep(400 * time.Millisecond)
		}
		in := jobData(31, w.Rank(), w.Size(), 50)
		_, err := ctx.Pairs(in).ReduceByKey(repro.SumFn).Collect()
		return err
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	start := time.Now()
	err = j.Await()
	if err == nil {
		t.Fatal("timed-out job reported success")
	}
	if errors.Is(err, repro.ErrCheckFailed) {
		t.Fatalf("timeout surfaced as rejection: %v", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("timeout abort took %v", el)
	}
}

// TestPoolFaultInjectionContained wraps the mesh in a FaultyNetwork,
// arms a hard receive fault, and checks the blast radius: exactly the
// job owning the injected tag errors, every other concurrent job
// passes, and a fresh probe job runs clean afterwards.
func TestPoolFaultInjectionContained(t *testing.T) {
	const p = 4
	inner := comm.NewMemNetworkTimeout(p, 0)
	fn := comm.NewFaultyNetwork(inner, 0, 0)
	fn.Disarm()
	pool, err := NewOnNetwork(fn, Options{Seed: 17})
	if err != nil {
		t.Fatalf("NewOnNetwork: %v", err)
	}
	defer func() {
		pool.Close()
		inner.Close()
	}()

	fn.ArmRecvErr(40)
	var jobs []*Job
	for i := 0; i < 8; i++ {
		stream := uint64(600 + i)
		j, err := pool.Submit("wave", func(ctx *repro.Context) error {
			w := ctx.Worker()
			in := jobData(stream, w.Rank(), w.Size(), 120)
			_, err := ctx.Pairs(in).ReduceByKey(repro.SumFn).Collect()
			return err
		})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		jobs = append(jobs, j)
	}
	var failed []*Job
	for _, j := range jobs {
		if err := j.Await(); err != nil {
			if j.Rejected() {
				t.Fatalf("hard receive fault reported as checker rejection: %v", err)
			}
			failed = append(failed, j)
		}
	}
	_, tag, injected := fn.InjectedAt()
	if !injected {
		t.Skip("fault did not fire within the wave's traffic")
	}
	if len(failed) == 0 {
		t.Fatal("injected hard fault escaped: every job passed")
	}
	for _, j := range failed {
		lo, hi := j.TagBlock()
		if tag < lo || tag >= hi {
			t.Fatalf("job %d failed but the fault hit tag %d outside its block [%d,%d)", j.id, tag, lo, hi)
		}
	}
	fn.Disarm()
	probe, err := pool.Submit("probe", func(ctx *repro.Context) error {
		w := ctx.Worker()
		in := jobData(700, w.Rank(), w.Size(), 120)
		return ctx.AssertSum(in, in)
	})
	if err != nil {
		t.Fatalf("Submit probe: %v", err)
	}
	if err := probe.Await(); err != nil {
		t.Fatalf("pool did not survive the injected fault: %v", err)
	}
}

// TestPoolVerdictDoesNotShadowAbort fails each receive of a rejected
// job in turn. Where some ranks have already returned the rejection,
// the rank whose receive failed must still abort the job, or the peers
// waiting on it sit out the network's 30 s deadline. Every job ends
// well before that, as a rejection or with the injected fault (or the
// abort it caused) named.
func TestPoolVerdictDoesNotShadowAbort(t *testing.T) {
	const p, n = 4, 200
	inner := comm.NewMemNetworkTimeout(p, 30*time.Second)
	fn := comm.NewFaultyNetwork(inner, 0, 0)
	pool, err := NewOnNetwork(fn, Options{Seed: 7, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		pool.Close()
		inner.Close()
	}()
	body := func(ctx *repro.Context) error {
		w := ctx.Worker()
		in := jobData(40, w.Rank(), w.Size(), n)
		out := slices.Clone(in)
		if w.Rank() == 1 {
			out[0].Value++
		}
		return ctx.AssertSum(in, out)
	}
	aborted := 0
	for k := int64(1); ; k++ {
		fn.ArmRecvErr(k)
		j, err := pool.Submit("shadow", body)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.done:
		case <-time.After(5 * time.Second):
			t.Fatalf("receive %d failed: the job did not end within 5 s", k)
		}
		if _, _, landed := fn.InjectedAt(); !landed {
			if aborted == 0 {
				t.Fatal("no injected fault ended a job with an error")
			}
			return
		}
		switch err := j.err; {
		case j.Rejected():
		case errors.Is(err, comm.ErrInjected) || errors.Is(err, errJobAborted):
			aborted++
		default:
			t.Errorf("receive %d failed: the job ended with %v", k, err)
		}
	}
}

func TestPoolClose(t *testing.T) {
	pool := newMemPool(t, 2, Options{Seed: 3})
	j, err := pool.Submit("last", func(ctx *repro.Context) error {
		w := ctx.Worker()
		in := jobData(41, w.Rank(), w.Size(), 60)
		return ctx.AssertSum(in, in)
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close drained: the in-flight job completed before Close returned.
	select {
	case <-j.done:
	default:
		t.Fatal("Close returned with a job still in flight")
	}
	if err := j.err; err != nil {
		t.Fatalf("drained job failed: %v", err)
	}
	if _, err := pool.Submit("late", func(ctx *repro.Context) error { return nil }); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after Close: %v, want ErrPoolClosed", err)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestSubmitStreamValidates(t *testing.T) {
	pool := newMemPool(t, 2, Options{Seed: 1})
	if _, err := pool.SubmitStream("bad", StreamSpec{Op: StreamSum}); err == nil {
		t.Fatal("SubmitStream accepted a spec without sources")
	}
	if _, err := pool.SubmitStream("bad", StreamSpec{Op: StreamOp(99)}); err == nil {
		t.Fatal("SubmitStream accepted an unknown op")
	}
}

// TestJobSeedsDiffer guards the per-job checker independence: two jobs
// of one pool must key their hash functions differently.
func TestJobSeedsDiffer(t *testing.T) {
	pool := newMemPool(t, 2, Options{Seed: 23})
	// Hold both jobs in flight until both are submitted, so block
	// recycling cannot hand b the block a just retired.
	gate := make(chan struct{})
	hold := func(ctx *repro.Context) error { <-gate; return nil }
	a, err := pool.Submit("a", hold)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Submit("b", hold)
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	if a.Await() != nil || b.Await() != nil {
		t.Fatal("trivial jobs failed")
	}
	if a.seed == b.seed {
		t.Fatalf("jobs share checker seed %#x", a.seed)
	}
	al, ah := a.TagBlock()
	bl, bh := b.TagBlock()
	if al == bl {
		t.Fatalf("jobs share tag block [%d,%d)/[%d,%d)", al, ah, bl, bh)
	}
}

// TestPoolVerdictBitflipCannotForgeAccept is the root package's
// TestVerdictBitflipCannotForgeAccept for a service.Pool job: one
// AssertSum job on a pool built over a network that flips one bit of
// one message — every message of the run in turn, at bits 0, 1 and 63,
// pool set-up and job alike — once with the correct output and once
// with a wrong one. The ranks whose share of the job returns no error
// all return the same verdict, a wrong output is never accepted, and a
// flip during set-up ends in a named error.
func TestPoolVerdictBitflipCannotForgeAccept(t *testing.T) {
	const p, n = 4, 500
	in := make([][]repro.Pair, p)
	correct := make([][]repro.Pair, p)
	wrong := make([][]repro.Pair, p)
	for r := range p {
		in[r] = jobData(9, r, p, n)
		sums := map[uint64]uint64{}
		for _, pr := range in[r] {
			sums[pr.Key] += pr.Value
		}
		for k, v := range sums {
			correct[r] = append(correct[r], repro.Pair{Key: k, Value: v})
		}
		wrong[r] = slices.Clone(correct[r])
	}
	wrong[1][0].Value++
	for _, c := range []struct {
		name   string
		output [][]repro.Pair
	}{{"correct", correct}, {"wrong", wrong}} {
		for _, bit := range []int{0, 1, 63} {
			setupFlips, jobFlips := 0, 0
			for k := int64(1); ; k++ {
				inner := comm.NewMemNetworkTimeout(p, 0)
				net := comm.NewFaultyNetwork(inner, k, bit)
				pool, err := NewOnNetwork(net, Options{Seed: 5, MaxConcurrent: 1})
				if _, _, landed := net.InjectedAt(); landed {
					setupFlips++
					if err == nil {
						t.Errorf("%s output, bit %d of message %d: a flip during pool set-up went unnoticed", c.name, bit, k)
						pool.Close()
					}
					inner.Close()
					continue
				}
				if err != nil {
					t.Fatalf("NewOnNetwork without a fault: %v", err)
				}
				var verdicts [p]struct {
					ok  bool
					err error
				}
				j, err := pool.Submit("flip", func(ctx *repro.Context) error {
					r := ctx.Worker().Rank()
					err := ctx.AssertSum(in[r], c.output[r])
					if err == nil {
						err = ctx.Verify()
					}
					verdicts[r].ok = err == nil
					if err != nil && !errors.Is(err, repro.ErrCheckFailed) {
						verdicts[r].err = err
					}
					return err
				})
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				j.Await()
				pool.Close()
				inner.Close()
				if _, _, landed := net.InjectedAt(); !landed {
					if setupFlips == 0 || jobFlips == 0 {
						t.Fatalf("%s output, bit %d: %d flips during set-up and %d during the job, want some of each", c.name, bit, setupFlips, jobFlips)
					}
					break
				}
				jobFlips++
				first := -1
				for r, v := range verdicts {
					if v.err != nil {
						continue
					}
					if first < 0 {
						first = r
					} else if v.ok != verdicts[first].ok {
						t.Errorf("%s output, bit %d of message %d: rank %d says %v, rank %d says %v",
							c.name, bit, k, first, verdicts[first].ok, r, v.ok)
					}
					if c.name == "wrong" && v.ok {
						t.Errorf("bit %d of message %d: rank %d accepted a wrong sum", bit, k, r)
					}
				}
			}
		}
	}
}
