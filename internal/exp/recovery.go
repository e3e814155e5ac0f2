package exp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/service"
)

// RecoveryEpisode is the outcome of one kill-a-rank chaos episode over
// an elastic pool: a PE is crashed (its endpoint goes silent) while a
// batch of recoverable jobs is in flight, and the episode asserts the
// full recovery contract — the death is detected within the bound,
// exactly one view change converges, every in-flight recoverable job's
// verdict is recovered by a checked replay on the survivors and is
// bit-identical to a serial rerun over the recovered shares, and clean
// jobs admitted on the shrunken view pass untouched.
type RecoveryEpisode struct {
	KilledRank int `json:"killed_rank"`
	P          int `json:"p"`

	Detected bool  `json:"detected"`  // view reached epoch 1 within the bound
	DetectNs int64 `json:"detect_ns"` // kill -> epoch agreement

	ViewChanges int64 `json:"view_changes"` // applied epochs (must be exactly 1)
	Epoch       int   `json:"epoch"`
	Alive       int   `json:"alive"`

	InFlight  int   `json:"in_flight"`  // recoverable jobs riding out the kill
	Recovered int   `json:"recovered"`  // ...whose verdicts came from a checked replay
	RecoverNs int64 `json:"recover_ns"` // kill -> last in-flight job resolved

	VerdictMatch int `json:"verdict_match"` // recovered verdicts == serial rerun
	VerdictTotal int `json:"verdict_total"`
	WrongVerdict int `json:"wrong_verdict"` // recovered verdicts != expected
	Unattributed int `json:"unattributed"`  // in-flight failures with no death attribution

	PostJobs   int `json:"post_jobs"` // clean survivor-view jobs after the epoch
	PostPassed int `json:"post_passed"`

	OK bool `json:"ok"`
}

// recoveryDetectBound caps how long an episode waits for the detector:
// generous against race-detector scheduling, but a hard failure — an
// undetected death means the membership layer is broken, not slow.
const recoveryDetectBound = 60 * time.Second

// recoveryHeartbeat is the episode pool's probe period.
const recoveryHeartbeat = 25 * time.Millisecond

// recoveryShares builds p deterministic per-rank shares for one
// recoverable job.
func recoveryShares(seed, stream uint64, p, elements int) [][]repro.Pair {
	rng := hashing.NewMT19937_64(hashing.Mix64(seed ^ hashing.Mix64(stream+0x7265636f766572))) // "recover"
	shares := make([][]repro.Pair, p)
	for r := range shares {
		sh := make([]repro.Pair, elements)
		for i := range sh {
			sh[i] = repro.Pair{Key: rng.Uint64()%soakKeyUniverse + 1, Value: rng.Uint64() % (1 << 20)}
		}
		shares[r] = sh
	}
	return shares
}

// recoveryAssert is the recoverable job body's assert: the claimed
// output is the share itself (sum-preserving identity), doctored — when
// asked — by a deterministic value edit every rank applies to its first
// pair, so the expected verdict (pass clean, reject doctored) is a pure
// function of (share, doctor) and survives any view change.
func recoveryAssert(ctx *repro.Context, share []repro.Pair, doctor bool) error {
	out := make([]repro.Pair, len(share))
	copy(out, share)
	if doctor && len(out) > 0 {
		out[0].Value += 3
	}
	return ctx.AssertSum(share, out)
}

// recoveryJobOpts is the checker configuration the episode's jobs run
// under — the same default an elastic pool applies, reconstructed
// explicitly so the serial rerun keys its checkers identically.
func recoveryJobOpts() repro.Options {
	o := repro.DefaultOptions()
	o.Mode = repro.CheckDeferred
	return o
}

// RunRecoveryEpisode runs one kill-a-rank episode on a fresh elastic
// pool (its own mesh, separate from any soak phases, so the chaos of
// earlier phases cannot leak in). opt.KillRank selects the victim
// (1 <= KillRank < P; rank 0 is the conventional coordinator in the
// harnesses and is not a supported victim).
func RunRecoveryEpisode(opt SoakOptions) (RecoveryEpisode, error) {
	opt.fill()
	ep := RecoveryEpisode{KilledRank: opt.KillRank, P: opt.P}
	if opt.KillRank < 1 || opt.KillRank >= opt.P {
		return ep, fmt.Errorf("exp: recovery: kill rank %d out of range [1, %d)", opt.KillRank, opt.P)
	}

	inner, err := opt.Dist.NewNetwork(opt.P)
	if err != nil {
		return ep, err
	}
	defer inner.Close()
	fn := comm.NewFaultyNetwork(inner, 0, 0) // disarmed; only ArmPeerDown is used
	pool, err := service.NewOnNetwork(fn, service.Options{
		P:             opt.P,
		Seed:          opt.Seed,
		MaxConcurrent: opt.Concurrency,
		JobTimeout:    opt.JobTimeout,
		Tracer:        opt.Tracer,
		// 25ms probes with the default 500ms suspicion threshold: fast
		// enough that the episode turns around quickly, wide enough that
		// race-detector scheduling hiccups never convict a live peer (the
		// episode asserts detection against recoveryDetectBound, not
		// against the threshold).
		Elastic: &service.ElasticOptions{Heartbeat: recoveryHeartbeat, SuspectAfter: 500 * time.Millisecond},
	})
	if err != nil {
		return ep, err
	}
	defer pool.Close()

	// ---- In-flight batch: recoverable jobs that ride out the kill ----
	nPre := opt.WaveJobs
	if nPre > opt.Concurrency {
		nPre = opt.Concurrency
	}
	ep.InFlight = nPre

	// Every rank of every job signals readiness (its share and replica
	// are retained) and then blocks until the kill lands: the death is
	// guaranteed to hit every job mid-body, after retention — the
	// deterministic worst case, no timing luck.
	var readyN atomic.Int64
	readyCh := make(chan struct{})
	killed := make(chan struct{})
	target := int64(nPre * opt.P)
	mkBody := func(doctor bool) service.RecoverableBody {
		return func(ctx *repro.Context, share []repro.Pair) error {
			if readyN.Add(1) == target {
				close(readyCh)
			}
			<-killed
			return recoveryAssert(ctx, share, doctor)
		}
	}

	jobOpts := recoveryJobOpts()
	handles := make([]*service.Job, nPre)
	doctored := make([]bool, nPre)
	for i := 0; i < nPre; i++ {
		doctored[i] = i%2 == 1
		shares := recoveryShares(opt.Seed, uint64(i), opt.P, opt.Elements)
		h, serr := pool.SubmitRecoverableWith(fmt.Sprintf("recov-%d", i), jobOpts, shares, mkBody(doctored[i]))
		if serr != nil {
			close(killed)
			return ep, fmt.Errorf("exp: recovery submit %d: %w", i, serr)
		}
		handles[i] = h
	}
	select {
	case <-readyCh:
	case <-time.After(recoveryDetectBound):
		close(killed)
		return ep, errors.New("exp: recovery: in-flight jobs never reached their bodies")
	}
	// Let a few probe rounds flow before the kill: a fresh mesh's first
	// heartbeats may not have landed yet, and a peer that dies before
	// ever probing is convicted only after the detector's cold-start
	// grace (one extra suspicion window). Warming the ring first makes
	// the measured latency the suspicion threshold, not the grace.
	time.Sleep(4 * recoveryHeartbeat)

	// ---- Kill, detect, recover ----
	t0 := time.Now()
	fn.ArmPeerDown(opt.KillRank)
	close(killed)
	ep.Detected = pool.WaitEpoch(1, recoveryDetectBound)
	ep.DetectNs = time.Since(t0).Nanoseconds()
	opt.Verbose("recovery: rank %d killed, detected=%v in %.1fms", opt.KillRank, ep.Detected, float64(ep.DetectNs)/1e6)

	for _, h := range handles {
		_ = h.Await()
	}
	ep.RecoverNs = time.Since(t0).Nanoseconds()

	for i, h := range handles {
		jerr := h.Err()
		if !h.Recovered() {
			if errors.Is(jerr, repro.ErrCheckFailed) || jerr == nil {
				// Completed before the kill landed: possible only if the
				// body never blocked, which the ready gate rules out.
				ep.Unattributed++
				opt.Verbose("recovery: job %d finished unkilled (%v)", i, jerr)
			} else {
				ep.Unattributed++
				opt.Verbose("recovery: job %d failed without recovery: %v", i, jerr)
			}
			continue
		}
		ep.Recovered++
		if doctored[i] != h.Rejected() || (jerr == nil) != !doctored[i] {
			ep.WrongVerdict++
			opt.Verbose("recovery: job %d wrong verdict: doctored=%v err=%v", i, doctored[i], jerr)
		}
		match, merr := serialRecoveryVerdict(h, doctored[i], opt.Seed, jobOpts)
		if merr != nil {
			return ep, fmt.Errorf("exp: recovery serial rerun of job %d: %w", i, merr)
		}
		ep.VerdictTotal++
		if match {
			ep.VerdictMatch++
		} else {
			opt.Verbose("recovery: job %d verdict differs from serial rerun", i)
		}
	}

	// ---- Clean jobs on the survivor view ----
	v := pool.View()
	ep.Epoch = v.Epoch()
	ep.Alive = v.Size()
	post := make([]*service.Job, 0, nPre)
	for i := 0; i < nPre; i++ {
		shares := recoveryShares(opt.Seed, uint64(1000+i), v.Size(), opt.Elements)
		h, serr := pool.SubmitRecoverableWith(fmt.Sprintf("post-%d", i), jobOpts, shares,
			func(ctx *repro.Context, share []repro.Pair) error {
				return recoveryAssert(ctx, share, false)
			})
		if serr != nil {
			return ep, fmt.Errorf("exp: recovery post-epoch submit %d: %w", i, serr)
		}
		post = append(post, h)
	}
	for i, h := range post {
		ep.PostJobs++
		if perr := h.Await(); perr == nil {
			ep.PostPassed++
		} else {
			opt.Verbose("recovery: post-epoch job %d failed: %v", i, perr)
		}
	}

	st := pool.Stats()
	ep.ViewChanges = st.ViewChanges

	ep.OK = ep.Detected &&
		ep.ViewChanges == 1 &&
		ep.Epoch == 1 &&
		ep.Alive == opt.P-1 &&
		ep.Unattributed == 0 &&
		ep.WrongVerdict == 0 &&
		ep.Recovered == ep.InFlight &&
		ep.VerdictMatch == ep.VerdictTotal &&
		ep.PostPassed == ep.PostJobs
	return ep, nil
}

// serialRecoveryVerdict reruns a recovered job serially — a fresh
// in-memory mesh of exactly the survivor count, the same base seed, the
// same job seed and stream, the recovered shares — and reports whether
// the pool's recovered verdict matches bit-for-bit (same pass/reject
// classification from identically keyed checkers).
func serialRecoveryVerdict(h *service.Job, doctor bool, baseSeed uint64, jobOpts repro.Options) (bool, error) {
	members := h.RecoveryMembers()
	shares := h.RecoveredShares()
	pp := len(members)
	if pp == 0 || len(shares) != pp {
		return false, fmt.Errorf("exp: job %d: recovery members/shares mismatch (%d vs %d)", h.ID(), pp, len(shares))
	}
	var cfg dist.Config
	net, err := cfg.NewNetwork(pp)
	if err != nil {
		return false, err
	}
	defer net.Close()
	workers, err := dist.NewWorkers(net, baseSeed)
	if err != nil {
		return false, err
	}
	errs := make([]error, pp)
	var wg sync.WaitGroup
	for r := 0; r < pp; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w := workers[r].JobWorker(workers[r].Coll, h.Seed(), uint64(h.ID()))
			ctx, cerr := repro.NewContext(w, jobOpts)
			if cerr != nil {
				errs[r] = cerr
				return
			}
			if aerr := recoveryAssert(ctx, shares[r], doctor); aerr != nil {
				errs[r] = aerr
				return
			}
			errs[r] = ctx.Verify()
		}(r)
	}
	wg.Wait()
	var serialErr error
	for _, e := range errs {
		if e != nil {
			serialErr = e
			break
		}
	}
	serialRejected := errors.Is(serialErr, repro.ErrCheckFailed)
	serialPassed := serialErr == nil
	if !serialRejected && !serialPassed {
		return false, fmt.Errorf("exp: serial rerun of job %d died on infrastructure: %w", h.ID(), serialErr)
	}
	return serialRejected == h.Rejected() && serialPassed == (h.Err() == nil), nil
}
