package service

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/comm"
)

// newElasticPool builds a pool with fast detector timings on a
// faulty-wrapped in-memory mesh.
func newElasticPool(t *testing.T, p int, opt Options) (*Pool, *comm.FaultyNetwork) {
	t.Helper()
	inner := comm.NewMemNetworkTimeout(p, 0)
	fn := comm.NewFaultyNetwork(inner, 0, 0)
	opt.P = p
	if opt.Elastic == nil {
		opt.Elastic = &ElasticOptions{Heartbeat: 5 * time.Millisecond, SuspectAfter: 60 * time.Millisecond}
	}
	if opt.JobTimeout == 0 {
		opt.JobTimeout = 60 * time.Second
	}
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

func recoveryShares(stream uint64, p, perRank int) [][]repro.Pair {
	shares := make([][]repro.Pair, p)
	for r := range shares {
		shares[r] = jobData(stream, r, p, perRank)
	}
	return shares
}

// TestPoolRecoversInFlightJobs kills a PE while recoverable jobs are
// blocked mid-body and requires every verdict to be recovered on the
// survivor view: clean jobs pass, a doctored job still rejects, and
// the attribution metadata names the dead rank.
func TestPoolRecoversInFlightJobs(t *testing.T) {
	const p, victim, nJobs = 4, 2, 3
	pool, fn := newElasticPool(t, p, Options{Seed: 42, MaxConcurrent: 8})

	var readyN atomic.Int64
	ready := make(chan struct{})
	killed := make(chan struct{})
	mkBody := func(doctor bool) RecoverableBody {
		return func(ctx *repro.Context, share []repro.Pair) error {
			if readyN.Add(1) == nJobs*p {
				close(ready)
			}
			<-killed
			out := make([]repro.Pair, len(share))
			copy(out, share)
			if doctor && len(out) > 0 {
				out[0].Value += 3
			}
			return ctx.AssertSum(share, out)
		}
	}

	jobs := make([]*Job, nJobs)
	for i := range jobs {
		doctor := i == 1
		j, err := pool.SubmitRecoverableWith(fmt.Sprintf("recov-%d", i), jobOptions(),
			recoveryShares(uint64(i), p, 50), mkBody(doctor))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
		t.Fatal("bodies never started")
	}
	fn.ArmPeerDown(victim)
	close(killed)
	if !pool.WaitEpoch(1, 30*time.Second) {
		t.Fatal("death never detected")
	}

	for i, j := range jobs {
		err := j.Await()
		if !j.Recovered() {
			t.Fatalf("job %d not recovered: %v", i, err)
		}
		if j.deadRank != victim {
			t.Fatalf("job %d attributes rank %d, want %d", i, j.deadRank, victim)
		}
		want := []int{0, 1, 3}
		got := j.RecoveryMembers()
		if len(got) != len(want) {
			t.Fatalf("job %d recovery members %v", i, got)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("job %d recovery members %v, want %v", i, got, want)
			}
		}
		if shares := j.RecoveredShares(); len(shares) != len(want) {
			t.Fatalf("job %d recovered shares %d, want %d", i, len(shares), len(want))
		}
		if doctor := i == 1; doctor {
			if !j.Rejected() {
				t.Fatalf("doctored job %d not rejected after recovery: %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("clean job %d failed after recovery: %v", i, err)
		}
	}

	st := pool.Stats()
	if st.Recovered != nJobs || st.ViewChanges != 1 || st.Epoch != 1 || st.Alive != p-1 {
		t.Fatalf("stats %+v", st)
	}

	// New work admits onto the shrunken view.
	v := pool.View()
	if v.Size() != p-1 || v.Contains(victim) {
		t.Fatalf("post-death view %v", v)
	}
	j, err := pool.SubmitRecoverableWith("post", jobOptions(), recoveryShares(77, v.Size(), 50),
		func(ctx *repro.Context, share []repro.Pair) error {
			return ctx.AssertSum(share, share)
		})
	if err != nil {
		t.Fatalf("post-epoch submit: %v", err)
	}
	if err := j.Await(); err != nil {
		t.Fatalf("post-epoch job: %v", err)
	}
	if j.Recovered() || j.Epoch() != 1 {
		t.Fatalf("post-epoch job recovered=%v epoch=%d", j.Recovered(), j.Epoch())
	}
}

// TestPoolAttributesDeathOnPlainJobs: a non-recoverable job hit by a
// peer death fails with ErrPeerDown attribution instead of a bare
// transport error.
func TestPoolAttributesDeathOnPlainJobs(t *testing.T) {
	const p, victim = 4, 1
	pool, fn := newElasticPool(t, p, Options{Seed: 9, MaxConcurrent: 4})

	var readyN atomic.Int64
	ready := make(chan struct{})
	killed := make(chan struct{})
	j, err := pool.Submit("plain", func(ctx *repro.Context) error {
		if readyN.Add(1) == p {
			close(ready)
		}
		<-killed
		w := ctx.Worker()
		local := jobData(3, w.Rank(), w.Size(), 100)
		_, err := ctx.Pairs(local).ReduceByKey(repro.SumFn).Collect()
		return err
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-ready
	fn.ArmPeerDown(victim)
	close(killed)

	jerr := j.Await()
	if jerr == nil {
		t.Fatal("job passed despite a dead member")
	}
	if !errors.Is(jerr, comm.ErrPeerDown) {
		t.Fatalf("job error %v does not unwrap to ErrPeerDown", jerr)
	}
	var pd *comm.PeerDownError
	if !errors.As(jerr, &pd) || pd.Rank != victim {
		t.Fatalf("attribution %v, want PeerDownError{Rank: %d}", jerr, victim)
	}
	if j.Recovered() || j.deadRank != victim {
		t.Fatalf("recovered=%v deadRank=%d", j.Recovered(), j.deadRank)
	}
}

// TestPoolElasticDisabled: without ElasticOptions the recoverable API
// degrades to plain jobs over the implicit full view.
func TestPoolElasticDisabled(t *testing.T) {
	pool := newMemPool(t, 3, Options{Seed: 5})
	if pool.WaitEpoch(1, 20*time.Millisecond) {
		t.Fatal("WaitEpoch reached epoch 1 with elastic membership off")
	}
	v := pool.View()
	if v.Epoch() != 0 || v.Size() != 3 {
		t.Fatalf("implicit view %v", v)
	}
	j, err := pool.SubmitRecoverableWith("flat", jobOptions(), recoveryShares(1, 3, 40),
		func(ctx *repro.Context, share []repro.Pair) error {
			return ctx.AssertSum(share, share)
		})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := j.Await(); err != nil {
		t.Fatalf("job: %v", err)
	}
	if j.Recovered() {
		t.Fatal("job claims recovery on a static pool")
	}
	st := pool.Stats()
	if st.Alive != 3 || st.Epoch != 0 || st.ViewChanges != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestPoolRecoverableShareCountValidated: shares must match the view.
func TestPoolRecoverableShareCountValidated(t *testing.T) {
	pool, _ := newElasticPool(t, 3, Options{Seed: 8})
	_, err := pool.SubmitRecoverableWith("short", jobOptions(), recoveryShares(1, 2, 10),
		func(ctx *repro.Context, share []repro.Pair) error { return nil })
	if err == nil {
		t.Fatal("submit accepted 2 shares on a 3-PE view")
	}
}
