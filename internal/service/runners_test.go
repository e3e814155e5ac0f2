package service

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro"
)

// TestPoolRunnersReusedAndReleased: the pool's goroutines are reused,
// bounded, and gone after Close. A stream of sequential jobs runs on the
// p+1 runners of the first; MaxConcurrent jobs in flight never hold
// more than MaxConcurrent × (p+1); an aborted and a timed-out job give
// their runners back like any other; and Close leaves no goroutine the
// pool started.
func TestPoolRunnersReusedAndReleased(t *testing.T) {
	const (
		p       = 4
		maxConc = 6
	)
	before := runtime.NumGoroutine()
	pool, err := New(Options{P: p, Seed: 17, MaxConcurrent: maxConc, JobTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	runners := func() int {
		pool.run.mu.Lock()
		defer pool.run.mu.Unlock()
		return len(pool.run.idle)
	}
	sum := func(stream uint64) Body {
		return func(ctx *repro.Context) error {
			w := ctx.Worker()
			in := jobData(stream, w.Rank(), w.Size(), 40)
			return ctx.AssertSum(in, in)
		}
	}
	await := func(name string, body Body) error {
		j, err := pool.Submit(name, body)
		if err != nil {
			t.Fatalf("Submit %s: %v", name, err)
		}
		return j.Await()
	}

	// Sequential: a handle resolves only once its runners are parked, so
	// the count is exact, not merely bounded.
	resident := runtime.NumGoroutine()
	if err := await("first", sum(0)); err != nil {
		t.Fatal(err)
	}
	if got := runners(); got != p+1 {
		t.Fatalf("one job left %d idle runners, want %d", got, p+1)
	}
	for i := 1; i <= 2000; i++ {
		if err := await("seq", sum(uint64(i))); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		// (Goroutines of earlier tests may still be winding down, so
		// the process count can fall; it must not grow.)
		if n, idle := runtime.NumGoroutine(), runners(); idle != p+1 || n > resident+p+1 {
			t.Fatalf("after %d sequential jobs: %d goroutines, %d idle runners; want at most %d and exactly %d", i+1, n, idle, resident+p+1, p+1)
		}
	}

	// Concurrent: more submitters than slots.
	var wg sync.WaitGroup
	for s := 0; s < 2*maxConc; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j, err := pool.Submit("conc", sum(uint64(5000+100*s+i)))
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if err := j.Await(); err != nil {
					t.Errorf("concurrent job: %v", err)
				}
			}
		}(s)
	}
	wg.Wait()
	if got, limit := runners(), maxConc*(p+1); got > limit {
		t.Errorf("%d jobs in flight at most left %d runners, want at most %d", maxConc, got, limit)
	}

	// An aborted and a timed-out job end like any other for the runners.
	boom := errors.New("rank 0 exploded")
	if err := await("abort", func(ctx *repro.Context) error {
		if ctx.Worker().Rank() == 0 {
			time.Sleep(10 * time.Millisecond) // let peers enter the collective
			return boom
		}
		return sum(9001)(ctx)
	}); !errors.Is(err, boom) {
		t.Fatalf("aborted job: %v, want the rank-0 error", err)
	}
	if err := await("slow", func(ctx *repro.Context) error {
		if ctx.Worker().Rank() == 0 {
			time.Sleep(400 * time.Millisecond)
		}
		return sum(9002)(ctx)
	}); err == nil || errors.Is(err, repro.ErrCheckFailed) {
		t.Fatalf("timed-out job: %v, want a timeout", err)
	}
	total := runners()
	if err := await("probe", sum(9003)); err != nil {
		t.Fatalf("pool did not survive: %v", err)
	}
	if got := runners(); got != total {
		t.Errorf("a job after an abort and a timeout changed the runner count from %d to %d", total, got)
	}

	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if got := runners(); got != 0 {
		t.Errorf("%d runners on the idle list after Close", got)
	}
	// The mesh's own goroutines and the abort's kicks end asynchronously.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before New, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
