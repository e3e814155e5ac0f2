package service

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestDetectorDetectsDeath kills one rank with no job in flight and
// requires the pool's view to drop exactly that rank.
func TestDetectorDetectsDeath(t *testing.T) {
	const p, victim = 4, 2
	pool, fn := newElasticPool(t, p, Options{Seed: 99})

	fn.ArmPeerDown(victim)
	if !pool.WaitEpoch(1, 10*time.Second) {
		t.Fatal("the death of rank 2 was never detected")
	}
	v := pool.View()
	if got, want := v.Members(), []int{0, 1, 3}; v.Epoch() != 1 || !slices.Equal(got, want) {
		t.Fatalf("view %v after the death of %d, want members %v at epoch 1", v, victim, want)
	}
}

// TestDetectorNoFalseAlarms leaves the mesh quiet but alive for many
// suspicion windows: nobody may be convicted.
func TestDetectorNoFalseAlarms(t *testing.T) {
	pool, _ := newElasticPool(t, 4, Options{Seed: 99})

	time.Sleep(400 * time.Millisecond) // ~6 suspicion windows of idle heartbeating
	if v := pool.View(); v.Epoch() != 0 {
		t.Fatalf("a live peer was convicted: %v", v)
	}
	if n := pool.det.heartbeats.Load(); n == 0 {
		t.Fatal("no heartbeats were sent")
	}
}

// detectorGoroutines counts the goroutines running a heartbeat or a
// watcher loop. A goroutine that has not been scheduled yet shows no
// frame, so callers poll.
func detectorGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "service.(*Pool).beat(") || strings.Contains(g, "service.(*Pool).watch(") {
			count++
		}
	}
	return count
}

// TestDetectorGoroutines pins the detector at two goroutines per rank
// — a heartbeat and one watcher, not a listener per peer — and none
// after Close.
func TestDetectorGoroutines(t *testing.T) {
	const p = 8
	pool, err := New(Options{P: p, Seed: 1, Elastic: &ElasticOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	n := detectorGoroutines()
	for deadline := time.Now().Add(5 * time.Second); n < 2*p && time.Now().Before(deadline); n = detectorGoroutines() {
		time.Sleep(time.Millisecond)
	}
	if n != 2*p {
		pool.Close()
		t.Fatalf("%d detector goroutines at p = %d, want %d", n, p, 2*p)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waits for the loops to finish; their goroutines exit
	// right after.
	for deadline := time.Now().Add(5 * time.Second); n > 0 && time.Now().Before(deadline); n = detectorGoroutines() {
		time.Sleep(time.Millisecond)
	}
	if n != 0 {
		t.Fatalf("%d detector goroutines after Close, want 0", n)
	}
}
