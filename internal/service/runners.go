package service

import "sync"

// runners is the set of goroutines a pool runs its jobs and their
// ranks on. A 2 000-element job is some tens of microseconds of work
// per rank; a goroutine started for it spends a comparable time growing
// its stack from the initial 8 KB to what a checked stage needs. So a
// runner that finishes its task parks on an idle list and the next task
// takes it, stack and all; a new goroutine starts only when none is
// idle, and all exit at stop. The zero value is ready to use.
type runners struct {
	mu   sync.Mutex
	idle []chan task // parked runners, most recently parked last
	wg   sync.WaitGroup
}

// task is one piece of work and the publication of its completion.
type task struct {
	run, finish func()
}

// start runs the task on an idle runner, or a new one when none is
// idle; it does not wait for it. The runner calls finish after run,
// once it is back on the idle list — so if finish is all that tells
// anyone the task is over, whatever they start next finds this runner,
// and a pool never holds more runners than it had tasks at once.
// finish must not block.
func (rs *runners) start(run, finish func()) {
	t := task{run, finish}
	rs.mu.Lock()
	if n := len(rs.idle); n > 0 {
		ch := rs.idle[n-1]
		rs.idle = rs.idle[:n-1]
		rs.mu.Unlock()
		ch <- t
		return
	}
	rs.wg.Add(1)
	rs.mu.Unlock()
	go rs.loop(t)
}

func (rs *runners) loop(t task) {
	defer rs.wg.Done()
	// One slot: a runner is handed its next task while it is still in
	// the previous one's finish, and start never waits for it.
	ch := make(chan task, 1)
	for ok := true; ok; t, ok = <-ch {
		t.run()
		rs.mu.Lock()
		rs.idle = append(rs.idle, ch)
		rs.mu.Unlock()
		t.finish()
		t = task{} // a parked runner must not keep its last job's closures alive
	}
}

// stop ends every runner and waits for them to exit. All tasks must
// have finished, and none may be started afterwards.
func (rs *runners) stop() {
	rs.mu.Lock()
	idle := rs.idle
	rs.idle = nil
	rs.mu.Unlock()
	for _, ch := range idle {
		close(ch)
	}
	rs.wg.Wait()
}
