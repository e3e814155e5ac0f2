package dist

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// Group runs one SPMD fan-out, n member bodies, and is the one place
// that decides what a member's failure means. A panic becomes an error
// naming the member, with its stack. The first error is the run's
// outcome, and every error is offered to Abort until Abort takes one,
// so a declined verdict never hides a later failure. Abort runs under
// the group's lock: what members report because of it (ErrClosed and
// the like) never displaces the cause. Set the fields before the first
// Run. A group runs once at a time and may be reused; its member
// closures are built once, so on a caller's runners a run allocates
// nothing.
type Group struct {
	// Start runs run on one of the caller's goroutines and calls finish
	// after it; finish must not block. Nil starts a goroutine a member.
	Start func(run, finish func())
	// Abort is offered the run's errors until it takes one (returns
	// true). It must not wait for the members. Nil takes none.
	Abort func(err error) bool
	// Timeout, when positive, bounds each run: while a member is still
	// running after it, a timeout error is offered like a member's.
	Timeout time.Duration
	// Name names member i in a panic's error; nil names it "member i".
	Name func(i int) string

	body    func(i int) error
	members []func() // for Start: members[i] runs member(i)
	done    func()   // for Start: wg.Done
	wg      sync.WaitGroup
	timer   *time.Timer   // the watchdog, re-armed per run
	expired chan struct{} // a fired watchdog's signal: Run waits it out

	mu      sync.Mutex // guards the outcome below, and Abort
	running bool
	err     error
	taken   bool
}

// Run runs body(i) for i in [0, n) as the group's members and returns
// the first error once every member has returned.
func (g *Group) Run(n int, body func(i int) error) error {
	if g.Start != nil && len(g.members) < n {
		g.members = make([]func(), n)
		for i := range g.members {
			g.members[i] = func() { g.member(i) }
		}
		g.done = g.wg.Done
	}
	g.body = body
	g.mu.Lock()
	g.running, g.err, g.taken = true, nil, false
	g.mu.Unlock()
	armed := g.Timeout > 0
	if armed && g.timer == nil {
		g.expired = make(chan struct{}, 1)
		g.timer = time.AfterFunc(g.Timeout, func() {
			g.fail(fmt.Errorf("dist: run exceeded %v timeout", g.Timeout))
			g.expired <- struct{}{}
		})
	} else if armed {
		g.timer.Reset(g.Timeout)
	}
	g.wg.Add(n)
	for i := range n {
		if g.Start != nil {
			g.Start(g.members[i], g.done)
		} else {
			go func() { defer g.wg.Done(); g.member(i) }()
		}
	}
	g.wg.Wait()
	g.mu.Lock()
	g.running = false
	err := g.err
	g.mu.Unlock()
	if armed && !g.timer.Stop() {
		<-g.expired
	}
	g.body = nil
	return err
}

func (g *Group) member(i int) {
	defer func() {
		if v := recover(); v != nil {
			name := fmt.Sprintf("member %d", i)
			if g.Name != nil {
				name = g.Name(i)
			}
			g.fail(fmt.Errorf("%s panicked: %v\n%s", name, v, debug.Stack()))
		}
	}()
	if err := g.body(i); err != nil {
		g.fail(err)
	}
}

func (g *Group) fail(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.running {
		return // the watchdog, after the last member returned
	}
	if g.err == nil {
		g.err = err
	}
	if !g.taken && g.Abort != nil {
		g.taken = g.Abort(err)
	}
}
