package dist

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
)

// TestGroupContract pins what every SPMD fan-out relies on, one case a
// row. Each case runs a Group whose abort declines errVerdict (a
// replicated verdict) and otherwise closes the run's network, which
// fails the members blocked in a receive with ErrClosed. Across every
// case, Abort is never called outside Run, and no goroutine outlives
// the test.
func TestGroupContract(t *testing.T) {
	errVerdict := errors.New("verdict: reject")
	errCause := errors.New("member 2 gave up")
	// wait blocks member i until the network closes.
	wait := func(i int, net comm.Network) error {
		_, err := net.Endpoint(i).Recv((i+1)%net.Size(), 7)
		return err
	}
	verdicts := make(chan struct{}, 2) // the verdict-then-failure case's two verdicts
	baseline := runtime.NumGoroutine()
	for _, tc := range []struct {
		name    string
		n       int
		timeout time.Duration
		runs    int  // back-to-back runs of one group; 0 means 1
		start   bool // members run on a supplied runner
		body    func(i int, net comm.Network) error
		// check returns what is wrong with a run's outcome and the
		// errors Abort took, or "".
		check func(err error, taken []error) string
	}{
		{
			name: "cause-not-fallout", n: 4,
			body: func(i int, net comm.Network) error {
				if i == 2 {
					return errCause
				}
				return wait(i, net)
			},
			check: func(err error, taken []error) string {
				if !errors.Is(err, errCause) || len(taken) != 1 || !errors.Is(taken[0], errCause) {
					return "the outcome and the abort must be the cause"
				}
				return ""
			},
		},
		{
			name: "panic-names-member", n: 3,
			body: func(i int, net comm.Network) error {
				if i == 1 {
					panic("boom")
				}
				return wait(i, net)
			},
			check: func(err error, taken []error) string {
				if err == nil || !strings.Contains(err.Error(), "member 1 panicked: boom") || !strings.Contains(err.Error(), "goroutine") {
					return "the panic must become an error naming member 1 with its stack"
				}
				return ""
			},
		},
		{
			name: "timeout-mentions-limit", n: 2, timeout: 40 * time.Millisecond,
			body: wait,
			check: func(err error, taken []error) string {
				if err == nil || !strings.Contains(err.Error(), "timeout") || !strings.Contains(err.Error(), "40ms") {
					return "the outcome must be a timeout error naming the limit"
				}
				return ""
			},
		},
		{
			name: "verdict-then-failure-aborts", n: 4,
			body: func(i int, net comm.Network) error {
				switch i {
				case 0, 1:
					verdicts <- struct{}{}
					return errVerdict
				case 2:
					<-verdicts
					<-verdicts
					return errCause
				}
				return wait(i, net)
			},
			check: func(err error, taken []error) string {
				if !errors.Is(err, errVerdict) || len(taken) != 1 || !errors.Is(taken[0], errCause) {
					return "the verdict must stay the outcome and the later failure must be aborted"
				}
				return ""
			},
		},
		{
			name: "verdict-then-timeout-aborts", n: 3, timeout: 40 * time.Millisecond,
			body: func(i int, net comm.Network) error {
				if i == 0 {
					return errVerdict
				}
				return wait(i, net)
			},
			check: func(err error, taken []error) string {
				if !errors.Is(err, errVerdict) || len(taken) != 1 || !strings.Contains(taken[0].Error(), "timeout") {
					return "the watchdog must abort a run whose first error was a verdict"
				}
				return ""
			},
		},
		{
			name: "reuse-timeout-near-run-length", n: 3, timeout: time.Millisecond, runs: 200,
			body: func(i int, net comm.Network) error {
				time.Sleep(time.Millisecond)
				return nil
			},
			check: func(err error, taken []error) string {
				if err != nil && !strings.Contains(err.Error(), "timeout") {
					return "a run may only time out"
				}
				return ""
			},
		},
		{
			name: "start-runs-every-member", n: 4, start: true,
			body: func(i int, net comm.Network) error { return nil },
			check: func(err error, taken []error) string {
				if err != nil {
					return "a member did not run on the supplied runner"
				}
				return ""
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				inRun   atomic.Bool
				net     comm.Network
				taken   []error
				started atomic.Int32
				onRun   atomic.Int32 // members inside a supplied runner
			)
			g := &Group{
				Timeout: tc.timeout,
				Abort: func(err error) bool {
					if !inRun.Load() {
						t.Errorf("Abort(%v) called outside Run", err)
					}
					if errors.Is(err, errVerdict) {
						return false
					}
					taken = append(taken, err) // under the group's lock
					net.Close()
					return true
				},
			}
			if tc.start {
				g.Start = func(run, finish func()) {
					started.Add(1)
					go func() {
						onRun.Add(1)
						run()
						onRun.Add(-1)
						finish()
					}()
				}
			}
			body := func(i int) error {
				if tc.start && onRun.Load() == 0 {
					return errors.New("not on a supplied runner")
				}
				return tc.body(i, net)
			}
			for range max(tc.runs, 1) {
				net, taken = comm.NewMemNetworkTimeout(tc.n, 0), nil
				inRun.Store(true)
				err := g.Run(tc.n, body)
				inRun.Store(false)
				if what := tc.check(err, taken); what != "" {
					t.Fatalf("outcome %v, aborts %v: %s", err, taken, what)
				}
				net.Close()
			}
			if tc.start && started.Load() != int32(tc.n) {
				t.Fatalf("Start called %d times for %d members", started.Load(), tc.n)
			}
		})
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at baseline, %d now", baseline, runtime.NumGoroutine())
		}
	}
}
