package collective

import (
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package's run when goroutines outlive its tests:
// every network and resident PE goroutine a test brings up must be
// gone after it.
func TestMain(m *testing.M) {
	// A fuzzing run (-fuzz) installs a signal handler, and the
	// os/signal goroutine behind it lives as long as the process: start
	// it here, so the count below includes it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	signal.Stop(sig)
	before := runtime.NumGoroutine()
	code := m.Run()
	for deadline := time.Now().Add(5 * time.Second); code == 0 && runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "goroutine leak: %d before the tests, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}
