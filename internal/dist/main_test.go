package dist

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package's run when goroutines outlive its tests:
// every network, worker, detector and launched rank a test brings up
// must be gone after it.
func TestMain(m *testing.M) {
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
