package comm

import "testing"

// TestPayloadPoolStaysSmall fills every class past what it keeps: the
// pool must keep exactly its share of each, so the bytes it retains
// stay under a bound that does not grow with what was returned.
func TestPayloadPoolStaysSmall(t *testing.T) {
	if payloadPoolLimit > 48<<20 {
		t.Fatalf("the pool may retain %d bytes, want at most 48 MiB", payloadPoolLimit)
	}
	defer drainPayloadPool()
	drainPayloadPool()
	for c := range payloadPool {
		size := 1 << (c + minPayloadShift)
		for range classKeep(c) + 2 {
			PutPayload(make([]byte, size))
		}
	}
	if got := payloadPoolBytes(); got != payloadPoolLimit {
		t.Errorf("every class filled past its share: the pool retains %d bytes, want its limit %d", got, payloadPoolLimit)
	}
}

// TestPayloadPoolClasses: a payload has the length asked for and the
// capacity of the smallest class that holds it; what is not a class
// size, or is too big for the largest class, is not kept.
func TestPayloadPoolClasses(t *testing.T) {
	defer drainPayloadPool()
	drainPayloadPool()
	for _, tc := range []struct{ n, cap int }{
		{1, 64}, {64, 64}, {65, 128}, {5000, 8192}, {1 << 20, 1 << 20}, {1<<20 + 1, 1<<20 + 1},
	} {
		b := GetPayload(tc.n)
		if len(b) != tc.n || cap(b) != tc.cap {
			t.Errorf("GetPayload(%d): len %d cap %d, want len %d cap %d", tc.n, len(b), cap(b), tc.n, tc.cap)
		}
	}
	if GetPayload(0) != nil {
		t.Error("GetPayload(0) is not nil")
	}
	for _, b := range [][]byte{nil, make([]byte, 100), make([]byte, 32), make([]byte, 2<<20), make([]byte, 256)[8:]} {
		PutPayload(b)
	}
	if got := payloadPoolBytes(); got != 0 {
		t.Errorf("the pool kept %d bytes of buffers that are not a class size", got)
	}
}

// TestPayloadPoolNoDuplicates: a buffer put back twice, as a sender
// that breaks the ownership rule by sending one payload twice would make
// a transport do, is kept once, so two takers never share it.
func TestPayloadPoolNoDuplicates(t *testing.T) {
	defer drainPayloadPool()
	drainPayloadPool()
	b := GetPayload(4096)
	PutPayload(b)
	PutPayload(b)
	x, y := GetPayload(4096), GetPayload(4096)
	if &x[0] == &y[0] {
		t.Error("one buffer put back twice was handed to two takers")
	}
}

// payloadPoolLimit bounds the bytes the pool retains: the sum over the
// classes of what each may keep.
var payloadPoolLimit = func() (n int) {
	for c := range payloadPool {
		n += classKeep(c) << (c + minPayloadShift)
	}
	return n
}()

// payloadPoolBytes is what the pool retains now.
func payloadPoolBytes() (n int) {
	for c := range payloadPool {
		pc := &payloadPool[c]
		pc.mu.Lock()
		n += len(pc.free) << (c + minPayloadShift)
		pc.mu.Unlock()
	}
	return n
}

// drainPayloadPool empties every class, so a test starts from and
// leaves behind an empty pool.
func drainPayloadPool() {
	for c := range payloadPool {
		pc := &payloadPool[c]
		pc.mu.Lock()
		clear(pc.free)
		pc.free = pc.free[:0]
		pc.mu.Unlock()
	}
}
