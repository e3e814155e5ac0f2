package comm

import (
	"math/bits"
	"sync"
)

// The payload pool: one process-wide free list of byte buffers per
// power-of-two size class, from 64 bytes to 1 MiB. A payload is taken
// from it where it is encoded and goes back where it has been read:
// the TCP endpoint returns what it sends once the frame is written and
// takes what it receives, and the word and all-to-all codecs above it
// take what they send and return what they receive. Under Endpoint's
// ownership rule a buffer has one owner at a time, so it can travel
// from one PE's encoder to another's decoder and back into the pool
// without a copy, and a warmed message path allocates no payloads.
//
// The pool is bounded: a class keeps at most payloadClassBytes of
// buffers and never more than payloadClassCount of them, so the pool
// retains about 40 MiB at most, however many were returned.
const (
	minPayloadShift   = 6  // 64 B, the smallest class
	maxPayloadShift   = 20 // 1 MiB, the largest class
	payloadClassBytes = 8 << 20
	payloadClassCount = 64
)

type payloadClass struct {
	mu   sync.Mutex
	free [][]byte // full-capacity buffers of the class size
}

var payloadPool [maxPayloadShift - minPayloadShift + 1]payloadClass

// classKeep is how many buffers class c keeps at most.
func classKeep(c int) int {
	return min(payloadClassCount, payloadClassBytes>>(c+minPayloadShift))
}

// GetPayload returns a buffer of length n, nil when n is 0. Its
// contents are unspecified: the caller overwrites all of it. A length
// above the largest class is allocated and not pooled.
func GetPayload(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := bits.Len(uint(n-1)) - minPayloadShift
	if c >= len(payloadPool) {
		return make([]byte, n)
	}
	c = max(c, 0)
	pc := &payloadPool[c]
	pc.mu.Lock()
	if k := len(pc.free); k > 0 {
		b := pc.free[k-1]
		pc.free[k-1] = nil
		pc.free = pc.free[:k-1]
		pc.mu.Unlock()
		return b[:n]
	}
	pc.mu.Unlock()
	return make([]byte, n, 1<<(c+minPayloadShift))
}

// PutPayload hands b back to the pool; the caller must not touch it
// afterwards. A buffer whose capacity is not a class size — a
// subslice, a literal, an oversized payload — is left to the collector,
// as is one beyond what its class keeps. A buffer the pool already
// holds is not added twice, so a caller that sends one payload twice,
// against the ownership rule, cannot make the pool hand it to two
// later takers at once.
func PutPayload(b []byte) {
	n := cap(b)
	if n < 1<<minPayloadShift || n > 1<<maxPayloadShift || n&(n-1) != 0 {
		return
	}
	b = b[:n]
	c := bits.TrailingZeros(uint(n)) - minPayloadShift
	pc := &payloadPool[c]
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if len(pc.free) >= classKeep(c) {
		return
	}
	for _, f := range pc.free {
		if &f[0] == &b[0] {
			return
		}
	}
	if pc.free == nil {
		pc.free = make([][]byte, 0, classKeep(c))
	}
	pc.free = append(pc.free, b)
}
