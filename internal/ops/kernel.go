package ops

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
)

// pairBytes is the wire size of one pair: key then value, little-endian.
const pairBytes = 16

// ErrBadPairPayload reports a received pair payload whose length is not
// a whole number of pairs. The bytes are a peer's, so they are rejected,
// never truncated.
var ErrBadPairPayload = errors.New("pair payload length is not a multiple of 16 bytes")

// kernel is the scratch of one key-partitioned operation call: the
// combine table, the partition bookkeeping and the payload buffers of
// the all-to-all. Kernels are recycled through kernelPool, so a warmed
// call allocates nothing here; every slice is resliced to the size of
// the call at hand, so a small call after a big one costs what a small
// call costs.
type kernel struct {
	// slots is the open-addressing index over pairs, linear probing on
	// a power-of-two table: 0 marks an empty slot, s > 0 refers to
	// pairs[s-1]. Occupancy lives here, so every key is legal.
	slots []uint32
	shift uint
	// pairs holds the distinct keys in first-seen order with their
	// folded values.
	pairs []data.Pair
	// tmp is the ping-pong buffer of the output radix sort.
	tmp []data.Pair
	// dest[i] is the partition PE of the i-th pair being exchanged.
	dest []int32
	// offs[d] is the write offset into parts[d].
	offs  []int
	parts [][]byte
	// bufs are payload buffers kept from earlier receives. A buffer
	// handed to the all-to-all belongs to the transport, and then to
	// whoever receives it; what this PE receives it keeps here.
	bufs [][]byte
}

var kernelPool = sync.Pool{New: func() any { return new(kernel) }}

// tableSeed keys the table's hash for the life of the process, so keys
// a peer chose cannot be aimed at one probe sequence. Results do not
// depend on it: pairs keep first-seen order and leave sorted by key.
var tableSeed = rand.Uint64()

func getKernel() *kernel { return kernelPool.Get().(*kernel) }

func (k *kernel) release() { kernelPool.Put(k) }

// grow returns s with length n, reallocating only when its capacity is
// too small. The contents are unspecified.
func grow[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// reset empties the table and sizes it for up to n insertions: the next
// power of two >= 2n slots, so the load factor stays at most one half.
func (k *kernel) reset(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("ops: %d pairs in one PE's share exceed the combine table's limit of %d", n, math.MaxInt32)
	}
	logSize := bits.Len(uint(2*max(n, 1) - 1))
	k.slots = grow(k.slots, 1<<logSize)
	clear(k.slots)
	k.shift = uint(64 - logSize)
	k.pairs = grow(k.pairs, n)[:0]
	return nil
}

// fold adds ps to the table, combining values of equal keys with fn in
// the order they appear.
func (k *kernel) fold(ps []data.Pair, fn ReduceFn) {
	slots, pairs, shift := k.slots, k.pairs, k.shift
	mask := uint32(len(slots) - 1)
	for _, p := range ps {
		i := uint32(hashing.Mix64(p.Key^tableSeed) >> shift)
		for {
			s := slots[i&mask]
			if s == 0 {
				pairs = append(pairs, p)
				slots[i&mask] = uint32(len(pairs))
				break
			}
			if q := &pairs[s-1]; q.Key == p.Key {
				q.Value = fn(q.Value, p.Value)
				break
			}
			i++
		}
	}
	k.pairs = pairs
}

// foldPayload is fold over a received payload, decoded a block at a
// time so the table has one probing loop.
func (k *kernel) foldPayload(b []byte, fn ReduceFn) {
	var block [256]data.Pair
	for len(b) > 0 {
		n := min(len(b), len(block)*pairBytes)
		k.fold(appendPairs(block[:0], b[:n]), fn)
		b = b[n:]
	}
}

// appendPairs decodes a payload of whole pairs onto dst.
func appendPairs(dst []data.Pair, b []byte) []data.Pair {
	for ; len(b) >= pairBytes; b = b[pairBytes:] {
		dst = append(dst, data.Pair{
			Key:   binary.LittleEndian.Uint64(b),
			Value: binary.LittleEndian.Uint64(b[8:]),
		})
	}
	return dst
}

// checkPayload rejects a payload from PE src that is not whole pairs.
func checkPayload(src int, b []byte) error {
	if len(b)%pairBytes != 0 {
		return fmt.Errorf("ops: %d bytes from PE %d: %w", len(b), src, ErrBadPairPayload)
	}
	return nil
}

// exchange routes each pair of ps to its partition PE with one
// all-to-all and returns the payloads received, indexed by source and
// checked to be whole pairs, with the number of pairs in them. One pass computes every pair's PE and
// counts the destinations; a second writes the pairs straight into
// exact-size payloads, which the transport owns once sent. The caller
// hands the received payloads back through recycle when it has read
// them.
func (k *kernel) exchange(w *dist.Worker, pt Partitioner, ps []data.Pair) (got [][]byte, pairs int, err error) {
	p := w.Size()
	k.dest = grow(k.dest, len(ps))
	k.offs = grow(k.offs, p)
	k.parts = grow(k.parts, p)
	if len(k.bufs) < p {
		k.bufs = append(k.bufs, make([][]byte, p-len(k.bufs))...)
	}
	clear(k.offs)
	for i, pr := range ps {
		d := pt.PE(pr.Key)
		k.dest[i] = int32(d)
		k.offs[d]++
	}
	for d, n := range k.offs {
		size := n * pairBytes
		buf := k.bufs[d]
		k.bufs[d] = nil
		if cap(buf) < size {
			// Headroom, so shares that vary a little from call to call
			// keep fitting the buffers in circulation.
			buf = make([]byte, size, size+size/8)
		}
		k.parts[d] = buf[:size]
		k.offs[d] = 0
	}
	for i, pr := range ps {
		d := k.dest[i]
		b := k.parts[d][k.offs[d]:]
		binary.LittleEndian.PutUint64(b, pr.Key)
		binary.LittleEndian.PutUint64(b[8:], pr.Value)
		k.offs[d] += pairBytes
	}
	got, err = w.Coll.AllToAllBytes(k.parts)
	clear(k.parts)
	if err != nil {
		return nil, 0, err
	}
	for src, b := range got {
		if err := checkPayload(src, b); err != nil {
			return nil, 0, err
		}
		pairs += len(b) / pairBytes
	}
	return got, pairs, nil
}

// recycle keeps received payloads, which belong to the receiver, as
// the buffers of a later exchange.
func (k *kernel) recycle(got [][]byte) {
	copy(k.bufs, got)
}

// exchangePairsByKey routes each pair to its partition PE and returns
// the pairs received, concatenated in source order, in a slice the
// caller owns.
func exchangePairsByKey(w *dist.Worker, pt Partitioner, ps []data.Pair) ([]data.Pair, error) {
	k := getKernel()
	defer k.release()
	got, n, err := k.exchange(w, pt, ps)
	if err != nil {
		return nil, err
	}
	out := make([]data.Pair, 0, n)
	for _, b := range got {
		out = appendPairs(out, b)
	}
	k.recycle(got)
	return out, nil
}
