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

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
)

// Wire sizes: a pair is key then value, a sequence element one word,
// all little-endian.
const (
	pairBytes = 16
	wordBytes = 8
)

// ErrBadPairPayload and ErrBadSeqPayload report a received payload
// whose length is not a whole number of pairs or of words. The bytes
// are a peer's, so they are rejected, never truncated.
var (
	ErrBadPairPayload = errors.New("pair payload length is not a multiple of 16 bytes")
	ErrBadSeqPayload  = errors.New("sequence payload length is not a multiple of 8 bytes")
)

// kernel is the scratch of one operation call: the combine table of
// the key-partitioned operations, the sort scratch of the sequence
// operations, and the partition bookkeeping of the all-to-all they
// share. Kernels are recycled through kernelPool, so a warmed call
// allocates nothing here; every slice is resliced to the size of the
// call at hand, so a small call after a big one costs what a small call
// costs. The payloads themselves come from comm's payload pool.
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
	// words holds the decoded elements a sequence operation received,
	// wtmp is the ping-pong buffer of their radix sort.
	words, wtmp []uint64
	// dest[i] is the destination PE of the i-th element being exchanged.
	dest []int32
	// offs[d] counts the elements for PE d while an exchange is being
	// sized, and is the write offset into parts[d] while it is filled.
	offs  []int
	parts [][]byte
	from  []bool // a sparse exchange's receive pattern (Comm.AllToAllBytes)
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

// appendWords decodes a payload of whole words onto dst.
func appendWords(dst []uint64, b []byte) []uint64 {
	for ; len(b) >= wordBytes; b = b[wordBytes:] {
		dst = append(dst, binary.LittleEndian.Uint64(b))
	}
	return dst
}

// putWords encodes xs at the front of b, which must have room.
func putWords(b []byte, xs []uint64) {
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[i*wordBytes:], x)
	}
}

// checkPayload rejects a payload from PE src that is not whole
// elements of unit bytes, with the sentinel bad of its kind.
func checkPayload(src int, b []byte, unit int, bad error) error {
	if len(b)%unit != 0 {
		return fmt.Errorf("ops: %d bytes from PE %d: %w", len(b), src, bad)
	}
	return nil
}

// An exchange is four steps on the kernel: stage, fill parts — either
// part by part, or by counting elements per destination into offs,
// open, and writing each element at its destination's offset — then
// swap, and putPayloads once the received payloads have been read.

// stage sizes the partition bookkeeping for p destinations and zeroes
// the per-destination counts.
func (k *kernel) stage(p int) {
	// Both passes of an exchange bump offs once per element, so it is
	// given at least two cache lines, which the allocator aligns: on a
	// line shared with another PE's kernel the counts would bounce
	// between cores.
	k.offs = grow(k.offs, max(p, 16))[:p]
	clear(k.offs)
	k.parts = grow(k.parts, p)
}

// part makes the payload for PE d a buffer of size bytes from comm's
// payload pool, and returns it.
func (k *kernel) part(d, size int) []byte {
	k.parts[d] = comm.GetPayload(size)
	return k.parts[d]
}

// open turns the element counts in offs into exact-size payloads of
// unit bytes an element, and offs into their write offsets.
func (k *kernel) open(unit int) {
	for d, n := range k.offs {
		k.part(d, n*unit)
		k.offs[d] = 0
	}
}

// swap sends the payloads, which the transport owns from here, with one
// all-to-all and returns the payloads received, indexed by source and
// checked to be whole elements of unit bytes, with the number of
// elements in them. A nil from is the dense exchange.
func (k *kernel) swap(w *dist.Worker, from []bool, unit int, bad error) (got [][]byte, elems int, err error) {
	got, err = w.Coll.AllToAllBytes(k.parts, from)
	clear(k.parts)
	if err != nil {
		return nil, 0, err
	}
	for src, b := range got {
		if err := checkPayload(src, b, unit, bad); err != nil {
			return nil, 0, err
		}
		elems += len(b) / unit
	}
	return got, elems, nil
}

// putPayloads hands received payloads, which belong to the receiver,
// back to comm's pool once they have been read.
func putPayloads(got [][]byte) {
	for _, b := range got {
		comm.PutPayload(b)
	}
}

// exchange routes each pair of ps to its partition PE: one pass
// computes every pair's PE and counts the destinations, a second
// writes the pairs straight into the payloads.
func (k *kernel) exchange(w *dist.Worker, pt Partitioner, ps []data.Pair) (got [][]byte, pairs int, err error) {
	k.stage(w.Size())
	k.dest = grow(k.dest, len(ps))
	for i, pr := range ps {
		d := pt.PE(pr.Key)
		k.dest[i] = int32(d)
		k.offs[d]++
	}
	k.open(pairBytes)
	for i, pr := range ps {
		d := k.dest[i]
		b := k.parts[d][k.offs[d]:]
		binary.LittleEndian.PutUint64(b, pr.Key)
		binary.LittleEndian.PutUint64(b[8:], pr.Value)
		k.offs[d] += pairBytes
	}
	return k.swap(w, nil, pairBytes, ErrBadPairPayload)
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
	putPayloads(got)
	return out, nil
}
