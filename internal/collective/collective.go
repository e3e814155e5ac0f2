// Package collective implements the collective communication toolbox of
// Section 2 on top of a comm.Endpoint: binomial-tree broadcast and
// reduction, all-reduction, gather/all-gather, exclusive prefix scan,
// barrier, and direct-delivery all-to-all. Broadcast, reduction,
// all-reduction and the scan run in Tcoll(k) = O(beta*k + alpha*log p),
// the bound the checkers' analyses rely on.
//
// All operations are SPMD: every PE must call the same sequence of
// collectives on its own Comm. An internal operation counter derives a
// fresh tag per collective, so consecutive collectives cannot confuse
// each other's messages.
//
// # One tree
//
// Every rooted collective is a sweep of one binomial tree rooted at rank
// 0: rank v's parent is v minus its lowest set bit, its children are
// v|mask for each power of two mask below that bit with v|mask < p.
// Reduce, Gather and the scan's first phase are the child-to-parent
// sweep (sweepUp), Broadcast and the scan's second phase the
// parent-to-child sweep (sweepDown). The subtree of v is the contiguous
// interval [v, v+lowbit(v)) ∩ [0, p) and a node folds its children in
// ascending mask order, so a partial always covers an interval and is
// only ever combined with the interval right above it: a ReduceOp needs
// associativity, never commutativity, and a gather bundle no rank words.
// Every tree edge joins ranks that differ in one bit, for any p
// (TestHypercubeNonPowerOfTwoStaysOnEdges). Barrier is the one unrooted
// schedule: exchange with rank^d when p is a power of two (one-bit edges
// again), dissemination to rank+d mod p otherwise, where rank^d may leave
// [0, p) — p·log p empty messages in log p rounds either way.
//
// # One word channel
//
// Every collective moves its words through one unexported pair,
// sendU64s/recvU64s, over a tag the communicator allocated for that
// operation: little-endian words on Comm.send/Comm.recv, which meter the
// traffic against the communicator. There is no tagged point-to-point
// API beside it, so whatever changes how words reach the wire changes
// it there, once. AllToAllBytes and Barrier use send/recv directly
// because their payloads are not words.
//
// Words are encoded into payloads from comm's payload pool, which the
// transport owns once they are sent, and a received payload goes back
// to the pool as soon as it is decoded, so a warmed collective
// allocates no payloads.
//
// # Per-Comm scratch
//
// A Comm runs one collective at a time, so each keeps the buffers its
// collectives decode into and build in, and reuses them from one call
// to the next: up (a child's words in the upward sweep), down (what a
// parent sends in the downward sweep), bundle (the gather bundle),
// scan (ExclusiveScan's partials) and a2a (AllToAllBytes' slice of
// parts). Two results are scratch, valid until the Comm's next
// collective: Broadcast's words at every rank but 0, and the slice
// AllToAllBytes returns (the parts in it are the caller's). Reduce
// folds into the words it is given. Everything else a collective
// returns — AllReduce, Gather, AllGather, ExclusiveScan and
// AllToAll — is the caller's. One more buffer, Words, is the caller's
// scratch: a vector to build an operation's input in. A communicator
// that is kept and Reset between jobs keeps all of these.
//
// # Tag-space partitioning
//
// One endpoint's 63-bit tag space is carved into disjoint regions so
// several logical communication streams can share the wire without a
// message from one ever matching a receive of another:
//
//	[0, 1<<31)          the root communicator's collective sequence
//	                    (one or more tags per operation, allocated by
//	                    the atomic tag counter)
//	[1<<31, 1<<62)      sub-communicator blocks, handed out by Sub in
//	                    allocation order and returned for reuse by
//	                    Release
//	[1<<62, ...)        control messages (comm.KickTag); never allocated
//
// Sub carves a block out of the root's space; the resulting Comm runs
// its own collective sequence concurrently with the root's (and with
// other siblings'), which is what makes concurrent verification jobs
// on one resident mesh possible. Sub-communicators do not nest: a
// block is all ops region, and Sub on a sub-communicator fails with
// ErrTagSpaceExhausted. Release returns a retired block to the root's
// free list, so a long-lived root can mint sub-communicators
// indefinitely; exhausting the space without releasing reports
// ErrTagSpaceExhausted instead of silently colliding. A holder that
// keeps its sub-communicator for a sequence of users (a service pool's
// job slot) calls Reset between them instead: the block is cleared
// as Release would clear it, but stays with the holder.
//
// Since tags are how PEs match messages, all PEs must call Sub — and
// Release — in the same order relative to one another on the root —
// the usual SPMD contract, extended to communicator lifecycle.
// Tag counters are atomic, so concurrent collectives on *different*
// communicators of one endpoint are safe; a single communicator still
// admits only one collective at a time.
package collective

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/obs"
)

const (
	// subTagBase is where the root communicator's own collective
	// sequence ends and sub-communicator tag blocks begin.
	subTagBase int64 = 1 << 31
	// subTagSpan is the tag-block width of a sub-communicator: room
	// for millions of collective operations, far beyond any job's
	// needs, while permitting billions of sub-communicators.
	subTagSpan int64 = 1 << 24
)

// ErrTagSpaceExhausted is reported by Sub when the root communicator's
// child region is fully allocated with nothing released, or when Sub
// is called on a sub-communicator, which does not nest.
var ErrTagSpaceExhausted = errors.New("collective: sub-communicator tag space exhausted")

// ErrBadBundle is reported by Gather and AllGather when a peer's bundle
// of gathered parts does not decode: a length word that does not fit the
// message, trailing words, or a number of parts other than the width of
// the sender's subtree. The words come off the wire, so they are
// validated, never trusted.
var ErrBadBundle = errors.New("collective: malformed gather bundle")

// childSpace hands out the root communicator's child blocks: fresh
// blocks ascend from the region's start; released blocks are reused
// LIFO. Allocation order is deterministic given the call sequence,
// which is what keeps ranks aligned — every PE performs the same
// Sub/Release sequence on the root, so every PE's allocator is in the
// same state at each call.
type childSpace struct {
	mu    sync.Mutex
	span  int64 // width of each child block
	next  int64 // first never-allocated block
	limit int64 // region end
	free  []int64
}

func (s *childSpace) alloc() (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		base := s.free[n-1]
		s.free = s.free[:n-1]
		return base, true
	}
	if s.next+s.span > s.limit {
		return 0, false
	}
	base := s.next
	s.next += s.span
	return base, true
}

func (s *childSpace) release(base int64) {
	s.mu.Lock()
	s.free = append(s.free, base)
	s.mu.Unlock()
}

// Comm wraps an endpoint with collective operations over its own tag
// block. The root communicator (New) owns the collective region of the
// tag space; Sub derives communicators with disjoint blocks that may
// run concurrently with it. A Comm must not be copied.
type Comm struct {
	mux *comm.Mux

	// base and limit bound this communicator's ops region: the tags its
	// own collective sequence allocates from. On a sub-communicator the
	// region is its whole tag block, which Abort poisons and Release
	// recycles.
	base, limit int64
	// tag is the next unallocated offset within the ops region. Atomic:
	// allocation is safe from any goroutine, although a communicator
	// still admits only one collective at a time.
	tag atomic.Int64
	ops atomic.Int64

	// kids allocates the root's child blocks; nil on sub-communicators.
	kids *childSpace
	// parent is the root this block was carved from; nil at the root.
	// Release returns the block to parent.kids.
	parent   *Comm
	released atomic.Bool

	// bytesSent/msgsSent meter traffic sent through this communicator
	// alone — unlike endpoint metrics, unpolluted by concurrent
	// streams, so a job on a shared mesh can report its own exact cost.
	bytesSent atomic.Int64
	msgsSent  atomic.Int64

	// The scratch of the collectives (see "Per-Comm scratch"): up is
	// sweepUp's receive buffer, down sweepDown's; bundle is the gather
	// bundle, scan ExclusiveScan's partials, a2a AllToAllBytes' parts;
	// words is the caller's (Words).
	up, down, bundle, scan, words []uint64
	a2a                           [][]byte

	// tr, when non-nil, records a collective-kind span per operation
	// and a recv-wait span per blocking receive, attributed to
	// traceJob. Inherited by sub-communicators; nil costs nothing on
	// the hot path (obs.Tracer's disabled contract).
	tr       *obs.Tracer
	traceJob int64
}

// New returns the root collective communicator over ep. All receiving
// on ep is routed through one demultiplexer from here on; the endpoint
// must not be used for direct receives anymore.
func New(ep comm.Endpoint) *Comm {
	return &Comm{
		mux:   comm.NewMux(ep),
		base:  0,
		limit: subTagBase,
		kids:  &childSpace{span: subTagSpan, next: subTagBase, limit: comm.KickTag},
	}
}

// Rank returns this PE's rank, its endpoint's.
func (c *Comm) Rank() int { return c.mux.Endpoint().Rank() }

// Size returns the number of PEs.
func (c *Comm) Size() int { return c.mux.Endpoint().Size() }

// Endpoint exposes the underlying endpoint.
func (c *Comm) Endpoint() comm.Endpoint { return c.mux.Endpoint() }

// SetTracer installs a span tracer (nil disables tracing) and the job
// id its spans are attributed to. Sub-communicators minted afterwards
// inherit both; tag blocks are stamped per span, so one tracer serves
// every communicator over the endpoint. Install before the
// communicator carries traffic — the field is read without
// synchronization by the operation that emits the span.
func (c *Comm) SetTracer(tr *obs.Tracer, job int64) {
	c.tr = tr
	c.traceJob = job
}

// span opens a span on this PE's rank; the zero Active of a
// disabled tracer makes End a no-op.
func (c *Comm) span(kind obs.Kind, name string) obs.Active {
	if c.tr == nil {
		return obs.Active{}
	}
	return c.tr.Start(c.mux.Endpoint().Rank(), c.traceJob, c.base, kind, name)
}

// Sub carves a sub-communicator out of the root communicator's tag
// space: a Comm over the same endpoint whose collectives use a disjoint
// tag block and may therefore be in flight concurrently with the
// root's (and with other subs'). Like any collective, all PEs must call
// Sub — and Release — at the same point of their program relative to
// other Sub/Release calls on the root, so ranks agree on the block.
// The allocation itself is locked and may race with collectives on any
// communicator.
//
// Sub-communicators do not nest: Sub on one fails with
// ErrTagSpaceExhausted. Blocks are a finite resource: a retired
// sub-communicator should be Released so its block is reused; a root
// whose region is exhausted reports ErrTagSpaceExhausted rather than
// wrapping into a sibling's tags.
func (c *Comm) Sub() (*Comm, error) {
	if c.kids == nil {
		return nil, fmt.Errorf("%w: block [%d, %d) belongs to a sub-communicator, and sub-communicators do not nest",
			ErrTagSpaceExhausted, c.base, c.limit)
	}
	base, ok := c.kids.alloc()
	if !ok {
		return nil, fmt.Errorf("%w: no free block of span %d in [%d, %d); Release retired sub-communicators to recycle their blocks",
			ErrTagSpaceExhausted, c.kids.span, c.kids.next, c.kids.limit)
	}
	return &Comm{
		mux:      c.mux,
		base:     base,
		limit:    base + c.kids.span,
		parent:   c,
		tr:       c.tr,
		traceJob: c.traceJob,
	}, nil
}

// Release returns this sub-communicator's tag block to the root for
// reuse by a later Sub and clears any Abort poison on the block. Like
// Sub, Release is part of the root's allocation sequence: every PE
// must call it at the same point relative to the root's other
// Sub/Release calls, and only once the communicator is quiescent on
// every PE (no in-flight collectives, no undelivered messages). A block that may
// still have stragglers on the wire (an aborted job) must NOT be
// released: a recycled tag could then match a dead stream's message.
// Releasing the root or releasing twice is a no-op.
func (c *Comm) Release() {
	if c.parent == nil || !c.released.CompareAndSwap(false, true) {
		return
	}
	c.mux.ClearRange(int(c.base), int(c.limit))
	c.parent.kids.release(c.base)
}

// Reset readies a quiescent sub-communicator for its next user without
// retiring its block: it clears the block on this PE's demultiplexer
// as Release does, restarts the tag sequence and zeroes the byte,
// message and operation counters, so the next collective sequence on
// it runs and meters exactly as on a freshly minted Sub of the same
// block — only the scratch buffers are kept. The quiescence contract is
// Release's: no in-flight collective, no undelivered message, on any
// PE. Unlike Release it leaves the root's allocator alone, so each PE
// may reset on its own. Resetting the root or a released communicator
// is a no-op.
func (c *Comm) Reset() {
	if c.parent == nil || c.released.Load() {
		return
	}
	c.mux.ClearRange(int(c.base), int(c.limit))
	c.tag.Store(0)
	c.ops.Store(0)
	c.bytesSent.Store(0)
	c.msgsSent.Store(0)
}

// Abort poisons this communicator's whole tag block on this PE: every
// current and future receive inside [base, limit) fails with err, and
// the block's queued and straggling messages are dropped. Traffic
// outside the block is untouched, which is what lets one job die on a
// resident mesh without tearing the mesh down. Abort only unblocks
// receivers on this PE's endpoint; a goroutine currently blocked inside
// the endpoint's RecvAny on an idle mesh additionally needs a
// comm.KickTag control message, which the endpoint may send itself.
func (c *Comm) Abort(err error) {
	c.mux.PoisonRange(int(c.base), int(c.limit), err)
}

// Block reports the communicator's tag block [lo, hi), the tags of its
// own collectives. Fault-attribution code uses it to decide whether
// an injected fault's tag belongs to this communicator's traffic.
func (c *Comm) Block() (lo, hi int) {
	return int(c.base), int(c.limit)
}

// Words returns n words of scratch for the caller to build a
// collective's input in — a vector that Reduce then folds in place,
// say. No collective touches it; the next Words call reuses it, so it
// is valid until then. Like the collectives, it is for the one
// goroutine that runs the communicator's operations.
func (c *Comm) Words(n int) []uint64 {
	c.words = slices.Grow(c.words[:0], n)[:n]
	return c.words
}

// BytesSent returns how many payload bytes this communicator has sent
// (this communicator only, not the whole endpoint).
func (c *Comm) BytesSent() int64 { return c.bytesSent.Load() }

// MsgsSent returns how many messages this communicator has sent.
func (c *Comm) MsgsSent() int64 { return c.msgsSent.Load() }

// nextTag allocates the tag for the next collective operation — one
// tag each: within an operation a PE hears from any peer at most once per
// direction. Because every PE executes the same collective sequence,
// counters stay aligned across PEs without communication.
func (c *Comm) nextTag() int {
	t := c.base + c.tag.Add(1) - 1
	if t >= c.limit {
		panic(fmt.Sprintf("collective: tag block [%d, %d) exhausted", c.base, c.limit))
	}
	c.ops.Add(1)
	return int(t)
}

// OpsStarted returns how many collective operations this communicator
// has started (tree primitives count individually: an AllReduce is a
// Reduce plus a Broadcast, so it counts as two). Harnesses compare
// deltas of this counter to quantify how many collective rounds a code
// region cost — e.g. eager versus deferred checker resolution.
func (c *Comm) OpsStarted() int { return int(c.ops.Load()) }

// send transmits through the demultiplexed endpoint and meters the
// traffic against this communicator.
func (c *Comm) send(dst, tag int, payload []byte) error {
	if err := c.mux.Send(dst, tag, payload); err != nil {
		return err
	}
	c.bytesSent.Add(int64(len(payload)))
	c.msgsSent.Add(1)
	return nil
}

// recv receives through the demultiplexer, which routes concurrent
// streams on one endpoint by (src, tag). With a tracer installed the
// blocking wait is a recv-wait span — the gap collectives spend parked
// on the wire.
func (c *Comm) recv(src, tag int) ([]byte, error) {
	sp := c.span(obs.KindRecvWait, "recv")
	buf, err := c.mux.Recv(src, tag)
	sp.End()
	return buf, err
}

// U64sToBytes encodes words little-endian, 8 bytes per word, into a
// payload from comm's pool.
func U64sToBytes(words []uint64) []byte {
	buf := comm.GetPayload(8 * len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	return buf
}

// BytesToU64s decodes a little-endian word payload.
func BytesToU64s(buf []byte) ([]uint64, error) {
	return decodeU64s(make([]uint64, 0, len(buf)/8), buf)
}

// decodeU64s decodes a little-endian word payload into dst's storage,
// growing it only when it is too small.
func decodeU64s(dst []uint64, buf []byte) ([]uint64, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("collective: payload length %d not a multiple of 8", len(buf))
	}
	n := len(buf) / 8
	words := slices.Grow(dst[:0], n)[:n]
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return words, nil
}

func (c *Comm) sendU64s(dst, tag int, words []uint64) error {
	return c.send(dst, tag, U64sToBytes(words))
}

// recvU64s receives words from src into dst's storage, growing it only
// when it is too small, and hands the payload back to the pool.
func (c *Comm) recvU64s(dst []uint64, src, tag int) ([]uint64, error) {
	buf, err := c.recv(src, tag)
	if err != nil {
		return nil, err
	}
	words, err := decodeU64s(dst, buf)
	comm.PutPayload(buf)
	return words, err
}

// ReduceOp combines src into dst element-wise. Implementations must be
// associative over the element encoding, and must not keep src: it is
// the communicator's receive buffer, overwritten by the next child.
// Commutativity is not required by Reduce, AllReduce or ExclusiveScan:
// the tree only ever combines rank-contiguous partial results in
// ascending rank order, so dst always covers the ranks right below src's
// (see "One tree"). Order-sensitive combines (e.g. the sort checker's
// boundary-interval merge) rely on this contract.
type ReduceOp func(dst, src []uint64)

// OpSum adds with wraparound (the natural operation in Z/2^64Z).
func OpSum(dst, src []uint64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// sweepUp is this PE's part of the child-to-parent sweep. acc starts as
// the PE's own contribution; the words of each child rank|mask, which
// speaks for ranks [rank|mask, rank|mask+mask) ∩ [0, p), are folded in
// narrowest subtree first, and the result goes to the parent. It returns
// the final acc: the whole tree's at rank 0, a subtree's elsewhere.
//
// A child's words are decoded into c.up, so fold must consume or copy
// got before it returns; the buffer is reused by the next child and the
// next collective, which is safe because a Comm runs one at a time.
func (c *Comm) sweepUp(tag int, acc []uint64, fold func(mask int, acc, got []uint64) ([]uint64, error)) ([]uint64, error) {
	p, rank := c.Size(), c.Rank()
	for mask := 1; mask < p; mask <<= 1 {
		if rank&mask != 0 {
			return acc, c.sendU64s(rank-mask, tag, acc)
		}
		if child := rank | mask; child < p {
			var err error
			if c.up, err = c.recvU64s(c.up, child, tag); err != nil {
				return nil, err
			}
			if acc, err = fold(mask, acc, c.up); err != nil {
				return nil, err
			}
		}
	}
	return acc, nil
}

// sweepDown is this PE's part of the parent-to-child sweep: every PE
// but rank 0 first replaces words by what its parent sends (want words,
// when want >= 0), decoded into c.down, then sends forChild(mask, words)
// to each child rank|mask, widest subtree first. It returns the words
// this PE ends up holding: c.down everywhere but at rank 0.
func (c *Comm) sweepDown(tag int, words []uint64, want int, forChild func(mask int, words []uint64) []uint64) ([]uint64, error) {
	p, rank := c.Size(), c.Rank()
	mask := 1
	for mask < p && rank&mask == 0 {
		mask <<= 1
	}
	if mask < p { // rank != 0, and mask is its lowest set bit
		var err error
		if c.down, err = c.recvU64s(c.down, rank-mask, tag); err != nil {
			return nil, err
		}
		if want >= 0 && len(c.down) != want {
			return nil, fmt.Errorf("collective: parent %d sent %d words, want %d", rank-mask, len(c.down), want)
		}
		words = c.down
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := rank | mask; child < p {
			if err := c.sendU64s(child, tag, forChild(mask, words)); err != nil {
				return nil, err
			}
		}
	}
	return words, nil
}

// Broadcast distributes rank 0's words to all PEs along the tree:
// O(beta*k + alpha*log p). Every PE returns the broadcast data; the
// argument is ignored at every other rank, where the result is the
// Comm's scratch, valid until its next collective.
func (c *Comm) Broadcast(words []uint64) ([]uint64, error) {
	sp := c.span(obs.KindCollective, "broadcast")
	defer sp.End()
	return c.sweepDown(c.nextTag(), words, -1, func(_ int, words []uint64) []uint64 { return words })
}

// Reduce combines all PEs' words with op along the tree, folding them
// into words, which it returns: the result at rank 0, the PE's
// subtree's partial everywhere else. O(beta*k + alpha*log p).
func (c *Comm) Reduce(words []uint64, op ReduceOp) ([]uint64, error) {
	sp := c.span(obs.KindCollective, "reduce")
	defer sp.End()
	return c.sweepUp(c.nextTag(), words, func(_ int, acc, got []uint64) ([]uint64, error) {
		if len(got) != len(acc) {
			return nil, fmt.Errorf("collective: reduce length mismatch: %d vs %d", len(got), len(acc))
		}
		op(acc, got)
		return acc, nil
	})
}

// AllReduce combines all PEs' words and distributes the result to every
// PE (reduce to 0, then broadcast). words is not modified.
func (c *Comm) AllReduce(words []uint64, op ReduceOp) ([]uint64, error) {
	red, err := c.Reduce(slices.Clone(words), op)
	if err != nil {
		return nil, err
	}
	got, err := c.Broadcast(red)
	if err != nil {
		return nil, err
	}
	return append(red[:0], got...), nil
}

// Gather collects every PE's words at rank 0, returned as a slice
// indexed by rank (nil at every other PE). Payload lengths may differ
// across PEs. One sweep up the tree, so no PE handles more than
// O(log p) messages.
func (c *Comm) Gather(words []uint64) ([][]uint64, error) {
	flat, err := c.gather(words)
	if err != nil || c.Rank() != 0 {
		return nil, err
	}
	return decodeBundle(flat, c.Size())
}

// AllGather collects every PE's words at every PE: a gather, then a
// broadcast of rank 0's bundle.
func (c *Comm) AllGather(words []uint64) ([][]uint64, error) {
	flat, err := c.gather(words)
	if err != nil {
		return nil, err
	}
	if flat, err = c.Broadcast(flat); err != nil {
		return nil, err
	}
	return decodeBundle(flat, c.Size())
}

// gather sweeps the PEs' words up the tree as bundles: the (len, words)
// entries of the ranks a subtree covers, in rank order. Subtrees are
// contiguous and arrive in ascending order, so appending keeps a bundle
// sorted without rank words; what a child sends is checked against the
// width of its subtree before it is passed on. The bundle is built in
// c.bundle.
func (c *Comm) gather(words []uint64) ([]uint64, error) {
	sp := c.span(obs.KindCollective, "gather")
	defer sp.End()
	p, rank := c.Size(), c.Rank()
	flat, err := c.sweepUp(c.nextTag(), appendPart(c.bundle[:0], words), func(mask int, acc, got []uint64) ([]uint64, error) {
		if err := checkBundle(got, min(mask, p-(rank|mask))); err != nil {
			return nil, err
		}
		return append(acc, got...), nil
	})
	if err != nil {
		return nil, err
	}
	c.bundle = flat
	return flat, nil
}

// appendPart appends one bundle entry: the part's length, then its words.
func appendPart(bundle, part []uint64) []uint64 {
	return append(append(bundle, uint64(len(part))), part...)
}

// checkBundle walks a bundle's length words without keeping its parts.
// Every length word is validated before it is used; a part that
// overruns the bundle, or a number of parts other than want, is
// ErrBadBundle.
func checkBundle(flat []uint64, want int) error {
	parts := 0
	for len(flat) > 0 {
		n, rest := flat[0], flat[1:]
		if n > uint64(len(rest)) {
			return fmt.Errorf("%w: part %d of %d words in %d remaining", ErrBadBundle, parts, n, len(rest))
		}
		flat = rest[n:]
		parts++
	}
	if parts != want {
		return fmt.Errorf("%w: %d parts, want %d", ErrBadBundle, parts, want)
	}
	return nil
}

// decodeBundle splits a bundle that checkBundle accepts into its parts,
// copied out of flat into one slice the caller owns.
func decodeBundle(flat []uint64, want int) ([][]uint64, error) {
	if err := checkBundle(flat, want); err != nil {
		return nil, err
	}
	own := make([]uint64, len(flat)-want)
	parts := make([][]uint64, want)
	for i := range parts {
		n := copy(own, flat[1:1+flat[0]])
		parts[i] = own[:n:n]
		own, flat = own[n:], flat[1+n:]
	}
	return parts, nil
}

// ExclusiveScan computes the exclusive prefix combination of words
// across ranks and the combination over all of them: PE i receives
// prefix = op(words_0, ..., words_{i-1}) — PE 0 identity, which must be
// op's identity element — and every PE total. One sweep up the tree and
// one down, 2(p-1) messages in 2·log p hops: going up a PE keeps the
// partial it held before each child was folded in; going down it hands
// child rank|mask its own prefix extended by that partial — exactly the
// ranks between them — along with the total.
func (c *Comm) ExclusiveScan(words []uint64, op ReduceOp, identity []uint64) (prefix, total []uint64, err error) {
	sp := c.span(obs.KindCollective, "scan")
	defer sp.End()
	tag, k := c.nextTag(), len(words)
	if len(identity) != k {
		return nil, nil, fmt.Errorf("collective: scan identity has %d words, input %d", len(identity), k)
	}
	// c.scan holds the accumulator, then left[i] for every level i: the
	// partial over ranks [rank, rank+1<<i), what this PE held before
	// child rank|1<<i was folded in; then the message to a child.
	levels := bits.Len(uint(c.Size()))
	c.scan = slices.Grow(c.scan[:0], (levels+3)*k)[:(levels+3)*k]
	acc, left, child := c.scan[:k], c.scan[k:(levels+1)*k], c.scan[(levels+1)*k:]
	copy(acc, words)
	acc, err = c.sweepUp(tag, acc, func(mask int, acc, got []uint64) ([]uint64, error) {
		if len(got) != k {
			return nil, fmt.Errorf("collective: scan length mismatch: %d vs %d", len(got), k)
		}
		i := bits.TrailingZeros(uint(mask))
		copy(left[i*k:(i+1)*k], acc)
		op(acc, got)
		return acc, nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Downward a message is prefix then total; rank 0 starts it.
	down := make([]uint64, 2*k)
	if c.Rank() == 0 {
		copy(down, identity)
		copy(down[k:], acc)
	}
	got, err := c.sweepDown(tag, down, 2*k, func(mask int, down []uint64) []uint64 {
		i := bits.TrailingZeros(uint(mask))
		copy(child, down)
		op(child[:k], left[i*k:(i+1)*k])
		return child
	})
	if err != nil {
		return nil, nil, err
	}
	copy(down, got)
	return down[:k:k], down[k:], nil
}

// Barrier blocks until all PEs have entered it: log p rounds of empty
// messages, to rank^d when p is a power of two and by dissemination to
// rank+d mod p otherwise (see "One tree"). O(alpha*log p).
func (c *Comm) Barrier() error {
	sp := c.span(obs.KindCollective, "barrier")
	defer sp.End()
	tag := c.nextTag()
	p, rank := c.Size(), c.Rank()
	for d := 1; d < p; d <<= 1 {
		dst, src := (rank+d)%p, (rank-d+p)%p
		if p&(p-1) == 0 {
			dst, src = rank^d, rank^d
		}
		if err := c.send(dst, tag, nil); err != nil {
			return err
		}
		if _, err := c.recv(src, tag); err != nil {
			return err
		}
	}
	return nil
}

// AllToAllBytes sends parts[j] to PE j and returns the parts received,
// indexed by source. Direct delivery with an offset schedule:
// O(beta*k + alpha*p), matching Section 2's Tall-to-all. Ownership
// follows Endpoint.Send: the caller gives up every part it passes in
// and owns every part returned (its own part comes back as it went in),
// and may hand each back to comm's pool once it has read it. The
// returned slice itself is the Comm's scratch, valid until its next
// AllToAllBytes. A non-nil from of p entries makes the exchange sparse:
// an empty part is not sent, and src's part is received only where
// from[src] is set, which must hold exactly when that part is non-empty
// (the others come back nil).
func (c *Comm) AllToAllBytes(parts [][]byte, from []bool) ([][]byte, error) {
	sp := c.span(obs.KindCollective, "alltoall")
	defer sp.End()
	tag := c.nextTag()
	p, rank := c.Size(), c.Rank()
	if len(parts) != p || from != nil && len(from) != p {
		return nil, fmt.Errorf("collective: AllToAll over %d PEs got %d parts and a %d-entry pattern", p, len(parts), len(from))
	}
	c.a2a = slices.Grow(c.a2a[:0], p)[:p]
	out := c.a2a
	clear(out)
	out[rank] = parts[rank]
	for offset := 1; offset < p; offset++ {
		dst, src := (rank+offset)%p, (rank-offset+p)%p
		if from == nil || len(parts[dst]) > 0 {
			if err := c.send(dst, tag, parts[dst]); err != nil {
				return nil, err
			}
		}
		if from != nil && !from[src] {
			continue
		}
		var err error
		if out[src], err = c.recv(src, tag); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AllToAll is AllToAllBytes over word payloads.
func (c *Comm) AllToAll(parts [][]uint64) ([][]uint64, error) {
	enc := make([][]byte, len(parts))
	for i, w := range parts {
		enc[i] = U64sToBytes(w)
	}
	got, err := c.AllToAllBytes(enc, nil)
	if err != nil {
		return nil, err
	}
	out := make([][]uint64, len(got))
	for i, b := range got {
		out[i], err = BytesToU64s(b)
		if err != nil {
			return nil, err
		}
		comm.PutPayload(b)
	}
	return out, nil
}
