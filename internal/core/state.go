package core

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/collective"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/obs"
)

// CheckState is the local half of a two-phase checker: the result of a
// checker's local accumulation phase, holding everything the collective
// resolution phase needs. Building a state performs all of the
// checker's O(n/p) local work — hashing, table accumulation,
// deterministic scans — and communicates nothing; Resolve then performs
// the collective rounds for any number of pending states at once.
//
// A state contributes three things to the batched resolution:
//
//   - Words: a small local vector (tables, fingerprints, boundary
//     digests) to be combined across PEs;
//   - Combine: the associative combine for that vector. Resolve
//     guarantees rank order — dst always covers lower ranks than src —
//     so combines may be order-sensitive (see collective.ReduceOp);
//   - Verdict: the accept predicate evaluated on the globally combined
//     vector, plus LocalOK, a deterministic local predicate that every
//     PE must pass (it rides along as an AND-reduced flag word).
//
// Every checker's state is one implementation: its words are a run of
// segments, each one of the five sketches the package documentation
// lists, and Combine and Verdict walk the segments. States are
// single-use and not safe for concurrent use.
type CheckState interface {
	// Stage names the pipeline stage this state verifies, for failure
	// attribution ("which operation was wrong?").
	Stage() string
	// Words returns the local contribution to the batched reduction.
	// The length must be identical on every PE.
	Words() []uint64
	// Combine folds src (covering higher ranks) into dst (lower ranks).
	Combine(dst, src []uint64)
	// Verdict evaluates the accept predicate on the combined vector.
	// It must be deterministic, so all PEs reach the same verdict.
	Verdict(combined []uint64) bool
	// LocalOK reports this PE's deterministic local predicate.
	LocalOK() bool
}

// Resolve performs the collective phase for any number of checker
// states in one batched round: every state's words plus one local-OK
// flag word per state are concatenated into a single vector and
// reduced to PE 0 with a composite combine; PE 0 evaluates each state's
// verdict on its segment and broadcasts the k verdict flags — one word
// per state, not the combined tables — back down the tree. The verdict
// slice is aligned with states and identical on every PE.
//
// Cost: one reduction of sum(len(Words_i)) + k words up the tree plus a
// k-word verdict broadcast — O(beta*(sum(words)+k) + alpha*log p)
// regardless of how many checkers are pending, versus one round *per
// checker* when resolving eagerly. This is what makes deferred
// (batched) verification cheaper: k chained operations resolve their
// checkers in ~1 collective round instead of k serialized ones.
//
// All PEs must call Resolve at the same point of their program with
// states for the same stages in the same order.
func Resolve(w *dist.Worker, states ...CheckState) ([]bool, error) {
	span := w.Span(obs.KindResolve, "resolve")
	defer span.End()
	return ResolveOn(w.Coll, states...)
}

// ErrCorruptVerdict reports that a flag word of the resolve round — a
// local-OK word in the reduction or a verdict in the broadcast — was
// neither the accept token nor the reject word: a message of the round
// was damaged in flight. It is an infrastructure failure, not a
// rejection: no verdict was reached.
var ErrCorruptVerdict = errors.New("core: corrupt verdict flag in the resolve round")

// verdictDomain separates the accept tokens from every other Mix64
// stream in the package.
const verdictDomain = 0x7665726469637421 // "verdict!"

// acceptToken is the flag word that means accept for state i of the
// resolve round that starts when the communicator has started ops
// collectives — a value every rank derives alone. Reject is 0. The
// token has at least two bits set, so no single flipped bit turns a
// flag into the other verdict: a flipped accept is neither word, and
// a flipped reject ANDed with tokens, or broadcast, is neither either.
func acceptToken(ops, i int) uint64 {
	t := hashing.Mix64(verdictDomain ^ uint64(ops)<<32 ^ uint64(i))
	if bits.OnesCount64(t) < 2 {
		return verdictDomain
	}
	return t
}

// ResolveOn is Resolve over an explicit communicator, e.g. a job's
// tag-safe sub-communicator (collective.Comm.Sub) on a shared
// endpoint. The vector is built in the communicator's scratch
// (collective.Comm.Words).
//
// A flag is acceptToken(ops, i) for accept and 0 for reject, both in
// the reduction, where they combine by AND, and in the broadcast. Any
// other value on any rank is ErrCorruptVerdict there. So a bit flipped
// in flight can turn a verdict into an error on some ranks, but never
// a rejection into an acceptance: ranks agree or error.
func ResolveOn(c *collective.Comm, states ...CheckState) ([]bool, error) {
	if len(states) == 0 {
		return nil, nil
	}
	ops := c.OpsStarted()
	// One vector at its exact size: every state's words, then a local-OK
	// flag word per state. Reduce folds into it, and at rank 0 the flag
	// words then become the verdict flags that are broadcast.
	n := len(states)
	for _, st := range states {
		n += len(st.Words())
	}
	vec := c.Words(n)[:0]
	for _, st := range states {
		vec = append(vec, st.Words()...)
	}
	flagBase := len(vec)
	for i, st := range states {
		flag := uint64(0)
		if st.LocalOK() {
			flag = acceptToken(ops, i)
		}
		vec = append(vec, flag)
	}
	op := func(dst, src []uint64) {
		off := 0
		for _, st := range states {
			end := off + len(st.Words())
			st.Combine(dst[off:end], src[off:end])
			off = end
		}
		for i := flagBase; i < len(dst); i++ {
			dst[i] &= src[i]
		}
	}
	if _, err := c.Reduce(vec, op); err != nil {
		return nil, err
	}
	flags := vec[flagBase:]
	if c.Rank() == 0 {
		off := 0
		for i, st := range states {
			end := off + len(st.Words())
			// A corrupt flag stays as it is, so every rank reports it.
			if flags[i] == acceptToken(ops, i) && !st.Verdict(vec[off:end]) {
				flags[i] = 0
			}
			off = end
		}
	}
	flags, err := c.Broadcast(flags)
	if err != nil {
		return nil, err
	}
	if len(flags) != len(states) {
		return nil, fmt.Errorf("core: verdict broadcast of %d flags for %d states", len(flags), len(states))
	}
	verdicts := make([]bool, len(states))
	for i, f := range flags {
		switch f {
		case acceptToken(ops, i):
			verdicts[i] = true
		case 0:
		default:
			return nil, fmt.Errorf("%w: state %d (%s) on rank %d", ErrCorruptVerdict, i, states[i].Stage(), c.Rank())
		}
	}
	return verdicts, nil
}

// segKind names one of the five sketches the checkers are built from.
// Each fixes how two PEs' words combine and what the combined words of
// a correct result satisfy.
type segKind uint8

const (
	// segTable is one sum-checker table (Algorithm 1): a row of d
	// counters mod r per iteration, packed at m+1 bits a counter. Rows
	// add mod their r; a correct result leaves every counter zero.
	segTable segKind = iota
	// segInterval is the 4-word sortedness interval of the sort checker
	// (Theorem 7): merged in rank order, a sorted result keeps its
	// sorted-so-far flag.
	segInterval
	// segField is the zip checker's polynomial values in F_(2^61-1)
	// (Theorem 11), a word an iteration. They add in the field; a
	// correct result leaves all zero.
	segField
	// segReplica is the replica digest pair (Section 2, result
	// integrity), combined by min on one word and max on the other: all
	// replicas agree iff the two are equal.
	segReplica
	// segProduct is the permutation checker's product (Lemma 5), a word
	// an iteration laid out as productSlot. Words combine by multiplying
	// ratios and adding counts; a correct result leaves every word 1.
	segProduct
)

// segment is one sketch in a state's words: its kind and its lanes,
// each width bits wide. Table lanes are packed back to back,
// iteration-major, into ceil(lanes*width/64) words when the state seals
// (newState); the other sketches are whole words (width 64).
type segment struct {
	lanes uint32
	kind  segKind
	width uint8
}

// words is the segment's length in a sealed state's words.
func (sg segment) words() int {
	return int((uint64(sg.lanes)*uint64(sg.width) + 63) / 64)
}

// Word layouts of the fixed-size segments. The sortedness interval is
// a rank-interval summary — has-elements flag, first element, last
// element, sorted-so-far flag — whose rank-ordered merge verifies
// global sortedness: each PE's share must be locally sorted and its
// last element must not exceed the first element of the next non-empty
// share. The replica digest is the keyed digest twice, one word
// combined by min and one by max.
const (
	sortHas = iota
	sortFirst
	sortLast
	sortOK
	sortWords
)

const (
	replMin = iota
	replMax
	replWords
)

// tableSeg is c's table: TableWords counters, each a residue below
// r <= 2^(m+1), so m+1 bits hold one exactly — TableBits in all.
func tableSeg(c *SumChecker) segment {
	return segment{kind: segTable, lanes: uint32(c.TableWords()), width: uint8(c.cfg.RHatLog + 1)}
}

// wordSeg is a segment of n whole words.
func wordSeg(kind segKind, n int) segment {
	return segment{kind: kind, lanes: uint32(n), width: 64}
}

var (
	intervalSeg = wordSeg(segInterval, sortWords)
	replicaSeg  = wordSeg(segReplica, replWords)
)

// maxSegments is the longest segment list a checker needs: the median
// checker with ties, two tables and a replica digest.
const maxSegments = 3

// state is the one CheckState implementation: a stage label, the words,
// the local predicate and the segments that lay the words out. The
// table segments of a state are one sum checker's and share its moduli.
// Every stage of every job seals one, so it is kept small — 8-byte
// segments, the moduli behind one pointer — and the builders seal it
// into a field of their own instead of allocating it
// (TestWarmSumAggStateAllocs).
type state struct {
	stage   string
	words   []uint64
	sum     *SumChecker // segTable: the checker whose moduli the tables use
	segs    [maxSegments]segment
	nsegs   uint8
	localOK bool
}

// newState seals words into a new state; see seal.
func newState(stage string, words []uint64, localOK bool, sum *SumChecker, segs ...segment) CheckState {
	st := new(state)
	st.seal(stage, words, localOK, sum, segs...)
	return st
}

// seal makes st the state of words, one word per lane laid out as segs
// in order; sum is the checker of its table segments, if any. It packs
// every segment to its lanes' width in place — a packed segment is
// never longer than its source, so the packing never overtakes what it
// has still to read — and takes ownership of words.
func (st *state) seal(stage string, words []uint64, localOK bool, sum *SumChecker, segs ...segment) {
	*st = state{stage: stage, localOK: localOK, sum: sum}
	st.nsegs = uint8(copy(st.segs[:], segs))
	in, out := 0, 0
	for _, sg := range segs {
		n := int(sg.lanes)
		out += packLanes(words[out:], words[in:in+n], uint(sg.width))
		in += n
	}
	st.words = words[:out]
}

func (s *state) Stage() string   { return s.stage }
func (s *state) Words() []uint64 { return s.words }
func (s *state) LocalOK() bool   { return s.localOK }

func (s *state) Combine(dst, src []uint64) {
	for _, sg := range s.segs[:s.nsegs] {
		n := sg.words()
		d, r := dst[:n], src[:n]
		dst, src = dst[n:], src[n:]
		switch sg.kind {
		case segTable:
			addLanes(d, r, int(sg.lanes), uint(sg.width), s.sum.mods)
		case segInterval:
			mergeInterval(d, r)
		case segField:
			for i := range d {
				d[i] = hashing.AddMod61(d[i], r[i])
			}
		case segReplica:
			d[replMin] = min(d[replMin], r[replMin])
			d[replMax] = max(d[replMax], r[replMax])
		case segProduct:
			for i := range d {
				d[i] = mulSlot(d[i], r[i]&hashing.Mersenne61, r[i]>>61)
			}
		}
	}
}

func (s *state) Verdict(combined []uint64) bool {
	for _, sg := range s.segs[:s.nsegs] {
		n := sg.words()
		w := combined[:n]
		combined = combined[n:]
		if !sg.accepts(w) {
			return false
		}
	}
	return true
}

// accepts is the segment's accept test on its combined words. Packed
// words are all zero exactly when every lane is: the bits past the last
// lane are zero from the seal on.
func (sg segment) accepts(w []uint64) bool {
	switch sg.kind {
	case segInterval:
		return w[sortOK] == 1
	case segReplica:
		return w[replMin] == w[replMax]
	case segProduct:
		for _, v := range w {
			if v != productSlot {
				return false
			}
		}
		return true
	default: // segTable, segField
		return allZero(w)
	}
}

// packLanes packs the low width bits of every word of src into dst as
// one bit stream, lane i at bits i*width.., and returns the
// ceil(len(src)*width/64) words it wrote; the bits past the last lane
// are zero. dst may alias src if it starts no later: word k is written
// only after lane k has been read.
func packLanes(dst, src []uint64, width uint) int {
	if width == 64 {
		return copy(dst, src)
	}
	mask := uint64(1)<<width - 1
	var acc uint64
	var fill uint // bits of acc holding lanes
	n := 0
	for _, v := range src {
		v &= mask
		acc |= v << fill
		fill += width
		if fill >= 64 {
			dst[n] = acc
			n++
			fill -= 64
			acc = v >> (width - fill) // what of v did not fit
		}
	}
	if fill > 0 {
		dst[n] = acc
		n++
	}
	return n
}

// lane returns lane i of packed width-bit lanes.
func lane(w []uint64, i int, width uint) uint64 {
	bit := uint(i) * width
	k, off := bit/64, bit%64
	v := w[k] >> off
	if off+width > 64 {
		v |= w[k+1] << (64 - off)
	}
	return v & (1<<width - 1)
}

// setLane overwrites lane i of packed width-bit lanes with the low
// width bits of v, leaving its neighbours alone.
func setLane(w []uint64, i int, width uint, v uint64) {
	bit := uint(i) * width
	k, off := bit/64, bit%64
	mask := uint64(1)<<width - 1
	v &= mask
	w[k] = w[k]&^(mask<<off) | v<<off
	if off+width > 64 {
		w[k+1] = w[k+1]&^(mask>>(64-off)) | v>>(64-off)
	}
}

// addLanes adds src's packed width-bit lanes into dst's, lane by lane:
// the lanes are a table, and each iteration's row of lanes/len(mods)
// residues adds mod its r.
func addLanes(dst, src []uint64, lanes int, width uint, mods []uint64) {
	d := lanes / len(mods)
	for it, r := range mods {
		for i := it * d; i < (it+1)*d; i++ {
			s := lane(dst, i, width) + lane(src, i, width) // both < r <= 2^63
			if s >= r {
				s -= r
			}
			setLane(dst, i, width, s)
		}
	}
}

// mergeInterval merges rank-ordered interval summaries: d covers lower
// ranks, r higher (the Resolve contract), so the boundary condition is
// d.last <= r.first whenever both sides hold elements.
func mergeInterval(d, r []uint64) {
	ok := d[sortOK] & r[sortOK]
	if d[sortHas] == 1 && r[sortHas] == 1 && d[sortLast] > r[sortFirst] {
		ok = 0
	}
	if r[sortHas] == 1 {
		if d[sortHas] == 0 {
			d[sortFirst] = r[sortFirst]
		}
		d[sortLast] = r[sortLast]
		d[sortHas] = 1
	}
	d[sortOK] = ok
}
