package core

import (
	"repro/internal/collective"
	"repro/internal/data"
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
// States are single-use and not safe for concurrent use.
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

// ResolveOn is Resolve over an explicit communicator. Passing a
// tag-safe sub-communicator (collective.Comm.Sub) lets a resolution
// round ride the wire concurrently with other traffic on the same
// endpoint — the mechanism beneath ResolveAsync.
func ResolveOn(c *collective.Comm, states ...CheckState) ([]bool, error) {
	if len(states) == 0 {
		return nil, nil
	}
	offsets := make([]int, len(states)+1)
	var vec []uint64
	for i, st := range states {
		vec = append(vec, st.Words()...)
		offsets[i+1] = len(vec)
	}
	flagBase := len(vec)
	for _, st := range states {
		flag := uint64(0)
		if st.LocalOK() {
			flag = 1
		}
		vec = append(vec, flag)
	}
	op := func(dst, src []uint64) {
		for i, st := range states {
			st.Combine(dst[offsets[i]:offsets[i+1]], src[offsets[i]:offsets[i+1]])
		}
		for i := flagBase; i < len(dst); i++ {
			dst[i] &= src[i]
		}
	}
	red, err := c.Reduce(vec, op)
	if err != nil {
		return nil, err
	}
	flags := make([]uint64, len(states))
	if c.Rank() == 0 {
		for i, st := range states {
			if red[flagBase+i] == 1 && st.Verdict(red[offsets[i]:offsets[i+1]]) {
				flags[i] = 1
			}
		}
	}
	flags, err = c.Broadcast(flags)
	if err != nil {
		return nil, err
	}
	verdicts := make([]bool, len(states))
	for i := range states {
		verdicts[i] = flags[i] == 1
	}
	return verdicts, nil
}

// resolveOne is the eager path shared by the one-shot Check functions.
func resolveOne(w *dist.Worker, st CheckState) (bool, error) {
	v, err := Resolve(w, st)
	if err != nil {
		return false, err
	}
	return v[0], nil
}

// ---------------------------------------------------------------------
// Sum/count aggregation (Theorem 1, Algorithm 1)
// ---------------------------------------------------------------------

// SumAggState is the two-phase form of the sum aggregation checker: the
// normalized difference of the condensed reductions of input and
// asserted output. Correct iff the global modular sum of differences is
// all-zero.
type SumAggState struct {
	stage string
	c     *SumChecker
	diff  []uint64
}

// NewSumAggState accumulates the sum aggregation checker's local phase:
// input and output are this PE's shares. No communication. The
// accumulation is sharded across par's goroutines (Serial for none); the
// state is identical for every worker count. It is the one-chunk special
// case of SumAggBuilder.
func NewSumAggState(stage string, cfg SumConfig, seed uint64, par ParallelAccumulator, input, output []data.Pair) *SumAggState {
	b := NewSumAggBuilder(stage, cfg, seed, par, false)
	b.AddInput(input)
	b.AddOutput(output)
	return b.Seal()
}

// NewCountAggState is NewSumAggState for count aggregation: every input
// pair counts 1 regardless of its value.
func NewCountAggState(stage string, cfg SumConfig, seed uint64, par ParallelAccumulator, input, output []data.Pair) *SumAggState {
	b := NewSumAggBuilder(stage, cfg, seed, par, true)
	b.AddInput(input)
	b.AddOutput(output)
	return b.Seal()
}

func newSumDiffState(stage string, c *SumChecker, tv, to []uint64) *SumAggState {
	c.Normalize(tv)
	c.Normalize(to)
	// The difference overwrites tv in place — both scratch tables are
	// dead after this, so the state allocates nothing further.
	c.DiffInto(tv, tv, to)
	return &SumAggState{stage: stage, c: c, diff: tv}
}

func (s *SumAggState) Stage() string                  { return s.stage }
func (s *SumAggState) Words() []uint64                { return s.diff }
func (s *SumAggState) Combine(dst, src []uint64)      { s.c.ReduceOp()(dst, src) }
func (s *SumAggState) Verdict(combined []uint64) bool { return allZero(combined) }
func (s *SumAggState) LocalOK() bool                  { return true }

// ---------------------------------------------------------------------
// Permutation / union / redistribution (Lemma 4, Corollaries 12, 14, 15)
// ---------------------------------------------------------------------

// PermState is the two-phase form of the hash-sum permutation checker:
// per-iteration truncated hash sums of the inputs minus the output.
// LocalOK carries deterministic side conditions (e.g. the
// redistribution checker's placement scan).
type PermState struct {
	stage   string
	mask    uint64 // H-1: the hash bits a fingerprint is summed over
	lambda  []uint64
	localOK bool
}

// NewPermState accumulates the permutation checker's local phase:
// output must be a permutation of the concatenation of inputs. No
// communication. The fingerprinting is sharded across par's goroutines;
// the fingerprints are bit-identical for every worker count. It is the
// one-chunk special case of PermBuilder.
func NewPermState(stage string, cfg PermConfig, seed uint64, par ParallelAccumulator, inputs [][]uint64, output []uint64) *PermState {
	b := NewPermBuilder(stage, cfg, seed, par)
	for _, in := range inputs {
		b.AddInput(in)
	}
	b.AddOutput(output)
	return b.Seal()
}

// NewRedistState accumulates the redistribution checker's local phase
// (Corollaries 14 and 15): a permutation fingerprint over folded whole
// pairs, sharded across par, plus the deterministic placement scan
// against loc. rank is this PE's rank. No communication. It is the
// one-chunk special case of RedistBuilder.
func NewRedistState(stage string, cfg PermConfig, seed uint64, par ParallelAccumulator, loc KeyLocator, rank int, before, after []data.Pair) *PermState {
	b := NewRedistBuilder(stage, cfg, seed, par, loc, rank)
	b.AddInput(before)
	b.AddOutput(after)
	return b.Seal()
}

func (s *PermState) Stage() string   { return s.stage }
func (s *PermState) Words() []uint64 { return s.lambda }
func (s *PermState) Combine(dst, src []uint64) {
	for i := range dst {
		dst[i] += src[i]
	}
}
func (s *PermState) Verdict(combined []uint64) bool {
	for _, v := range combined {
		if v&s.mask != 0 {
			return false
		}
	}
	return true
}
func (s *PermState) LocalOK() bool { return s.localOK }

// ---------------------------------------------------------------------
// Sort / merge (Theorem 7, Corollary 13)
// ---------------------------------------------------------------------

// sortedness boundary slots appended after the permutation lambda: a
// rank-interval summary (has-elements flag, first element, last
// element, sorted-so-far flag) whose rank-ordered merge verifies global
// sortedness — each PE's share must be locally sorted and its last
// element must not exceed the first element of the next non-empty
// share. This replaces the seed's sequential right-to-left boundary
// chain with a segment of the same batched reduction, at the price of
// four extra words.
const (
	sortHas = iota
	sortFirst
	sortLast
	sortOK
	sortWords
)

// SortedState is the two-phase form of the sort checker: a permutation
// fingerprint plus the sortedness interval summary.
type SortedState struct {
	perm  *PermState
	words []uint64 // lambda ++ [has, first, last, ok]
}

// NewSortedState accumulates the sort checker's local phase: output
// must be a sorted permutation of the concatenation of inputs (one
// input for Sort, two for Merge), the fingerprinting sharded across par.
// No communication. It is the one-chunk special case of SortedBuilder.
func NewSortedState(stage string, cfg PermConfig, seed uint64, par ParallelAccumulator, inputs [][]uint64, output []uint64) *SortedState {
	b := NewSortedBuilder(stage, cfg, seed, par)
	for _, in := range inputs {
		b.AddInput(in)
	}
	b.AddOutput(output)
	return b.Seal()
}

func (s *SortedState) Stage() string   { return s.perm.stage }
func (s *SortedState) Words() []uint64 { return s.words }

// Combine merges rank-ordered interval summaries: dst covers lower
// ranks, src higher (the Resolve contract), so the boundary condition
// is dst.last <= src.first whenever both sides hold elements.
func (s *SortedState) Combine(dst, src []uint64) {
	n := len(s.perm.lambda)
	for i := 0; i < n; i++ {
		dst[i] += src[i]
	}
	d, r := dst[n:], src[n:]
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

func (s *SortedState) Verdict(combined []uint64) bool {
	n := len(s.perm.lambda)
	if !s.perm.Verdict(combined[:n]) {
		return false
	}
	return combined[n+sortOK] == 1
}
func (s *SortedState) LocalOK() bool { return true }

// ---------------------------------------------------------------------
// Zip (Theorem 11)
// ---------------------------------------------------------------------

// ZipState is the two-phase form of the zip checker: position-weighted
// fingerprint differences of both components in F_(2^61-1). The global
// start offsets must be known at accumulation time; they fall out of
// the zip operation itself (or one vectorized prefix sum for the
// one-shot checker).
type ZipState struct {
	stage   string
	lambda  []uint64
	localOK bool
}

// NewZipState accumulates the zip checker's local phase. start1,
// start2, startO are the global start indices of this PE's shares;
// lengthsOK asserts the three global lengths agree (a deterministic
// precondition established alongside the offsets). No communication.
func NewZipState(stage string, cfg ZipConfig, seed uint64, s1, s2 []uint64, out []data.Pair, start1, start2, startO uint64, lengthsOK bool) *ZipState {
	seeds := hashing.SubSeeds(seed^0x21b021b021b021b0, cfg.Iterations)
	outFirst := make([]uint64, len(out))
	outSecond := make([]uint64, len(out))
	for i, pr := range out {
		outFirst[i] = pr.Key
		outSecond[i] = pr.Value
	}
	f1 := zipFingerprint(s1, start1, seeds)
	f2 := zipFingerprint(s2, start2, seeds)
	fo1 := zipFingerprint(outFirst, startO, seeds)
	fo2 := zipFingerprint(outSecond, startO, seeds)
	lambda := make([]uint64, 2*cfg.Iterations)
	for it := 0; it < cfg.Iterations; it++ {
		lambda[2*it] = hashing.SubMod61(f1[it], fo1[it])
		lambda[2*it+1] = hashing.SubMod61(f2[it], fo2[it])
	}
	return &ZipState{stage: stage, lambda: lambda, localOK: lengthsOK}
}

func (s *ZipState) Stage() string   { return s.stage }
func (s *ZipState) Words() []uint64 { return s.lambda }
func (s *ZipState) Combine(dst, src []uint64) {
	for i := range dst {
		dst[i] = hashing.AddMod61(dst[i], src[i])
	}
}
func (s *ZipState) Verdict(combined []uint64) bool { return allZero(combined) }
func (s *ZipState) LocalOK() bool                  { return s.localOK }

// ---------------------------------------------------------------------
// Replication integrity (Section 2)
// ---------------------------------------------------------------------

// replication digest slots: the keyed digest twice, combined with min
// on one slot and max on the other. All replicas agree iff the global
// min equals the global max — which turns the broadcast-and-compare of
// the seed implementation into two words of the same batched reduction.
const (
	replMin = iota
	replMax
	replWords
)

func newReplSegment(words []uint64, seed uint64) [replWords]uint64 {
	d := DigestU64s(words, seed)
	return [replWords]uint64{d, d}
}

func combineRepl(dst, src []uint64) {
	if src[replMin] < dst[replMin] {
		dst[replMin] = src[replMin]
	}
	if src[replMax] > dst[replMax] {
		dst[replMax] = src[replMax]
	}
}

func replEqual(combined []uint64) bool { return combined[replMin] == combined[replMax] }

// ReplicatedState is the two-phase form of the result-integrity check:
// every PE must hold an identical copy of a replicated word sequence.
type ReplicatedState struct {
	stage  string
	digest [replWords]uint64
}

// NewReplicatedState digests this PE's copy. No communication.
func NewReplicatedState(stage string, seed uint64, words []uint64) *ReplicatedState {
	return &ReplicatedState{stage: stage, digest: newReplSegment(words, seed)}
}

func (s *ReplicatedState) Stage() string                  { return s.stage }
func (s *ReplicatedState) Words() []uint64                { return s.digest[:] }
func (s *ReplicatedState) Combine(dst, src []uint64)      { combineRepl(dst, src) }
func (s *ReplicatedState) Verdict(combined []uint64) bool { return replEqual(combined) }
func (s *ReplicatedState) LocalOK() bool                  { return true }

// ---------------------------------------------------------------------
// Min/max aggregation (Theorem 9)
// ---------------------------------------------------------------------

// OptAggState is the two-phase form of the deterministic min/max
// aggregation checker: the local witness/optimality scan plus the
// replication digest of result and certificate.
type OptAggState struct {
	stage   string
	digest  [replWords]uint64
	localOK bool
}

// NewMinAggState accumulates the min aggregation checker's local phase;
// rank and size identify this PE. No communication.
func NewMinAggState(stage string, seed uint64, rank, size int, input, result []data.Pair, witness map[uint64]int) *OptAggState {
	return newOptAggState(stage, seed, rank, size, input, result, witness, true)
}

// NewMaxAggState is NewMinAggState for maximum aggregation.
func NewMaxAggState(stage string, seed uint64, rank, size int, input, result []data.Pair, witness map[uint64]int) *OptAggState {
	return newOptAggState(stage, seed, rank, size, input, result, witness, false)
}

func newOptAggState(stage string, seed uint64, rank, size int, input, result []data.Pair, witness map[uint64]int, wantMin bool) *OptAggState {
	// Replication digest over result + certificate in key order, so the
	// digest ignores the caller's slice ordering.
	sorted := data.ClonePairs(result)
	data.SortPairsByKey(sorted)
	flat := make([]uint64, 0, 3*len(sorted))
	for _, pr := range sorted {
		flat = append(flat, pr.Key, pr.Value, uint64(witness[pr.Key]))
	}
	st := &OptAggState{stage: stage, digest: newReplSegment(flat, seed)}
	st.localOK = optAggLocalOK(rank, size, input, result, witness, wantMin)
	return st
}

// optAggLocalOK is the deterministic local scan of Theorem 9:
//
//	(a) no local element beats the asserted optimum of its key, and
//	    every local key appears in the result (nothing was dropped);
//	(b) every asserted optimum whose witness certificate points at this
//	    PE is present locally (nothing was invented or inflated);
//	(c) the certificate covers exactly the result's key set.
func optAggLocalOK(rank, size int, input, result []data.Pair, witness map[uint64]int, wantMin bool) bool {
	beats := func(a, b uint64) bool {
		if wantMin {
			return a < b
		}
		return a > b
	}
	asserted := make(map[uint64]uint64, len(result))
	for _, pr := range result {
		asserted[pr.Key] = pr.Value
	}

	ok := true
	// (c) certificate covers exactly the result keys.
	if len(witness) != len(asserted) {
		ok = false
	}
	for k := range witness {
		if _, exists := asserted[k]; !exists {
			ok = false
		}
	}
	for _, r := range witness {
		if r < 0 || r >= size {
			ok = false
		}
	}

	// (a) local scan: no element beats the optimum, no missing keys.
	for _, pr := range input {
		m, exists := asserted[pr.Key]
		if !exists || beats(pr.Value, m) {
			ok = false
			break
		}
	}

	// (b) witnesses assigned to this PE must be present locally.
	mine := make(map[data.Pair]bool)
	for k, r := range witness {
		if r == rank {
			if m, exists := asserted[k]; exists {
				mine[data.Pair{Key: k, Value: m}] = true
			}
		}
	}
	if len(mine) > 0 {
		for _, pr := range input {
			delete(mine, pr)
			if len(mine) == 0 {
				break
			}
		}
		if len(mine) > 0 {
			ok = false
		}
	}
	return ok
}

func (s *OptAggState) Stage() string                  { return s.stage }
func (s *OptAggState) Words() []uint64                { return s.digest[:] }
func (s *OptAggState) Combine(dst, src []uint64)      { combineRepl(dst, src) }
func (s *OptAggState) Verdict(combined []uint64) bool { return replEqual(combined) }
func (s *OptAggState) LocalOK() bool                  { return s.localOK }

// ---------------------------------------------------------------------
// Average aggregation (Corollary 8)
// ---------------------------------------------------------------------

// AvgAggState is the two-phase form of the average checker: the sum
// lane (reconstructed sums vs input values) and the count lane
// (certified counts vs input multiplicities), concatenated.
type AvgAggState struct {
	stage   string
	c       *SumChecker
	diff    []uint64 // sum-lane diff ++ count-lane diff
	localOK bool
}

// NewAvgAggState accumulates the average checker's local phase, both
// table lanes sharded across par. No communication.
func NewAvgAggState(stage string, cfg SumConfig, seed uint64, par ParallelAccumulator, input []data.Pair, asserted []AvgAssertion) *AvgAggState {
	c := NewSumChecker(cfg, seed)
	// Certificate sanity is deterministic: a correct average in lowest
	// terms must divide the certified count. An indivisible certificate
	// cannot belong to a correct result, so rejecting keeps one-sided
	// error intact.
	localOK := true
	sums := make([]data.Pair, 0, len(asserted))
	counts := make([]data.Pair, 0, len(asserted))
	for _, a := range asserted {
		if a.AvgDen == 0 || a.Count%a.AvgDen != 0 {
			localOK = false
			continue
		}
		reconstructed := a.AvgNum * (a.Count / a.AvgDen) // mod 2^64, consistent with input sums
		sums = append(sums, data.Pair{Key: a.Key, Value: reconstructed})
		counts = append(counts, data.Pair{Key: a.Key, Value: a.Count})
	}

	// Lane 1: reconstructed sums vs input values.
	tvSum := c.NewTable()
	par.AccumulateSum(c, tvSum, input)
	toSum := c.NewTable()
	par.AccumulateSum(c, toSum, sums)

	// Lane 2: certified counts vs input multiplicities.
	tvCnt := c.NewTable()
	par.AccumulateCount(c, tvCnt, input)
	toCnt := c.NewTable()
	par.AccumulateSum(c, toCnt, counts)

	c.Normalize(tvSum)
	c.Normalize(toSum)
	c.Normalize(tvCnt)
	c.Normalize(toCnt)
	// Each lane's difference overwrites its input-side scratch table.
	c.DiffInto(tvSum, tvSum, toSum)
	c.DiffInto(tvCnt, tvCnt, toCnt)
	diff := append(tvSum, tvCnt...)
	return &AvgAggState{stage: stage, c: c, diff: diff, localOK: localOK}
}

func (s *AvgAggState) Stage() string   { return s.stage }
func (s *AvgAggState) Words() []uint64 { return s.diff }
func (s *AvgAggState) Combine(dst, src []uint64) {
	op := s.c.ReduceOp()
	half := len(dst) / 2
	op(dst[:half], src[:half])
	op(dst[half:], src[half:])
}
func (s *AvgAggState) Verdict(combined []uint64) bool { return allZero(combined) }
func (s *AvgAggState) LocalOK() bool                  { return s.localOK }

// ---------------------------------------------------------------------
// Median aggregation (Theorem 10, Algorithm 2)
// ---------------------------------------------------------------------

// MedianAggState is the two-phase form of the median checker: the
// balance (and, with ties, equality) zero-sum lanes plus the
// replication digest of the asserted medians and certificates.
type MedianAggState struct {
	stage   string
	c       *SumChecker
	words   []uint64 // blocks*TableWords table words ++ [digest, digest]
	blocks  int
	localOK bool
}

// NewMedianAggState accumulates the median checker's local phase; rank
// identifies this PE (the replicated tie certificate enters the global
// sum exactly once, at rank 0). ties may be nil for the
// unique-values variant. No communication.
func NewMedianAggState(stage string, cfg SumConfig, seed uint64, rank int, input, medians2 []data.Pair, ties map[uint64]TieCert) *MedianAggState {
	c := NewSumChecker(cfg, seed)

	m2 := make(map[uint64]uint64, len(medians2))
	for _, pr := range medians2 {
		m2[pr.Key] = pr.Value
	}

	localOK := true
	s := make(map[uint64]int64) // balance: #larger - #smaller
	e := make(map[uint64]int64) // equality: #equal to median
	for _, pr := range input {
		m, exists := m2[pr.Key]
		if !exists {
			// Key dropped from the result: deterministic reject.
			localOK = false
			break
		}
		v2 := 2 * pr.Value
		switch {
		case v2 < m:
			s[pr.Key]--
		case v2 > m:
			s[pr.Key]++
		default:
			e[pr.Key]++
		}
	}

	// Balance lane, shifted by the certificate where present:
	// s[k] + EqHigh - EqLow must be zero for every key.
	tv := c.NewTable()
	for k, cnt := range s {
		c.AccumulateSigned(tv, k, cnt)
	}
	blocks := 1
	if ties != nil {
		// The certificate is replicated at every PE but must enter the
		// global sum exactly once: only PE 0 folds it in. The AtSlot
		// bound is a local deterministic check everywhere.
		for _, tc := range ties {
			if tc.AtSlot > 2 {
				localOK = false
			}
		}
		if rank == 0 {
			for k, tc := range ties {
				c.AccumulateSigned(tv, k, int64(tc.EqHigh)-int64(tc.EqLow))
			}
		}
		// Equality lane: #equal(k) - (EqLow+EqHigh+AtSlot) must be zero.
		te := c.NewTable()
		for k, cnt := range e {
			c.AccumulateSigned(te, k, cnt)
		}
		if rank == 0 {
			for k, tc := range ties {
				c.AccumulateSigned(te, k, -int64(tc.EqLow+tc.EqHigh+tc.AtSlot))
			}
		}
		tv = append(tv, te...)
		blocks = 2
	}
	c.normalizeBlocks(tv, blocks)

	repl := newReplSegment(flattenMedianAssertion(medians2, ties), seed)
	return &MedianAggState{
		stage:   stage,
		c:       c,
		words:   append(tv, repl[:]...),
		blocks:  blocks,
		localOK: localOK,
	}
}

func (s *MedianAggState) Stage() string   { return s.stage }
func (s *MedianAggState) Words() []uint64 { return s.words }
func (s *MedianAggState) Combine(dst, src []uint64) {
	op := s.c.ReduceOp()
	words := s.c.TableWords()
	for b := 0; b < s.blocks; b++ {
		op(dst[b*words:(b+1)*words], src[b*words:(b+1)*words])
	}
	combineRepl(dst[s.blocks*words:], src[s.blocks*words:])
}
func (s *MedianAggState) Verdict(combined []uint64) bool {
	tables := s.blocks * s.c.TableWords()
	return allZero(combined[:tables]) && replEqual(combined[tables:])
}
func (s *MedianAggState) LocalOK() bool { return s.localOK }
