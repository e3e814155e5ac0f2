package main

import (
	"fmt"
	"slices"

	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/workload"
)

// Seeded inputs and their sequential oracles. Everything here runs
// during set-up; the program under test only ever sees the generated
// slices. Oracles use nothing of the program but its record types: a Go
// map for the reductions, the standard library's sort, and index
// arithmetic for union and zip.

// sizes fixes how much data the workloads run on. fullSizes is the
// benchmark of record; tests shrink it.
type sizes struct {
	bulkPerPE    int // reduce_zipf and sort_uniform elements per PE (the paper's n/p)
	zipfUniverse int
	chainPerPE   int // chain_small_tcp elements per PE
	servicePerPE int // service_mixed elements per PE per job
	streamChunk  int // SubmitStream source chunk
	sets         int // input sets per workload, cycled by the jobs
	probeKeys    int // keys behind the hashing probes
	probeDiv     int // divides the probes' fixed call counts
}

var fullSizes = sizes{
	bulkPerPE:    125000,
	zipfUniverse: 1000000,
	chainPerPE:   2000,
	servicePerPE: 2000,
	streamChunk:  256,
	sets:         numInputSets,
	probeKeys:    1 << 20,
	probeDiv:     1,
}

// calls scales a probe's fixed call count down for tests.
func (sz sizes) calls(n int) int { return max(n/max(sz.probeDiv, 1), 3) }

// derive mixes the benchmark seed with a purpose and indices into an
// independent stream seed.
func derive(seed uint64, purpose string, idx ...int) uint64 {
	h := hashing.Mix64(seed)
	for _, c := range []byte(purpose) {
		h = hashing.Mix64(h ^ uint64(c))
	}
	for _, i := range idx {
		h = hashing.Mix64(h + 0x9e3779b97f4a7c15*uint64(i+1))
	}
	return h
}

// pipeSet is one input set of a pipeline workload with its oracles.
// Unused fields stay nil.
type pipeSet struct {
	pairs   [][]data.Pair // per rank
	a, b, c [][]uint64    // per rank

	reduced []data.Pair // oracle: global reduction, ascending by key
	seen    []uint32    // match stamps over reduced, see checkReduced
	gen     uint32
	sorted  []uint64 // oracle: global ascending order of a (sort_uniform), of the union (chain)
	call    []uint64 // chain: c in global index order, the zip's second component
}

func uniformSeq(n int, seed uint64) []uint64 {
	rng := hashing.NewMT19937_64(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// mapSum is the sequential reduction oracle: per-key wrapping sums,
// ascending by key.
func mapSum(shares [][]data.Pair) []data.Pair {
	m := make(map[uint64]uint64)
	for _, sh := range shares {
		for _, pr := range sh {
			m[pr.Key] += pr.Value
		}
	}
	return sortedPairs(m)
}

func sortedPairs(m map[uint64]uint64) []data.Pair {
	out := make([]data.Pair, 0, len(m))
	for k, v := range m {
		out = append(out, data.Pair{Key: k, Value: v})
	}
	slices.SortFunc(out, func(x, y data.Pair) int {
		switch {
		case x.Key < y.Key:
			return -1
		case x.Key > y.Key:
			return 1
		}
		return 0
	})
	return out
}

func concatSeq(shares [][]uint64) []uint64 {
	var out []uint64
	for _, sh := range shares {
		out = append(out, sh...)
	}
	return out
}

func concatPairs(shares [][]data.Pair) []data.Pair {
	var out []data.Pair
	for _, sh := range shares {
		out = append(out, sh...)
	}
	return out
}

// splitEven cuts xs into p contiguous shares whose sizes differ by at
// most one, larger shares first — the distribution ops.Union produces.
func splitEven[T any](xs []T, p int) [][]T {
	out := make([][]T, p)
	base, rem := len(xs)/p, len(xs)%p
	start := 0
	for r := 0; r < p; r++ {
		n := base
		if r < rem {
			n++
		}
		out[r] = xs[start : start+n]
		start += n
	}
	return out
}

func genReduceZipf(seed uint64, sz sizes) []*pipeSet {
	zipf := workload.NewZipf(sz.zipfUniverse, hashing.NewMT19937_64(derive(seed, "zipf-table")))
	sets := make([]*pipeSet, sz.sets)
	for k := range sets {
		s := &pipeSet{pairs: make([][]data.Pair, numPEs)}
		for r := range s.pairs {
			rng := hashing.NewMT19937_64(derive(seed, "reduce_zipf", k, r))
			sh := make([]data.Pair, sz.bulkPerPE)
			for i := range sh {
				sh[i] = data.Pair{Key: zipf.SampleR(rng), Value: rng.Uint64n(1 << 30)}
			}
			s.pairs[r] = sh
		}
		s.reduced = mapSum(s.pairs)
		s.seen = make([]uint32, len(s.reduced))
		sets[k] = s
	}
	return sets
}

func genSortUniform(seed uint64, sz sizes) []*pipeSet {
	sets := make([]*pipeSet, sz.sets)
	for k := range sets {
		s := &pipeSet{a: make([][]uint64, numPEs)}
		for r := range s.a {
			s.a[r] = uniformSeq(sz.bulkPerPE, derive(seed, "sort_uniform", k, r))
		}
		s.sorted = concatSeq(s.a)
		slices.Sort(s.sorted)
		sets[k] = s
	}
	return sets
}

// genChain builds the inputs of the four-stage chain
//
//	reduce(pairs) -> sort(values) -> union(., b) -> zip(., c)
//
// c is dealt in shares of 1:2:3:4 so the zip really redistributes; its
// total length is the union's, which the reduction oracle fixes. Union
// promises a multiset, not an order, so its oracle is the ascending
// order of everything it must hold, and the zip is checked index-wise
// against the union the job actually produced.
func genChain(seed uint64, sz sizes) []*pipeSet {
	sets := make([]*pipeSet, sz.sets)
	total := numPEs * sz.chainPerPE
	for k := range sets {
		s := &pipeSet{pairs: make([][]data.Pair, numPEs), b: make([][]uint64, numPEs)}
		for r := range s.pairs {
			rng := hashing.NewMT19937_64(derive(seed, "chain-pairs", k, r))
			sh := make([]data.Pair, sz.chainPerPE)
			for i := range sh {
				sh[i] = data.Pair{Key: rng.Uint64n(uint64(total / 2)), Value: rng.Uint64n(1 << 30)}
			}
			s.pairs[r] = sh
			s.b[r] = uniformSeq(sz.chainPerPE, derive(seed, "chain-b", k, r))
		}
		s.reduced = mapSum(s.pairs)
		s.seen = make([]uint32, len(s.reduced))

		vals := make([]uint64, len(s.reduced))
		for i, pr := range s.reduced {
			vals[i] = pr.Value
		}
		slices.Sort(vals)
		union := append(vals, concatSeq(s.b)...)
		call := uniformSeq(len(union), derive(seed, "chain-c", k))
		s.c = make([][]uint64, numPEs)
		start := 0
		for r := 0; r < numPEs; r++ {
			end := len(call) * (r + 1) * (r + 2) / (numPEs * (numPEs + 1))
			s.c[r] = call[start:end]
			start = end
		}
		slices.Sort(union)
		s.sorted, s.call = union, call
		sets[k] = s
	}
	return sets
}

// checkReduced compares the per-rank outputs of a reduction with the
// oracle: every output pair must be an oracle pair, no oracle pair may
// be claimed twice, and none may be missing. Each rank's share is
// ascending by key (ops.ReduceByKey's contract), so one merge pass per
// rank suffices.
func (s *pipeSet) checkReduced(outs [][]data.Pair) error {
	s.gen++
	if s.gen == 0 { // stamps wrapped: clear them once
		clear(s.seen)
		s.gen = 1
	}
	matched := 0
	for r, out := range outs {
		i := 0
		for _, pr := range out {
			for i < len(s.reduced) && s.reduced[i].Key < pr.Key {
				i++
			}
			if i == len(s.reduced) || s.reduced[i] != pr {
				return fmt.Errorf("rank %d: output pair (%d, %d) is not in the oracle", r, pr.Key, pr.Value)
			}
			if s.seen[i] == s.gen {
				return fmt.Errorf("rank %d: key %d reduced twice", r, pr.Key)
			}
			s.seen[i] = s.gen
			matched++
		}
	}
	if matched != len(s.reduced) {
		return fmt.Errorf("reduction has %d keys, oracle %d", matched, len(s.reduced))
	}
	return nil
}

// checkSeq compares the rank-ordered concatenation of outs with want.
func checkSeq[T comparable](outs [][]T, want []T, what string) error {
	i := 0
	for r, out := range outs {
		for j, x := range out {
			if i == len(want) || want[i] != x {
				return fmt.Errorf("%s: rank %d element %d (global %d) differs from the oracle", what, r, j, i)
			}
			i++
		}
	}
	if i != len(want) {
		return fmt.Errorf("%s: %d elements, oracle has %d", what, i, len(want))
	}
	return nil
}

// checkChainTail checks the chain's last two stages: the union must
// hold exactly the oracle's multiset, and the zip must pair the union's
// i-th element with c's i-th, in global index order.
func (s *pipeSet) checkChainTail(union [][]uint64, zipped [][]data.Pair) error {
	got := concatSeq(union)
	ordered := slices.Clone(got)
	slices.Sort(ordered)
	if !slices.Equal(ordered, s.sorted) {
		return fmt.Errorf("union output is not the multiset the oracle holds (%d vs %d elements)", len(ordered), len(s.sorted))
	}
	i := 0
	for r, out := range zipped {
		for j, pr := range out {
			if i == len(got) || pr.Key != got[i] || pr.Value != s.call[i] {
				return fmt.Errorf("zipped output: rank %d element %d (global %d) differs from the oracle", r, j, i)
			}
			i++
		}
	}
	if i != len(got) {
		return fmt.Errorf("zipped output: %d pairs, oracle has %d", i, len(got))
	}
	return nil
}

// ---------------------------------------------------------------------
// service_mixed
// ---------------------------------------------------------------------

// The four claim-checking job kinds, in rotation order.
const (
	kindAssertSum = iota
	kindAssertSorted
	kindStreamPerm
	kindStreamCount
	numKinds
)

var kindNames = [numKinds]string{"assert-sum", "assert-sorted", "stream-perm", "stream-count"}

// claim is one kind's input with a correct and a corrupted asserted
// output, per rank. Exactly one of the pair/seq sides is set.
type claim struct {
	pairIn, pairOut, pairBad [][]data.Pair
	seqIn, seqOut, seqBad    [][]uint64
}

// svcSet is one input set of service_mixed: one claim per job kind.
type svcSet struct {
	claims [numKinds]claim
}

// sabotage lets the self-test plant defects the failure accounting must
// catch; the zero value plants none.
type sabotage struct {
	wrongOracle    bool // pipeline workloads: perturb the oracle of input set 0
	fakeCorruption bool // service_mixed: ship correct outputs as "corrupted"
}

func genService(seed uint64, sz sizes, sab sabotage) ([]*svcSet, error) {
	sets := make([]*svcSet, sz.sets)
	n := sz.servicePerPE
	for k := range sets {
		s := &svcSet{}
		mkPairs := func(purpose string) [][]data.Pair {
			in := make([][]data.Pair, numPEs)
			for r := range in {
				rng := hashing.NewMT19937_64(derive(seed, purpose, k, r))
				sh := make([]data.Pair, n)
				for i := range sh {
					sh[i] = data.Pair{Key: rng.Uint64n(uint64(n)), Value: 1 + rng.Uint64n(1<<30)}
				}
				in[r] = sh
			}
			return in
		}
		mkSeq := func(purpose string) [][]uint64 {
			in := make([][]uint64, numPEs)
			for r := range in {
				in[r] = workload.UniformU64s(n, 1<<40, derive(seed, purpose, k, r))
			}
			return in
		}

		sum := &s.claims[kindAssertSum]
		sum.pairIn = mkPairs("svc-sum")
		sum.pairOut = splitEven(mapSum(sum.pairIn), numPEs)

		srt := &s.claims[kindAssertSorted]
		srt.seqIn = mkSeq("svc-sorted")
		ordered := concatSeq(srt.seqIn)
		slices.Sort(ordered)
		srt.seqOut = splitEven(ordered, numPEs)

		perm := &s.claims[kindStreamPerm]
		perm.seqIn = mkSeq("svc-perm")
		shuffled := concatSeq(perm.seqIn)
		rng := hashing.NewMT19937_64(derive(seed, "svc-shuffle", k))
		for i := len(shuffled) - 1; i > 0; i-- {
			j := int(rng.Uint64n(uint64(i + 1)))
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		perm.seqOut = splitEven(shuffled, numPEs)

		cnt := &s.claims[kindStreamCount]
		cnt.pairIn = mkPairs("svc-count")
		counts := make(map[uint64]uint64)
		for _, sh := range cnt.pairIn {
			for _, pr := range sh {
				counts[pr.Key]++
			}
		}
		cnt.pairOut = splitEven(sortedPairs(counts), numPEs)

		for kind := range s.claims {
			if err := corrupt(&s.claims[kind], derive(seed, "svc-corrupt", k, kind), k+kind, uint64(n), sab.fakeCorruption); err != nil {
				return nil, fmt.Errorf("input set %d, %s: %w", k, kindNames[kind], err)
			}
		}
		sets[k] = s
	}
	return sets, nil
}

// corrupt fills the claim's corrupted output: a copy of the correct one
// with one fault injected by an internal/manipulate manipulator into one
// rank's share, kept only if it provably changes the asserted result
// (ChangesAggregation for pair outputs, ChangesMultiset for sequences).
func corrupt(c *claim, seed uint64, pick int, universe uint64, fake bool) error {
	rng := hashing.NewMT19937_64(seed)
	var err error
	if c.pairOut != nil {
		mans := manipulate.PairManipulators()
		c.pairBad, err = corruptShares(c.pairOut, pick, len(mans), fake, func(try int, share []data.Pair) bool {
			return mans[try%len(mans)].Apply(share, rng, universe)
		}, func(good, bad [][]data.Pair) bool {
			return manipulate.ChangesAggregation(concatPairs(good), concatPairs(bad))
		})
		return err
	}
	mans := manipulate.SeqManipulators()
	c.seqBad, err = corruptShares(c.seqOut, pick, len(mans), fake, func(try int, share []uint64) bool {
		return mans[try%len(mans)].Apply(share, rng, 1<<40)
	}, func(good, bad [][]uint64) bool {
		return manipulate.ChangesMultiset(concatSeq(good), concatSeq(bad))
	})
	return err
}

// corruptShares copies good, lets apply inject a fault into the share of
// rank pick mod p, and returns the copy once effective confirms the
// fault; it tries each of the n manipulators a few times. With fake set
// the copy comes back uncorrupted.
func corruptShares[T any](good [][]T, pick, n int, fake bool, apply func(try int, share []T) bool, effective func(good, bad [][]T) bool) ([][]T, error) {
	victim := pick % len(good)
	for try := pick; try < pick+4*n; try++ {
		bad := slices.Clone(good)
		bad[victim] = slices.Clone(good[victim])
		if fake || (apply(try, bad[victim]) && effective(good, bad)) {
			return bad, nil
		}
	}
	return nil, fmt.Errorf("no manipulator produced an effective fault")
}

// pairs and seqs return the claim's asserted output, correct or
// corrupted.
func (c *claim) pairs(corrupted bool) [][]data.Pair {
	if corrupted {
		return c.pairBad
	}
	return c.pairOut
}

func (c *claim) seqs(corrupted bool) [][]uint64 {
	if corrupted {
		return c.seqBad
	}
	return c.seqOut
}
