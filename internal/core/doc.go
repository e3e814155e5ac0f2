// Package core implements the paper's contribution: communication
// efficient probabilistic checkers for big-data operations. All checkers
// have one-sided error — a correct result is never rejected; an
// incorrect result is accepted with probability at most delta — and
// sublinear bottleneck communication volume.
//
// Checkers, by constructor (paper reference in parentheses):
//
//   - NewSumAggState, NewSumAggBuilder (count: true for count
//     aggregation) — condensed reduction to d buckets modulo a random r
//     in (rhat, 2*rhat] (Section 4, Theorem 1, Algorithm 1).
//   - NewAvgAggState — average aggregation with a per-key count
//     certificate (Section 6.1, Corollary 8).
//   - NewMinAggState / NewMaxAggState — deterministic minimum/maximum
//     checking with result and witness certificate replicated at all
//     PEs (Section 6.2, Theorem 9).
//   - NewMedianAggState — median aggregation reduced to a zero-sum
//     check, for unique values and with tie-breaking certificates
//     (Section 6.3, Theorem 10, Algorithm 2).
//   - NewPermState, NewPermBuilder — hash-sum fingerprints (Section 5,
//     Lemma 4); with two inputs, Union (Corollary 12).
//   - NewSortedState, NewSortedBuilder — permutation plus the
//     sortedness interval (Section 5, Theorem 7); with two inputs,
//     Merge (Corollary 13).
//   - NewZipState — position-dependent fingerprints (Section 6.4,
//     Theorem 11).
//   - NewRedistState, NewRedistBuilder — invasive checker for the
//     GroupBy/Join element redistribution phase (Section 6.5.3/6.5.4,
//     Corollaries 14 and 15).
//   - CheckPermutationPoly (prime field) and CheckPermutationGF
//     (GF(2^64), carry-less) — the polynomial permutation checkers of
//     Lemma 5, which need no trusted hash function. They are the only
//     checkers without a state: each is one all-reduction.
//
// Every distributed checker is SPMD: all PEs build their states from
// their local shares and a common seed (dist.Worker.CommonSeed), and
// every PE returns the same verdict or a named error. A bit flipped in
// a checker word in flight cannot split the verdict or make a PE accept
// an incorrect result, but it can make every PE reject a correct one:
// that is one-sided error as the checker sees it, since the words it
// reduced no longer describe a correct result.
//
// # One shape
//
// Every checker makes one O(n/p) local pass and then one reduction of a
// few words with an accept test. Its state is one CheckState
// implementation whose words are a short list of segments, each one of
// five sketches with its own combine and accept test:
//
//   - a sum-checker table mod r (accept: all zero);
//   - truncated hash sums (accept: zero under the mask);
//   - the 4-word sortedness interval (rank-ordered merge; accept: the
//     sorted flag survived);
//   - F_(2^61-1) fingerprints (accept: all zero);
//   - the replica digest min/max pair (accept: min = max).
//
// SumAgg is one table, Avg two; Median is one or two tables plus a
// replica digest; Min/Max is a replica digest; Perm and Redist are a
// hash sum; Sorted is a hash sum plus an interval; Zip is fingerprints.
//
// Tables and hash sums travel at the paper's bit count. A state packs
// them when it seals: each table counter into m+1 bits and each hash
// sum into logH bits, lane after lane, iteration-major, in
// ceil(lanes*width/64) words. Both packings are lossless. A counter is
// a residue below r <= 2^(m+1), so m+1 bits hold it exactly; and the low
// logH bits of a hash sum, the only ones its accept test reads, are the
// same whether the sum is masked at seal or after adding mod 2^64.
// Combine adds packed lanes in place, mod r_i or mod 2^logH, without a
// carry crossing lanes, and a packed segment is all zero exactly when
// every lane is. A sum checker's wire bits are therefore TableBits
// rounded up to a word (Lemma 3, Table 2), a permutation checker's
// #its·logH; the other three sketches stay 64-bit words.
//
// A checker exists in two layers, and nothing else builds a state:
//
//   - the builder (builder.go), where a checker accumulates in chunks:
//     AddInput and AddOutput accumulate any number of chunks, sharded
//     across a ParallelAccumulator, and Seal freezes the partial into a
//     CheckState. The streaming stages (internal/stream) drive builders
//     directly.
//   - the one-chunk constructor, New...State: a builder fed exactly one
//     chunk per side, or for the checkers without a builder the whole
//     local phase. It takes the ParallelAccumulator where the checker
//     shards; a serial caller passes Serial.
//
// Resolve — eagerly, one state per stage, or batched over every
// pending stage — is the only way from states to verdicts. Its flag
// words are keyed accept tokens against a zero reject, so a bit flipped
// in flight turns a verdict into ErrCorruptVerdict on the ranks it
// reaches, never a rejection into an acceptance.
//
// The checkers' O(n/p) local phase (Table 5) runs on a shared
// accumulation engine: blocked batch hashing (hashing.Hasher's
// Hash64Batch), unrolled polynomial products, and an optional
// ParallelAccumulator that shards the scan across goroutines with
// residue-identical merges — per-PE fan-out never changes a checker
// state.
//
// Both checker kernels read each key's hash lookups once, the Section
// 7.1 idea of one wide hash value feeding several iterations. The
// permutation checker evaluates Tab iterations two at a time: the
// family's Pair stores two tabulation functions in one table of 64-bit
// entries, low half and high half, so eight lookups give both 32-bit
// values, and an odd last iteration keeps a table of its own. The halves
// are the functions the iterations' own sub-seeds name, filled exactly
// as a lone table would be, so fingerprints, sealed words and delta are
// those of separate tables; AccumulateIntoScalar rebuilds each
// iteration's function alone and is the oracle the kernel is held to.
//
// The sum checker's part of it is one kernel (SumChecker.accumulate)
// built on exact cells and grouped tables. A cell is a 128-bit integer
// {lo, hi} updated by lo += v; hi += carry: no modulus in the loop at
// all. g consecutive iterations that take their bucket bits from the
// same hash value share one table of 2^(g*width) cells, indexed by
// their g indices side by side, so an element costs ceil(its/g) updates
// rather than its — three for 6×32, not six. When the call ends, one
// fold adds every non-zero cell's value mod r into the counter of each
// of its g iterations (the cell's index names the bucket in each) and
// zeroes it. g is derived per call, never configured (groupSize): as
// large as keeps a table within 2^10 cells (L1), inside one hash value,
// and at most an eighth of the call long, so the fold stays a small
// share of the call; otherwise 1, where the cell tables have the
// its×d shape of the table itself. Each block is read once per hash
// value: where the groups drawn from one value have the default 6×32
// checker's shapes — six 5-bit groups at g = 1, three 10-bit ones at
// g = 2 — a hand-unrolled lane kernel updates all of them in one pass
// with constant shifts and masks; any other plan takes one pass per
// group.
//
// None of this can change a verdict. The checker is linear: a counter
// holds, mod r, the sum over the integers of the values whose key falls
// in its bucket, and an exact sum does not depend on how it was
// bracketed — per cell first, per shard, per chunk. The table after
// Normalize is therefore bit-identical for every g, chunking and worker
// count, and equal to the element-by-element reference
// (AccumulateScalar), which stays in the package as the test oracle.
package core
