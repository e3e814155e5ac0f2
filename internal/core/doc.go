// Package core implements the paper's contribution: communication
// efficient probabilistic checkers for big-data operations. All checkers
// have one-sided error — a correct result is never rejected; an
// incorrect result is accepted with probability at most delta — and
// sublinear bottleneck communication volume.
//
// Checkers (paper reference in parentheses):
//
//   - CheckSumAgg / CheckCountAgg — sum/count aggregation via condensed
//     reduction to d buckets modulo a random r in (rhat, 2*rhat]
//     (Section 4, Theorem 1, Algorithm 1).
//   - CheckAvgAgg — average aggregation with a per-key count certificate
//     (Section 6.1, Corollary 8).
//   - CheckMinAgg / CheckMaxAgg — deterministic minimum/maximum checking
//     with result and witness certificate replicated at all PEs
//     (Section 6.2, Theorem 9).
//   - CheckMedianAgg / CheckMedianAggTies — median aggregation reduced
//     to a zero-sum check, for unique values and with tie-breaking
//     certificates (Section 6.3, Theorem 10, Algorithm 2).
//   - CheckPermutation — hash-sum fingerprints (Section 5, Lemma 4),
//     with the polynomial variants CheckPermutationPoly (prime field,
//     Lemma 5) and CheckPermutationGF (GF(2^64), carry-less).
//   - CheckSorted — permutation plus local sortedness plus boundary
//     exchange (Section 5, Theorem 7).
//   - CheckZip — position-dependent fingerprints (Section 6.4,
//     Theorem 11).
//   - CheckUnion / CheckMerge — permutation over multiple inputs
//     (Section 6.5.1/6.5.2, Corollaries 12 and 13).
//   - CheckRedistribution / CheckJoinRedistribution — invasive checker
//     for the GroupBy/Join element redistribution phase (Section
//     6.5.3/6.5.4, Corollaries 14 and 15).
//   - CheckReplicated — result-integrity hash comparison for data that
//     must be identical at all PEs (Section 2, "Result Integrity").
//
// Every distributed checker is SPMD: all PEs call it with their local
// shares, shared randomness is drawn by PE 0 and broadcast, and the
// returned verdict is identical on every PE.
//
// # Layering
//
// Each checker exists in three layers, each a thin wrapper of the one
// before, and nothing else builds a checker state:
//
//   - the builder (builder.go): the chunked partial. AddInput and
//     AddOutput accumulate any number of chunks, sharded across a
//     ParallelAccumulator, and Seal freezes the partial into a
//     CheckState. The streaming stages (internal/stream) and resharding
//     (internal/recover) drive builders directly.
//   - the one-chunk state constructor (state.go): New...State feeds a
//     builder exactly one chunk per side. There is one per checker and
//     it takes the ParallelAccumulator; a serial caller passes Serial.
//     The pipeline stages of the root package call these and hand the
//     states to Resolve — eagerly, batched, or asynchronously
//     (ResolveAsync).
//   - the one-shot Check... function: state constructor plus Resolve of
//     that single state, the paper's Sections 4–6 as calls. These
//     functions, everything the list above names, are the documented
//     pure-checker API of this package — verify a result computed
//     elsewhere with one call — and are kept as such although only
//     CheckSumAgg and CheckSorted have a caller outside the tests today
//     (repro.CheckSum, repro.CheckSorted).
//
// The checkers' O(n/p) local phase (Table 5) runs on a shared
// accumulation engine: blocked batch hashing (hashing.Hasher's
// Hash64Batch), unrolled polynomial products, and an optional
// ParallelAccumulator that shards the scan across goroutines with
// residue-identical merges — per-PE fan-out never changes a checker
// state.
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
// its×d shape of the table itself.
//
// None of this can change a verdict. The checker is linear: a counter
// holds, mod r, the sum over the integers of the values whose key falls
// in its bucket, and an exact sum does not depend on how it was
// bracketed — per cell first, per shard, per chunk. The table after
// Normalize is therefore bit-identical for every g, chunking and worker
// count, and equal to the element-by-element reference
// (AccumulateScalar), which stays in the package as the test oracle.
package core
