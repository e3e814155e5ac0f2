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
//   - NewPermState, NewPermBuilder — Lemma 5's product in F_(2^61-1),
//     which needs no hash function (Section 5); with two inputs, Union
//     (Corollary 12).
//   - NewSortedState, NewSortedBuilder — the product plus the
//     sortedness interval (Section 5, Theorem 7); with two inputs,
//     Merge (Corollary 13).
//   - NewZipState — Theorem 11's position-weighted fingerprints, with
//     the powers z^i of a random z as the weights: a polynomial
//     identity in F_(2^61-1), which needs no hash function (Section
//     6.4).
//   - NewRedistState, NewRedistBuilder — invasive checker for the
//     GroupBy/Join element redistribution phase (Section 6.5.3/6.5.4,
//     Corollaries 14 and 15): the product over whole pairs folded into
//     words, plus a placement scan.
//
// Lemma 4's hash sums, the paper's other permutation fingerprint, are
// the local HashSumChecker of the Fig. 5 and Section 7.2 experiments:
// no state carries one.
//
// What each default construction is proven for:
//
//	checker           construction                  δ per iteration          proven for
//	sum, count        15×4 CRC m10 (ChooseSum)      (1/1024 + 1/4)^15        random-hash model (Lemma 2)
//	perm, sort,       Lemma 5 product, z - a - y·q  3n/r < 3.5e-10,          every fixed wrong output
//	  union, merge    in F_r, r = 2^61 - 1, ×1      n <= 2^28
//	redistribution    the product over Mix64 folds  3n/r + pair-fold         the fold: random-hash model
//	                  of (key, value) pairs         collisions
//	zip               Σ (a + y·q)·z^i in F_r, the   (n+1)/r < 1.2e-10,       every fixed wrong output
//	                  components joined by w, ×1    n <= 2^28
//
// The product's bound assumes nothing of the data: distinct elements
// are distinct linear factors, so a wrong multiset leaves a nonzero
// difference of two polynomials of degree at most n in (z, y), zero at
// a random point with probability at most n/r (Schwartz–Zippel); one
// of the at most 2n factors is zero there with probability at most
// 2n/r. The one random-hash assumption left
// in the permutation checkers is RedistBuilder's Mix64 pair fold: two
// different pairs that fold to the same word are one element to the
// product. TestPermCheckerEscapeRateWithinDelta holds the construction
// at a weak field (r = 2^13 - 1) to 3n/r on the Table 6 manipulators
// and on manipulate.Rectangle, the byte rectangle it pins Tab64 to let
// through; TestDefaultPermRejectsRectangle runs that through the
// default, and FuzzPermProductChunks holds the kernel to an oracle.
//
// The zip checker's bound assumes nothing of the data either. Element e
// is the term a + y·q of the product's limbs, so different elements are
// different polynomials in y; position i weighs its term by z^i. A
// sequence's fingerprint F is the sum of the weighted terms, and an
// iteration seals (F(s1) - F(keys)) + w·(F(s2) - F(values)). A wrong
// output of the right length differs from the zip at some position, so
// this is a nonzero polynomial of total degree at most n+1 in (z, y,
// w), zero at a random point with probability at most (n+1)/r.
// TestZipCheckerEscapeRateWithinDelta holds the construction at the
// weak field to (n+1)/r on an adjacent swap, a key and value crossed, a
// rotation by one and the Table 6 manipulators on either component, and
// FuzzZipFingerprint holds the lane kernel to a direct sum.
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
//   - permutation products, one word an iteration: the ratio of the
//     input's product to the output's in F_(2^61-1) and the difference
//     of their zero-factor counts mod 8 (combine: multiply the ratios,
//     add the counts; accept: every word is 1);
//   - the 4-word sortedness interval (rank-ordered merge; accept: the
//     sorted flag survived);
//   - zip polynomial values in F_(2^61-1), one word an iteration
//     (combine: add; accept: every word is 0);
//   - the replica digest min/max pair (accept: min = max).
//
// SumAgg is one table, Avg two; Median is one or two tables plus a
// replica digest; Min/Max is a replica digest; Perm and Redist are a
// product; Sorted is a product plus an interval; Zip is polynomial
// values.
//
// Tables travel at the paper's bit count. A state packs them when it
// seals: each counter into m+1 bits, lane after lane, iteration-major,
// in ceil(lanes*width/64) words. The packing is lossless: a counter is
// a residue below r <= 2^(m+1), so m+1 bits hold it exactly. Combine
// adds packed lanes in place, mod r_i, without a carry crossing lanes,
// and a packed segment is all zero exactly when every lane is. A sum
// checker's wire bits are therefore TableBits rounded up to a word
// (Lemma 3, Table 2); the other four sketches stay 64-bit words, and
// the product is one word an iteration.
//
// A checker exists in two layers, and nothing else builds a state:
//
//   - the builder (builder.go), where a checker accumulates in chunks:
//     AddInput and AddOutput accumulate any number of chunks and Seal
//     freezes the partial into a CheckState. The streaming stages
//     (internal/stream) drive builders directly.
//   - the one-chunk constructor, New...State: a builder fed exactly one
//     chunk per side, or for the checkers without a builder the whole
//     local phase.
//
// Resolve — eagerly, one state per stage, or batched over every
// pending stage — is the only way from states to verdicts. Its flag
// words are keyed accept tokens against a zero reject, so a bit flipped
// in flight turns a verdict into ErrCorruptVerdict on the ranks it
// reaches, never a rejection into an acceptance.
//
// The checkers' O(n/p) local phase (Table 5) runs on a shared
// accumulation engine: blocked batch hashing (hashing.Hasher's
// Hash64Batch) and four-lane field products. It runs on the
// calling PE's goroutine and starts none: the PE is the unit of
// parallelism, as in the paper's machine model of p single-threaded
// PEs.
//
// The default permutation kernel fills no table: an element's factor
// is t[q] - a off 16 offsets built once per checker, and one 128-bit
// multiply into one of four lanes, folded lazily at 2^61 ≡ 1. A chunk
// whose product is 0 runs again element by element, the zero factors
// left out and counted, and Seal takes one Fermat inverse an iteration.
//
// The hash-sum kernel (HashSumChecker), which the paper's Fig. 5 and
// the Section 7.2 overhead rows run, hashes a block per iteration
// through Hash64Batch and sums it in four lanes.
//
// The sum checker's part of the engine is one kernel (SumChecker.addCells)
// built on exact cells and grouped tables; every sum-family table —
// sum, count, average and both median lanes — is filled through it. A
// cell is a signed int64,
// updated by one add: no modulus in the loop at all. An input element
// adds its value and an output element subtracts it, so a builder
// keeps one set of cells for both sides, and the cells of a correct
// result end at zero. g consecutive iterations that take their bucket
// bits from the same hash value share one table of 2^(g*width) cells,
// indexed by their g indices side by side, so an element costs
// ceil(its/g) updates rather than its — three for the default 15×4, not
// fifteen. g is derived, never configured (groupSize): as large as
// keeps a table within 2^10 cells (L1; the bulk plan's three tables
// are 24 KiB), inside one hash value, and at most an eighth of the run
// long, so the fold stays a small share of it; below that, the largest
// g whose groups have a lane kernel's shape; otherwise 1, where the
// cell tables have the its×d shape of the table itself. Each block is
// read once per hash value: where the groups drawn from one value have
// one of two shapes — five 6-bit groups (15×4 at g = 3) or three
// 10-bit ones (the bulk plan of 6×32, 15×4 and 30×2), the default's two
// plans — a hand-unrolled lane kernel updates all of them in one pass
// with constant shifts and masks; any other plan, 6×32's six 5-bit
// groups at g = 1 among them, takes one pass per group. That is the one
// family of lane kernels, on int64 cells.
//
// A cell is exact because of two bounds. Every term a cell takes is
// below 2^40 in magnitude: a block adds its values only if every value
// in it, as the run reads it, is below 2^40 (count mode reads every
// value as 1), and a block with a wider value is split into its 32-bit
// halves, both below 2^32. The same lane passes add the low halves
// into the cells and the high halves into a second int64 array of the
// same plan, which a scratch grows only when such a block appears; the
// fold scales each of its marginals by 2^32 mod r, one division a
// nonzero marginal. The gather that copies a block's keys for the hash
// also writes the values, signed, for the lane kernels and ORs them, so
// the test costs no pass of its own. And a run folds its cells before
// they have taken 2^23 elements (foldTerms), wide blocks included, so a
// cell, or any sum of a group's cells, stays below 2^23 · 2^40 = 2^63
// in magnitude in either array. Both arrays fold into the same
// counters: the checker is linear.
//
// A fold reads the cells the way the lanes fill them. A group of one
// iteration folds its cells as they are. A group of several folds one
// iteration per pass: the pass reads the cells in runs of d, adds each
// run into that iteration's d marginals (the cells of a run differ in
// their low index bits, the iteration's bucket) and writes the run's
// sum back in place, so that the next iteration's bucket is in the low
// bits of d times fewer cells. No pass shifts an index or checks a
// bound per cell, and only the d marginals of an iteration are reduced
// mod r (BenchmarkAblationDenseFold times it on dense cells).
//
// Every table is filled by one run (sumRun), the one fold policy: a
// run holds its cells from its first chunk to its finish and plans on
// its running element count, but never on fewer than two blocks (512
// elements). A 2 000-pair share fed in 256-pair chunks runs the lane
// plan it ends in from its first chunk and folds once, at the finish,
// unless it passes 2^23 elements; a run re-plans — folding first — only
// when a grown count widens its groups, for the default and 6×32 once,
// into the bulk plan. SumAggBuilder is one run, input added and output
// subtracted, finished at Seal. The average checker fills two, its sum
// and count lanes; the median checker one or two: its larger elements
// as counted input and its smaller ones as counted output into the
// balance lane, its equal ones into the equality lane and, at PE 0, the
// tie certificates' terms as values.
//
// The bucket count d is a power of two: a bucket index is log2 d bits
// of a hash value, and one value holds the indices of as many
// iterations as its bits cover (SumConfig.layout), so Validate rejects
// any other d.
//
// Section 4's optimisation is one search (config.go): over (d, m), the
// fewest iterations that reach the target delta, the configurations a
// filter keeps and the least by a comparator. Table 2 (Optimize) keeps
// every d whose table fits in b bits and wants the fewest iterations,
// so its rows may name a d this checker cannot run. The default
// configuration comes from ChooseSum, which keeps the power-of-two d up
// to 2^10 and minimises cell updates per element at the bulk plan, then
// hash evaluations, wire words and iterations.
//
// None of this can change a verdict. The checker is linear: a counter
// holds, mod r, the sum over the integers of the values whose key falls
// in its bucket, and an exact sum does not depend on how it was
// bracketed — per cell first, per half, per chunk. The table
// after Normalize is therefore bit-identical for every g, chunking and
// value width, and equal to the element-by-element reference
// (AccumulateScalar), which stays in the package as the test oracle.
package core
