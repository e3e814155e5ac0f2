// Package hashing provides the hash-function substrate used by the
// checkers: CRC-32C, tabulation hashing (32- and 64-bit output), a keyed
// strong mixer standing in for the paper's "random hash function" model,
// the MT19937-64 Mersenne Twister the paper draws pseudo-random numbers
// from, the SplitMix64 stream that expands seeds, and modular
// arithmetic over the Mersenne prime 2^61-1 for the permutation
// checker's product (Lemma 5) and the zip fingerprints.
//
// Which generator feeds what: inputs, manipulators and every PE's
// private Rng draw from MT19937-64, as in the paper. What a checker
// derives from its seed — sub-seeds, the sum checker's moduli, and the
// tabulation tables, which the paper fills from a Mersenne Twister —
// comes from SplitMix64. The departure is measured: a checker is built
// per stage, per job and per PE, and seeding a twister for each table
// cost 18 µs against 1.3 µs for a block fill, which for a 2 000-element
// service job was a third of its CPU; and the 32-bit twister keyed a
// table with only 32 of its sub-seed's 64 bits (see Tabulation32).
// Recycle returns a finished checker's tables for the next one to fill.
//
// All hash functions are keyed: a Family produces independent Hasher
// instances from seeds, so each checker iteration can draw a fresh
// function from the family. Families are registered by the names used in
// the paper's plots: "CRC", "Tab", "Tab64", and "Mix" (the ideal model).
//
// Every Hasher also provides Hash64Batch, a block form of Hash64 with a
// specialised loop per family (no per-element interface dispatch); the
// checker hot paths consume keys exclusively through it.
package hashing
