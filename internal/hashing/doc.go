// Package hashing provides the hash-function substrate used by the
// checkers: CRC-32C, tabulation hashing (32- and 64-bit output), a keyed
// strong mixer standing in for the paper's "random hash function" model,
// the MT19937 and MT19937-64 Mersenne Twister generators the paper draws
// pseudo-random numbers from, carry-less GF(2^64) multiplication, modular
// arithmetic over the Mersenne prime 2^61-1 for the polynomial
// permutation checker (Lemma 5), and a deterministic primality test.
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
