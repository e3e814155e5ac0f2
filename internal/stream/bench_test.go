package stream

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/workload"
)

var sinkU64 uint64

// BenchmarkStreamSumChunked measures the streamed sum checker's residue
// cost — accumulator construction, chunked drain, seal — at a
// cache-resident chunk size.
func BenchmarkStreamSumChunked(b *testing.B) {
	cfg := core.SumConfig{Iterations: 6, Buckets: 32, RHatLog: 9, Family: hashing.FamilyCRC}
	pairs := workload.UniformPairs(1<<16, 1<<62, 1<<62, 1)
	out := workload.UniformPairs(1<<10, 1<<62, 1<<62, 2)
	b.SetBytes(16 << 16)
	for i := 0; i < b.N; i++ {
		acc := New(core.NewSumAggBuilder("b", cfg, 1, core.Serial, false))
		if err := acc.DrainInput(SlicePairs(pairs, 4096)); err != nil {
			b.Fatal(err)
		}
		if err := acc.DrainOutput(SlicePairs(out, 4096)); err != nil {
			b.Fatal(err)
		}
		sinkU64 = acc.Seal().Words()[0]
	}
}

// BenchmarkStreamSortChunked is BenchmarkStreamSumChunked for the sort
// checker.
func BenchmarkStreamSortChunked(b *testing.B) {
	cfg := core.PermConfig{Iterations: 1}
	xs := workload.UniformU64s(1<<16, 1e12, 3)
	sorted := data.CloneU64s(xs)
	data.SortU64(sorted)
	b.SetBytes(2 * 8 << 16)
	for i := 0; i < b.N; i++ {
		acc := New(core.NewSortedBuilder("b", cfg, 1, core.Serial))
		if err := acc.DrainInput(SliceSeq(xs, 4096)); err != nil {
			b.Fatal(err)
		}
		if err := acc.DrainOutput(SliceSeq(sorted, 4096)); err != nil {
			b.Fatal(err)
		}
		sinkU64 = acc.Seal().Words()[0]
	}
}
