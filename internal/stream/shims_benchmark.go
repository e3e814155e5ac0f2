package stream

import (
	"repro/internal/core"
	"repro/internal/data"
)

// NewSumAccumulator is New over core.NewSumAggBuilder, kept only
// because benchmark/ compiles against it (ROADMAP item 4's shim rule);
// it goes when the benchmark moves off it.
func NewSumAccumulator(stage string, cfg core.SumConfig, seed uint64, _ core.ParallelAccumulator, count bool) *Accumulator[data.Pair] {
	return New(core.NewSumAggBuilder(stage, cfg, seed, core.Serial, count))
}
