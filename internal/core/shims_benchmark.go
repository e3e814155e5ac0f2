package core

// The names in this file are kept only because benchmark/ compiles
// against them (ROADMAP item 4's shim rule); they go when the benchmark
// moves off them. A checker accumulates on its own PE's goroutine, so
// there is nothing for them to configure.

// ParallelAccumulator is the argument NewSumAggBuilder, NewPermBuilder,
// NewSortedBuilder and stream.NewSumAccumulator take and ignore.
type ParallelAccumulator struct{}

// Serial is the ParallelAccumulator value.
var Serial ParallelAccumulator

// NewParallelAccumulator returns Serial for every n.
func NewParallelAccumulator(int) ParallelAccumulator { return Serial }
