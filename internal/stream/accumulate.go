package stream

import (
	"repro/internal/core"
	"repro/internal/data"
)

// Meter instruments one side (input or output) of a streaming
// accumulation: how many chunks were consumed, how many elements they
// carried in total, and the largest chunk that was ever resident at
// once — the streaming stage's memory high-water mark in elements.
type Meter struct {
	Chunks       int
	Elements     int
	PeakResident int
}

func (m *Meter) observe(n int) {
	m.Chunks++
	m.Elements += n
	if n > m.PeakResident {
		m.PeakResident = n
	}
}

// Merge folds another meter into m: chunk and element totals add, the
// peak footprint is the maximum (the sides were resident one at a
// time): the in+out total a stage's stats report.
func (m *Meter) Merge(o Meter) {
	m.Chunks += o.Chunks
	m.Elements += o.Elements
	if o.PeakResident > m.PeakResident {
		m.PeakResident = o.PeakResident
	}
}

// builder is what the core builders (internal/core/builder.go) have in
// common: chunks of the operation's input and of its asserted output
// accumulate into a mergeable partial that Seal freezes into the
// two-phase checker state.
type builder[T any] interface {
	AddInput([]T)
	AddOutput([]T)
	Seal() core.CheckState
}

// Accumulator wraps a core builder with chunk metering and the source
// drive loops: the streamed form of one checker's local phase over
// chunks of T. An Accumulator is single-use and owned by one goroutine.
// The sealed state is bit-identical to the one-shot constructor's for
// every chunking and worker count (see internal/core/builder.go).
type Accumulator[T any] struct {
	b builder[T]
	// In and Out meter the input and the asserted-output side.
	In, Out Meter
}

// AddInputChunk accumulates one chunk of the operation's input.
func (a *Accumulator[T]) AddInputChunk(xs []T) {
	a.In.observe(len(xs))
	a.b.AddInput(xs)
}

// AddOutputChunk accumulates one chunk of the asserted result.
func (a *Accumulator[T]) AddOutputChunk(xs []T) {
	a.Out.observe(len(xs))
	a.b.AddOutput(xs)
}

// DrainInput pulls every chunk of src through AddInputChunk.
func (a *Accumulator[T]) DrainInput(src Source[T]) error { return Drain(src, a.AddInputChunk) }

// DrainOutput pulls every chunk of src through AddOutputChunk.
func (a *Accumulator[T]) DrainOutput(src Source[T]) error { return Drain(src, a.AddOutputChunk) }

// Seal freezes the partial into the two-phase checker state.
func (a *Accumulator[T]) Seal() core.CheckState { return a.b.Seal() }

// NewSumAccumulator starts an empty streamed sum (with count: count)
// aggregation check — input chunks and asserted-output chunks, in any
// order on either side; every chunk's accumulation is sharded across
// par.
func NewSumAccumulator(stage string, cfg core.SumConfig, seed uint64, par core.ParallelAccumulator, count bool) *Accumulator[data.Pair] {
	return &Accumulator[data.Pair]{b: core.NewSumAggBuilder(stage, cfg, seed, par, count)}
}

// NewPermAccumulator starts an empty streamed permutation check: chunks
// of the input sequence(s) and of the asserted output, any order on
// either side.
func NewPermAccumulator(stage string, cfg core.PermConfig, seed uint64, par core.ParallelAccumulator) *Accumulator[uint64] {
	return &Accumulator[uint64]{b: core.NewPermBuilder(stage, cfg, seed, par)}
}

// NewSortAccumulator starts an empty streamed sort check. Input chunks
// may arrive in any order; output chunks must arrive in sequence order
// — each AddOutputChunk is the next contiguous segment of this PE's
// asserted sorted output, which is what DrainOutput feeds it from any
// source of this package.
func NewSortAccumulator(stage string, cfg core.PermConfig, seed uint64, par core.ParallelAccumulator) *Accumulator[uint64] {
	return &Accumulator[uint64]{b: core.NewSortedBuilder(stage, cfg, seed, par)}
}

// NewRedistAccumulator starts an empty streamed redistribution check
// (Corollaries 14, 15): the input side is this PE's pairs before the
// exchange, the output side its pairs after it (placement scan
// included), any order on either side; loc and rank pin this PE's
// placement contract.
func NewRedistAccumulator(stage string, cfg core.PermConfig, seed uint64, par core.ParallelAccumulator, loc core.KeyLocator, rank int) *Accumulator[data.Pair] {
	return &Accumulator[data.Pair]{b: core.NewRedistBuilder(stage, cfg, seed, par, loc, rank)}
}
