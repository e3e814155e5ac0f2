package stream

import "repro/internal/core"

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
// every chunking (see internal/core/builder.go).
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

// New wraps b, any core builder — the sum, permutation, sort and
// redistribution builders of internal/core/builder.go — into an
// Accumulator over its element type T.
func New[T any](b builder[T]) *Accumulator[T] { return &Accumulator[T]{b: b} }
