package repro

// WithParallelism is kept only because benchmark/ calls it (ROADMAP
// item 4's shim rule): it sets Options.Parallelism, which nothing reads.
func (o Options) WithParallelism(n int) Options {
	o.Parallelism = n
	return o
}
