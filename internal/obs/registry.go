package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Quantile is a bounded ring of the most recent observations, read as
// nearest-rank p50/p99/max plus a running count — a sliding window, so
// a long-running pool's p99 tracks recent behaviour instead of
// averaging over its whole history. The zero value is ready to use.
type Quantile struct {
	mu    sync.Mutex
	buf   []int64
	next  int
	n     int
	count int64
}

const quantileRingSize = 4096

// Observe records one sample. Nil-safe.
func (q *Quantile) Observe(v int64) {
	if q == nil {
		return
	}
	q.mu.Lock()
	if len(q.buf) == 0 {
		q.buf = make([]int64, quantileRingSize)
	}
	q.buf[q.next] = v
	q.next = (q.next + 1) % len(q.buf)
	if q.n < len(q.buf) {
		q.n++
	}
	q.count++
	q.mu.Unlock()
}

// Snapshot returns the lifetime count and the p50, p99 and max of the
// retained window (zeros while it is empty).
func (q *Quantile) Snapshot() (count, p50, p99, max int64) {
	q.mu.Lock()
	vals := make([]int64, q.n)
	copy(vals, q.buf[:q.n])
	count = q.count
	q.mu.Unlock()
	if len(vals) == 0 {
		return count, 0, 0, 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	pick := func(p float64) int64 {
		i := int(p * float64(len(vals)-1))
		return vals[i]
	}
	return count, pick(0.50), pick(0.99), vals[len(vals)-1]
}

// entry is one registered metric: exactly one of the fields is set.
type entry struct {
	gauge  func() int64
	fgauge func() float64
	quant  *Quantile
}

// Registry is one named roof over the runtime's meters: pull-style
// gauges reading the existing atomic meters in place, and quantile
// rings. The registry owns no meter of its own. Registering a name
// again replaces its entry.
type Registry struct {
	mu      sync.Mutex
	entries map[string]entry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]entry)}
}

// Gauge registers a pull-style int64 gauge read at render time.
func (r *Registry) Gauge(name string, fn func() int64) {
	r.mu.Lock()
	r.entries[name] = entry{gauge: fn}
	r.mu.Unlock()
}

// GaugeFloat registers a pull-style float gauge.
func (r *Registry) GaugeFloat(name string, fn func() float64) {
	r.mu.Lock()
	r.entries[name] = entry{fgauge: fn}
	r.mu.Unlock()
}

// Quantile registers its owner's quantile ring under name, like a
// gauge: read in place at render time, as name_count, name_p50,
// name_p99 and name_max.
func (r *Registry) Quantile(name string, q *Quantile) {
	r.mu.Lock()
	r.entries[name] = entry{quant: q}
	r.mu.Unlock()
}

// Snapshot evaluates every metric into a flat name → value map;
// quantile rings expand into their _count/_p50/_p99/_max views.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	names := make([]string, 0, len(r.entries))
	ents := make([]entry, 0, len(r.entries))
	for n, e := range r.entries {
		names = append(names, n)
		ents = append(ents, e)
	}
	r.mu.Unlock()

	out := make(map[string]float64, len(names))
	for i, name := range names {
		e := ents[i]
		switch {
		case e.gauge != nil:
			out[name] = float64(e.gauge())
		case e.fgauge != nil:
			out[name] = e.fgauge()
		case e.quant != nil:
			count, p50, p99, max := e.quant.Snapshot()
			out[name+"_count"] = float64(count)
			out[name+"_p50"] = float64(p50)
			out[name+"_p99"] = float64(p99)
			out[name+"_max"] = float64(max)
		}
	}
	return out
}

// Render writes the registry as sorted "name value" lines — the
// /metrics wire format. Integral values render without an exponent so
// byte and message counters stay grep-able.
func (r *Registry) Render(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := snap[n]
		var err error
		if v == float64(int64(v)) {
			_, err = fmt.Fprintf(w, "%s %d\n", n, int64(v))
		} else {
			_, err = fmt.Fprintf(w, "%s %g\n", n, v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
