package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/benchmark/meternet"
)

// The traced run's span recorder. Spans are opened and closed by
// benchmark-owned code around the calls into each layer, and by the
// meternet decorator around every endpoint call. Each closed span adds
// its duration, and its self time — the duration minus what its child
// spans cover — to a per-rank, per-name aggregate; the spans of the
// first few jobs are also kept whole and written as a Chrome trace when
// the run ends. Nothing is written while jobs run.

// spanRec is one kept span, times in nanoseconds since the recorder's
// epoch.
type spanRec struct {
	Name   string
	Rank   int
	Tid    int
	Job    int64
	ID     int64
	Parent int64
	Start  int64
	End    int64
}

// keepComm is how many un-parented endpoint spans a lane keeps for the
// trace file.
const keepComm = 4096

// layerAgg accumulates the spans of one name on one rank.
type layerAgg struct {
	Calls  int64
	Ns     int64
	SelfNs int64
}

type lane struct {
	mu      sync.Mutex
	agg     map[string]*layerAgg
	current *open // innermost open span; nested recorders only
	kept    []spanRec
}

// recorder collects spans for one traced variant. With nested set, each
// rank's spans open and close on one goroutine, so an endpoint call is
// a child of the rank's innermost open span; without it (a service
// pool, where the jobs of one rank interleave) endpoint calls are kept
// on the rank's lane with no parent.
type recorder struct {
	epoch    time.Time
	nested   bool
	keepJobs int64
	nextID   atomic.Int64
	lanes    []lane
}

// newRecorder records ranks lanes plus one client lane (index ranks).
func newRecorder(ranks int, nested bool, keepJobs int64) *recorder {
	r := &recorder{epoch: time.Now(), nested: nested, keepJobs: keepJobs, lanes: make([]lane, ranks+1)}
	for i := range r.lanes {
		r.lanes[i].agg = make(map[string]*layerAgg)
	}
	return r
}

// open is a span in flight.
type open struct {
	r       *recorder
	name    string
	rank    int
	tid     int
	job     int64
	id      int64
	parent  *open
	start   time.Time
	childNs int64 // guarded by the lane's mutex
}

// begin opens a span on rank's lane under parent (nil for a root).
func (r *recorder) begin(rank int, job int64, parent *open, name string) *open {
	o := &open{r: r, name: name, rank: rank, job: job, id: r.nextID.Add(1), parent: parent}
	if parent != nil {
		o.tid = parent.tid
	}
	if r.nested {
		ln := &r.lanes[rank]
		ln.mu.Lock()
		ln.current = o
		ln.mu.Unlock()
	}
	o.start = time.Now()
	return o
}

// end closes the span and returns its duration.
func (o *open) end() time.Duration {
	end := time.Now()
	dur := end.Sub(o.start)
	r := o.r
	ln := &r.lanes[o.rank]
	ln.mu.Lock()
	ln.add(o.name, dur.Nanoseconds(), dur.Nanoseconds()-o.childNs)
	if r.nested {
		ln.current = o.parent
	}
	if o.job < r.keepJobs {
		var parent int64
		if o.parent != nil {
			parent = o.parent.id
		}
		ln.kept = append(ln.kept, spanRec{Name: o.name, Rank: o.rank, Tid: o.tid, Job: o.job, ID: o.id, Parent: parent,
			Start: o.start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	}
	ln.mu.Unlock()
	if p := o.parent; p != nil {
		// A parent may live on another lane (a job's client span owns the
		// rank bodies), so its child time has its own lock.
		pl := &r.lanes[p.rank]
		pl.mu.Lock()
		p.childNs += dur.Nanoseconds()
		pl.mu.Unlock()
	}
	return dur
}

func (ln *lane) add(name string, ns, self int64) {
	a := ln.agg[name]
	if a == nil {
		a = &layerAgg{}
		ln.agg[name] = a
	}
	a.Calls++
	a.Ns += ns
	a.SelfNs += self
}

// sink is the meternet.Sink of the recorder: every endpoint call becomes
// a leaf span on its rank's lane.
func (r *recorder) sink(ev meternet.Event) {
	ln := &r.lanes[ev.Rank]
	dur := ev.End.Sub(ev.Start).Nanoseconds()
	name := ev.Op.String()
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.add(name, dur, dur)
	job, parent, keep := int64(-1), int64(0), false
	if cur := ln.current; cur != nil {
		cur.childNs += dur
		job, parent = cur.job, cur.id
		keep = job < r.keepJobs
	} else if !r.nested {
		keep = len(ln.kept) < keepComm
	}
	if keep {
		ln.kept = append(ln.kept, spanRec{Name: name, Rank: ev.Rank, Job: job, ID: r.nextID.Add(1), Parent: parent,
			Start: ev.Start.Sub(r.epoch).Nanoseconds(), End: ev.End.Sub(r.epoch).Nanoseconds()})
	}
}

// total returns rank's aggregate for name (zero when never recorded).
func (r *recorder) total(rank int, name string) layerAgg {
	ln := &r.lanes[rank]
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if a := ln.agg[name]; a != nil {
		return *a
	}
	return layerAgg{}
}

// totalAll sums name's aggregate over the rank lanes.
func (r *recorder) totalAll(name string) layerAgg {
	var t layerAgg
	for rank := 0; rank < len(r.lanes)-1; rank++ {
		a := r.total(rank, name)
		t.Calls += a.Calls
		t.Ns += a.Ns
		t.SelfNs += a.SelfNs
	}
	return t
}

// clientLane is the lane index of spans recorded by the job generator.
func (r *recorder) clientLane() int { return len(r.lanes) - 1 }

// writeChromeTrace writes the kept spans in Chrome trace_event format:
// pid is the rank (the client lane comes last), complete events carry
// the job and parent span ids.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args,omitempty"`
	}
	type meta struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Pid  int               `json:"pid"`
		Args map[string]string `json:"args"`
	}
	var events []any
	for i := range r.lanes {
		label := fmt.Sprintf("rank %d", i)
		if i == r.clientLane() {
			label = "client"
		}
		events = append(events, meta{Name: "process_name", Ph: "M", Pid: i, Args: map[string]string{"name": label}})
		ln := &r.lanes[i]
		ln.mu.Lock()
		for _, s := range ln.kept {
			events = append(events, event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Pid: s.Rank, Tid: s.Tid, Args: map[string]int64{"job": s.Job, "id": s.ID, "parent": s.Parent}})
		}
		ln.mu.Unlock()
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, buf, 0o644)
}
