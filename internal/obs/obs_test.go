package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(3, 7, 9, KindCollective, "allreduce")
	sp.End() // must not panic
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer produced spans")
	}
	if tr.Ranks() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer reports state")
	}
}

func TestTracerRecordsAndSorts(t *testing.T) {
	tr := NewTracer(2, 16)
	a := tr.Start(1, 5, 100, KindStage, "sum#0")
	time.Sleep(time.Millisecond)
	b := tr.Start(0, 5, 100, KindResolve, "resolve")
	b.End()
	a.End()
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Snapshot is start-ordered: rank 1's span started first.
	if spans[0].Rank != 1 || spans[0].Kind != KindStage || spans[0].Name != "sum#0" {
		t.Fatalf("first span wrong: %+v", spans[0])
	}
	if spans[1].Kind != KindResolve {
		t.Fatalf("second span wrong: %+v", spans[1])
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Fatalf("span ends before it starts: %+v", s)
		}
		if s.Job != 5 || s.Tag != 100 {
			t.Fatalf("job/tag not threaded: %+v", s)
		}
	}
	if got := tr.SpansOf(1); len(got) != 1 || got[0].Name != "sum#0" {
		t.Fatalf("SpansOf(1) = %+v", got)
	}
}

func TestTracerRingWrapsAndCountsDrops(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 0; i < 10; i++ {
		tr.record(Span{Rank: 0, Name: fmt.Sprintf("s%d", i), StartNs: int64(i)})
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	// Oldest-first: the last four recorded survive.
	for i, s := range spans {
		if want := fmt.Sprintf("s%d", i+6); s.Name != want {
			t.Fatalf("slot %d = %q, want %q", i, s.Name, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	// Out-of-range rank counts as dropped, never panics.
	tr.record(Span{Rank: 99})
	if tr.Dropped() != 7 {
		t.Fatalf("stray span not counted: %d", tr.Dropped())
	}
}

func TestTracerConcurrentEmission(t *testing.T) {
	tr := NewTracer(8, 256)
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := tr.Start(rank, int64(i), 0, KindCollective, "op")
				sp.End()
			}
		}(r)
	}
	wg.Wait()
	if got := len(tr.Snapshot()); got != 800 {
		t.Fatalf("got %d spans, want 800", got)
	}
}

func TestSpanCodecRoundTrip(t *testing.T) {
	in := []Span{
		{Rank: 0, Kind: KindStage, Job: 1, Tag: 1 << 31, Name: "sort#1", StartNs: 12345, EndNs: 23456},
		{Rank: 3, Kind: KindRecvWait, Job: -1, Tag: 0, Name: "", StartNs: -5, EndNs: 5},
		{Rank: 7, Kind: KindResolve, Job: 1 << 40, Tag: 99, Name: "verify", StartNs: 1, EndNs: 2},
	}
	out, err := DecodeSpans(EncodeSpans(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
	if _, err := DecodeSpans([]byte{1, 2}); err == nil {
		t.Fatal("truncated blob decoded")
	}
	if _, err := DecodeSpans(EncodeSpans(in)[:20]); err == nil {
		t.Fatal("truncated span decoded")
	}
}

func TestChromeTraceShape(t *testing.T) {
	tr := NewTracer(2, 16)
	tr.record(Span{Rank: 0, Kind: KindStage, Job: 2, Name: "sum#0", StartNs: 1000, EndNs: 5000})
	tr.record(Span{Rank: 0, Kind: KindResolve, Job: 2, Name: "resolve", StartNs: 2000, EndNs: 4000})
	tr.record(Span{Rank: 1, Kind: KindCollective, Job: 2, Name: "allreduce", StartNs: 1500, EndNs: 1600})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var xEvents, metas int
	lanes := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			xEvents++
			lanes[ev["tid"].(float64)] = true
			if ev["ts"].(float64) < 0 || ev["dur"].(float64) < 0 {
				t.Fatalf("negative ts/dur: %v", ev)
			}
		case "M":
			metas++
		}
	}
	if xEvents != 3 {
		t.Fatalf("got %d X events, want 3", xEvents)
	}
	if metas != 2 {
		t.Fatalf("got %d process_name metas, want 2 (one per rank)", metas)
	}
	// The resolve span must land on the odd sibling lane of its job.
	if !lanes[4] || !lanes[5] {
		t.Fatalf("lanes = %v, want compute lane 4 and async lane 5 for job 2", lanes)
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	r.Gauge("comm_bytes_sent", func() int64 { return 41 })
	r.Gauge("comm_bytes_sent", func() int64 { return 42 }) // replaces
	r.Gauge("pool_inflight", func() int64 { return 7 })
	r.GaugeFloat("pool_jobs_per_sec", func() float64 { return 12.5 })
	var q Quantile
	r.Quantile("job_latency_ns", &q)
	for i := 1; i <= 100; i++ {
		q.Observe(int64(i))
	}

	snap := r.Snapshot()
	if snap["comm_bytes_sent"] != 42 || snap["pool_inflight"] != 7 {
		t.Fatalf("snapshot wrong: %v", snap)
	}
	if snap["job_latency_ns_count"] != 100 || snap["job_latency_ns_max"] != 100 {
		t.Fatalf("quantile snapshot wrong: %v", snap)
	}
	if p50 := snap["job_latency_ns_p50"]; p50 < 40 || p50 > 60 {
		t.Fatalf("p50 = %v, want ≈50", p50)
	}

	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !sortedLines(lines) {
		t.Fatalf("render not sorted:\n%s", out)
	}
	if !strings.Contains(out, "comm_bytes_sent 42\n") {
		t.Fatalf("integral gauge not rendered as integer:\n%s", out)
	}
	if !strings.Contains(out, "pool_jobs_per_sec 12.5\n") {
		t.Fatalf("float gauge missing:\n%s", out)
	}
}

func sortedLines(lines []string) bool {
	for i := 1; i < len(lines); i++ {
		if lines[i] < lines[i-1] {
			return false
		}
	}
	return true
}

func TestNilQuantileSafe(t *testing.T) {
	var q *Quantile
	q.Observe(3) // must not panic
}
