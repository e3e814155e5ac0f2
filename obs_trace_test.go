package repro_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/workload"
)

// chromeEvent mirrors the fields of one exported trace_event entry the
// assertions below care about.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int64   `json:"pid"`
	Tid  int64   `json:"tid"`
}

// TestChromeTraceHasEverySpanKind is the observability layer's
// acceptance test: a deferred pipeline with a Verify at every stage
// boundary must export a Chrome trace that is valid JSON and holds
// every span kind a checked job emits — stage, collective, resolve and
// recv-wait — with resolve spans on their own sibling lane.
func TestChromeTraceHasEverySpanKind(t *testing.T) {
	const (
		p      = 3
		stages = 4
		elems  = 60_000
	)
	tracer := obs.NewTracer(p, obs.DefaultCapacity)
	pairs := workload.UniformPairs(elems*p, 1<<62, 1<<62, 0x0b5)

	net := comm.NewMemNetworkTimeout(p, 0)
	defer net.Close()

	opts := repro.DefaultOptions()
	opts.Mode = repro.CheckDeferred
	opts.Tracer = tracer
	err := dist.RunNetwork(net, 42, func(w *dist.Worker) error {
		lo, hi := w.Rank()*elems, (w.Rank()+1)*elems
		local := pairs[lo:hi]
		ctx, err := repro.NewContext(w, opts)
		if err != nil {
			return err
		}
		for s := 0; s < stages; s++ {
			if err := ctx.AssertSum(local, local); err != nil {
				return err
			}
			if err := ctx.Verify(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}

	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var events []chromeEvent
	for _, raw := range doc.TraceEvents {
		var ev chromeEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatalf("event %s: %v", raw, err)
		}
		if ev.Ph == "X" {
			events = append(events, ev)
		}
	}

	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Cat]++
	}
	for _, want := range []string{"stage", "collective", "resolve", "recv-wait"} {
		if kinds[want] == 0 {
			t.Errorf("trace has no %q span (kinds: %v)", want, kinds)
		}
	}

	for _, ev := range events {
		if ev.Cat == "resolve" && ev.Tid%2 == 0 {
			t.Errorf("resolve span on even lane %d: resolve must ride the odd sibling lane", ev.Tid)
		}
	}
	if tracer.Dropped() != 0 {
		t.Errorf("tracer dropped %d spans at capacity %d", tracer.Dropped(), obs.DefaultCapacity)
	}
}

// TestGatherSpansMergesAllRanks runs a small traced pipeline and
// checks the collective span gather returns every rank's spans at
// rank 0 and nothing elsewhere.
func TestGatherSpansMergesAllRanks(t *testing.T) {
	const p = 4
	tracer := obs.NewTracer(p, obs.DefaultCapacity)
	opts := repro.DefaultOptions()
	opts.Mode = repro.CheckDeferred
	opts.Tracer = tracer

	gathered := make([][]obs.Span, p)
	err := repro.Run(p, 7, func(w *repro.Worker) error {
		ctx, err := repro.NewContext(w, opts)
		if err != nil {
			return err
		}
		pairs := []repro.Pair{{Key: 1, Value: uint64(w.Rank() + 1)}}
		if err := ctx.AssertSum(pairs, pairs); err != nil {
			return err
		}
		if err := ctx.Verify(); err != nil {
			return err
		}
		spans, err := dist.GatherSpans(w)
		if err != nil {
			return err
		}
		gathered[w.Rank()] = spans
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for r := 1; r < p; r++ {
		if gathered[r] != nil {
			t.Errorf("rank %d got %d gathered spans; only rank 0 should", r, len(gathered[r]))
		}
	}
	root := gathered[0]
	if len(root) == 0 {
		t.Fatal("rank 0 gathered no spans")
	}
	seen := map[int32]bool{}
	for i, s := range root {
		seen[s.Rank] = true
		if i > 0 && root[i-1].StartNs > s.StartNs {
			t.Fatalf("gathered spans not start-ordered at %d", i)
		}
	}
	for r := int32(0); r < p; r++ {
		if !seen[r] {
			t.Errorf("gather missing spans from rank %d", r)
		}
	}
}
