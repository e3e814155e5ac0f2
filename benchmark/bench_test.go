package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tinySizes shrinks every workload so the whole smoke test runs in a
// couple of seconds; the shapes (p, input sets, job plan) stay.
var tinySizes = sizes{
	bulkPerPE:    400,
	zipfUniverse: 1500,
	chainPerPE:   96,
	servicePerPE: 64,
	streamChunk:  16,
	sets:         numInputSets,
	probeKeys:    4096,
	probeDiv:     20,
}

func tinyConfig(workload string) runConfig {
	return runConfig{workload: workload, seed: 11, seconds: 0.05, sz: tinySizes, setups: 1}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSON holds the committed BENCHMARK.json to the metric
// tables and to the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v (regenerate with: go run . -spec > ../BENCHMARK.json)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the metric tables in spec.go; regenerate with: go run . -spec > ../BENCHMARK.json")
	}
	if len(got) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}

	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(got))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(doc.Workloads) != 4 || len(doc.EndToEnd) < 1 || len(doc.EndToEnd) > 16 || len(doc.PerLayer) < 1 || len(doc.PerLayer) > 128 {
		t.Fatalf("limits: %d workloads (want 4), %d end-to-end (1..16), %d per-layer (1..128)", len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer))
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Fatalf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
	for _, arg := range doc.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q breaks the contract", arg)
		}
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	direction := func(n, unit, better string) {
		t.Helper()
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q does not match %v", n, unit, unitRE)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range doc.EndToEnd {
		name(m.Name)
		direction(m.Name, m.Unit, m.Better)
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in [0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Errorf("end_to_end needs setup_s with unit s, lower is better")
	}
	for _, m := range doc.PerLayer {
		name(m.Name)
		direction(m.Name, m.Unit, m.Better)
	}
}

// TestEveryMetricEmitted runs every workload in both modes on tiny
// inputs and checks that exactly the metrics of the tables come out,
// each with its unit, that no job fails, and that the contract line
// parses.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			table := endToEnd
			if traced {
				table = perLayer
			}
			res, err := runWorkload(tinyConfig(w.Name), traced, 1)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w.Name, traced, res.Attempted, res.Failed, res.Failures)
			}
			for _, m := range table {
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s is not emitted", w.Name, traced, m.Name)
				} else if v.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, table says %q", w.Name, m.Name, v.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s traced=%v: %d metrics emitted, table has %d", w.Name, traced, len(res.Metrics), len(table))
			}
			if !traced {
				for _, m := range table {
					if res.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
					}
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal([]byte(contractLine(res.Failed == 0, res.Attempted, res.Failed, res.Metrics)), &line); err != nil {
				t.Fatalf("contract line does not parse: %v", err)
			}
			if !line.Correct || len(line.Metrics) != len(table) {
				t.Errorf("contract line: correct=%v, %d metrics", line.Correct, len(line.Metrics))
			}
		}
	}
}

// TestFailureAccountingHasTeeth plants one defect per failure class and
// expects the accounting to see each: a wrong oracle must make every
// pipeline workload report wrong outputs, and a "corrupted" job that is
// in fact correct must be counted as an escape.
func TestFailureAccountingHasTeeth(t *testing.T) {
	for name := range pipeWorkloads {
		cfg := tinyConfig(name)
		cfg.sab.wrongOracle = true
		res, err := runWorkload(cfg, false, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed == 0 || res.Metrics["ok_ratio"].Value >= 1 {
			t.Errorf("%s: a wrong oracle went unnoticed (failed %d of %d)", name, res.Failed, res.Attempted)
		}
	}
	cfg := tinyConfig("service_mixed")
	cfg.sab.fakeCorruption = true
	res, err := runWorkload(cfg, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Metrics["ok_ratio"].Value >= 1 {
		t.Errorf("service_mixed: an accepted \"corrupted\" job was not counted as failed (failed %d of %d)", res.Failed, res.Attempted)
	}
	if res.Failed > 0 && !strings.Contains(strings.Join(res.Failures, "\n"), "corrupted output accepted") {
		t.Errorf("service_mixed: failures do not name the escape: %v", res.Failures)
	}
}

// TestJobPlan pins the rotation service_mixed depends on: within every
// 64 jobs each kind is corrupted equally often, one job in eight.
func TestJobPlan(t *testing.T) {
	corrupted := map[int]int{}
	total := 0
	for i := int64(0); i < 64; i++ {
		p := planJob(i, numInputSets)
		if p.kind != int(i%numKinds) {
			t.Fatalf("job %d: kind %d", i, p.kind)
		}
		if p.corrupted {
			corrupted[p.kind]++
			total++
		}
	}
	if total != 8 {
		t.Fatalf("%d corrupted jobs in 64, want 8", total)
	}
	for k := 0; k < numKinds; k++ {
		if corrupted[k] != 2 {
			t.Errorf("kind %d corrupted %d times in 64 jobs, want 2", k, corrupted[k])
		}
	}
}
