package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// result is what one run of one workload in one mode produced: the
// metric values, the samples and summaries behind the sampled ones, the
// failure accounting, and where and how it was measured.
type result struct {
	Workload   string                 `json:"workload"`
	Traced     bool                   `json:"traced"`
	Seed       uint64                 `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Metrics    map[string]metricValue `json:"metrics"`
	Summaries  map[string]summary     `json:"summaries"`
	Samples    map[string][]float64   `json:"samples"`
	Counts     map[string]float64     `json:"counts"`
	Derived    []string               `json:"derived"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Failures   []string               `json:"failures,omitempty"`
	Provenance provenance             `json:"provenance"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(cfg runConfig, traced bool) *result {
	return &result{
		Workload: cfg.workload, Traced: traced, Seed: cfg.seed, Seconds: cfg.seconds,
		Metrics:   make(map[string]metricValue),
		Summaries: make(map[string]summary),
		Samples:   make(map[string][]float64),
		Counts:    make(map[string]float64),
	}
}

// set records a metric; the unit comes from the spec table, so a name
// the table does not know is a programming error.
func (r *result) set(name string, v float64) {
	table := endToEnd
	if r.Traced {
		table = perLayer
	}
	for _, m := range table {
		if m.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
			return
		}
	}
	panic(fmt.Sprintf("benchmark: metric %q is not in the spec table of this mode", name))
}

// sample records the samples behind a metric and their summary.
func (r *result) sample(name string, xs []float64) {
	r.Samples[name] = xs
	r.Summaries[name] = summarize(xs)
}

func (r *result) addFailures(f failureCount) {
	r.Attempted += f.attempted
	r.Failed += f.failed
	for _, f := range f.failures {
		if len(r.Failures) < 10 {
			r.Failures = append(r.Failures, f)
		}
	}
}

// provenance is the block every result file carries.
type provenance struct {
	CPUModel      string  `json:"cpu_model"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	Seed          uint64  `json:"seed"`
	CalibrationMs float64 `json:"bench.calibration_ms"`
	When          string  `json:"when"`
}

func readProvenance(seed uint64, calibrationMs float64) provenance {
	return provenance{
		CPUModel:      cpuModel(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Commit:        commit(),
		Seed:          seed,
		CalibrationMs: calibrationMs,
		When:          time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checkout: the git HEAD when the working directory or
// its parent is a repository, "unknown" in an exported tree. It reads
// .git by hand so the benchmark starts no process.
func commit() string {
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		h := strings.TrimSpace(string(head))
		ref, isRef := strings.CutPrefix(h, "ref: ")
		if !isRef {
			return short(h)
		}
		if buf, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return short(strings.TrimSpace(string(buf)))
		}
		if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
					return short(hash)
				}
			}
		}
	}
	return "unknown"
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// calibrate times a fixed kernel — CRC-32C over 64 MiB, from the
// standard library so no change to this repository moves it — and
// returns the median of three passes in milliseconds. Dividing a timing
// by it normalises results taken on different machines.
func calibrate() float64 {
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	table := crc32.MakeTable(crc32.Castagnoli)
	var ms []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		probeSink ^= uint64(crc32.Checksum(buf, table))
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return median(ms)
}

// probeSink keeps the results of timed kernels alive so the compiler
// cannot remove the calls.
var probeSink uint64

// print writes the human summary: one line per metric with median,
// quartiles and n where the metric is sampled, then the derived ratios
// with their bases.
func (r *result) print(w io.Writer) {
	mode := "untraced, end-to-end"
	table := endToEnd
	if r.Traced {
		mode, table = "traced, per-layer", perLayer
	}
	fmt.Fprintf(w, "== %s (%s; seed %d, %.0f s) ==\n", r.Workload, mode, r.Seed, r.Seconds)
	for _, m := range table {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-34s %14.6g %-6s", m.Name, v.Value, v.Unit)
		if s, ok := r.Summaries[m.Name]; ok && s.N > 0 {
			line += fmt.Sprintf("  median %.6g  q1 %.6g  q3 %.6g  p10 %.6g  p90 %.6g  n=%d", s.Median, s.Q1, s.Q3, s.P10, s.P90, s.N)
		}
		fmt.Fprintln(w, line)
	}
	for _, d := range r.Derived {
		fmt.Fprintln(w, "  "+d)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAILED "+f)
	}
}

// write stores the result under dir as <workload>.json, or
// <workload>.layers.json for the traced run's numbers.
func (r *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := r.Workload + ".json"
	if r.Traced {
		name = r.Workload + ".layers.json"
	}
	buf, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), buf, 0o644)
}

// contractLine renders the last line of standard output the driver
// parses.
func contractLine(correct bool, attempted, failed int, metrics map[string]metricValue) string {
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		panic(err) // booleans, integers and finite floats always encode
	}
	return string(line)
}
