// Command benchmark is this repository's benchmark of record: four
// checked-job workloads run against the public repro.Context and
// service.Pool APIs, every output compared with a sequential oracle,
// twelve end-to-end metrics from an untraced run and a per-layer budget
// from a second, traced run of the same jobs. See README.md.
//
//	bash benchmark/run.sh                        every workload, both runs
//	bash benchmark/run.sh -workload sort_uniform one workload
//	bash benchmark/run.sh -trace 1               the traced run only
//	bash benchmark/run.sh -seed 7                other inputs
//	bash benchmark/run.sh -repeat 2              repeatability report
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is 1 when any
// job failed its check.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", defaultSeed, "derives every input and every run seed")
	seconds := fs.Float64("seconds", defaultSeconds, "measuring time of one run of one workload")
	trace := fs.String("trace", "both", "0: untraced end-to-end run, 1: traced per-layer run, both: one after the other")
	repeat := fs.Int("repeat", 1, "run everything this many times and report each metric's relative difference")
	spec := fs.Bool("spec", false, "print BENCHMARK.json as the metric tables define it and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		doc, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		os.Stdout.Write(doc)
		return 0
	}
	names := workloadNames()
	if *workload != "all" {
		if !slices.Contains(names, *workload) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want %s or all)\n", *workload, strings.Join(names, ", "))
			return 2
		}
		names = []string{*workload}
	}
	var modes []bool // traced?
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "benchmark: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	if *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -repeat at least 1")
		return 2
	}
	outDir := defaultOutDir()

	// The fixed shape of every run: p PEs on at most p cores.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), numPEs))
	calibration := calibrate()

	all := make([][]*result, *repeat)
	for rep := range all {
		for _, name := range names {
			for _, traced := range modes {
				cfg := runConfig{workload: name, seed: *seed, seconds: *seconds, sz: fullSizes, setups: 5}
				if traced {
					cfg.setups = 1
					cfg.traceOut = filepath.Join(outDir, name+".trace.json")
				}
				res, err := runWorkload(cfg, traced, calibration)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				res.Provenance = readProvenance(*seed, calibration)
				res.print(os.Stdout)
				if err := res.write(outDir); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark: result file:", err)
					return 1
				}
				all[rep] = append(all[rep], res)
			}
		}
	}
	if *repeat > 1 {
		printRepeatability(os.Stdout, all)
	}

	// The contract line covers the last repetition.
	metrics := make(map[string]metricValue)
	attempted, failed := 0, 0
	for _, res := range all[len(all)-1] {
		attempted += res.Attempted
		failed += res.Failed
		for name, v := range res.Metrics {
			key := name
			if len(names) > 1 {
				key = res.Workload + "/" + name
			}
			metrics[key] = v
		}
	}
	fmt.Println(contractLine(failed == 0, attempted, failed, metrics))
	if failed != 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

// defaultOutDir is benchmark/out whether the program was started from
// the repository root (run.sh) or from the benchmark directory (go run).
func defaultOutDir() string {
	if _, err := os.Stat("benchmark/go.mod"); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// runWorkload runs one workload in one mode.
func runWorkload(cfg runConfig, traced bool, calibrationMs float64) (*result, error) {
	if wl, ok := pipeWorkloads[cfg.workload]; ok {
		if traced {
			return runPipelineTraced(wl, cfg, calibrationMs)
		}
		return runPipelineUntraced(wl, cfg)
	}
	if cfg.workload == "service_mixed" {
		if traced {
			return runServiceTraced(cfg, calibrationMs)
		}
		return runServiceUntraced(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}
