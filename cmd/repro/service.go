package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/service"
)

// runServe brings up a resident verification pool and drives synthetic
// open-loop traffic over it until the duration elapses (or SIGINT),
// printing service-level stats once a second — the long-lived service
// shape of the paper's always-on checkers, observable from a terminal.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	p := fs.Int("p", 4, "PEs in the resident mesh")
	concurrency := fs.Int("concurrency", 64, "in-flight job bound")
	elements := fs.Int("elements", 2000, "elements per PE per job")
	seed := fs.Uint64("seed", 42, "pool seed")
	duration := fs.Duration("duration", 10*time.Second, "how long to serve (0 = until interrupt)")
	debugAddr := fs.String("debug-addr", "",
		"serve live introspection at this address: /metrics, /trace, /stats, /debug/pprof/")
	traceOut := fs.String("trace", "", "write a Chrome trace of the run's spans to this file on exit")
	var cfg dist.Config
	resolve := transportFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := resolve(); err != nil {
		return err
	}

	var tracer *obs.Tracer
	if *debugAddr != "" || *traceOut != "" {
		tracer = obs.NewTracer(*p, obs.DefaultCapacity)
	}
	pool, err := service.New(service.Options{
		P:             *p,
		Seed:          *seed,
		Dist:          cfg,
		MaxConcurrent: *concurrency,
		JobTimeout:    2 * time.Minute,
		Tracer:        tracer,
	})
	if err != nil {
		return err
	}
	defer pool.Close()
	if *debugAddr != "" {
		bound, err := serveDebug(*debugAddr, newDebugMux(pool.Registry(), tracer, pool.Stats))
		if err != nil {
			return err
		}
		fmt.Printf("debug server: http://%s/ (metrics, trace, stats, pprof)\n", bound)
	}
	fmt.Printf("serving: %d PEs over %s, up to %d concurrent jobs (interrupt to stop)\n",
		pool.Size(), transportName(cfg), *concurrency)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	defer signal.Stop(stop)
	var deadline <-chan time.Time
	if *duration > 0 {
		deadline = time.After(*duration)
	}
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()

	gen := exp.NewServeTraffic(*p, *elements, *seed)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-deadline:
				return
			default:
			}
			if err := gen.SubmitOne(pool, i); err != nil {
				if err != service.ErrPoolClosed {
					fmt.Fprintln(os.Stderr, "serve: submit:", err)
				}
				return
			}
		}
	}()

	for {
		select {
		case <-done:
			printStats(pool.Stats())
			if *traceOut != "" {
				return writeTracerFile(*traceOut, tracer)
			}
			return nil
		case <-ticker.C:
			printStats(pool.Stats())
		}
	}
}

func printStats(s service.PoolStats) {
	fmt.Printf("jobs: %d done (%d pass, %d reject, %d error), %d in flight (hw %d), %.0f jobs/s, p50 %.2fms, p99 %.2fms\n",
		s.Completed, s.Passed, s.Rejected, s.Errored, s.InFlight, s.HighWater,
		s.JobsPerSec, float64(s.P50Ns)/1e6, float64(s.P99Ns)/1e6)
}

func transportName(cfg dist.Config) string {
	if cfg.Transport == "" {
		return string(dist.TransportMem)
	}
	return string(cfg.Transport)
}

// runSoak runs the chaos runner: one fault schedule — clean traffic
// with doctored claims, transport bitflips, hard receive faults and an
// optional killed rank — gated on named violations. Exits nonzero when
// any invariant breaks.
func runSoak(args []string) error {
	fs := flag.NewFlagSet("soak", flag.ExitOnError)
	var opt exp.SoakOptions
	fs.IntVar(&opt.P, "p", 4, "PEs in the resident mesh")
	fs.IntVar(&opt.Concurrency, "concurrency", 64, "in-flight job bound")
	fs.IntVar(&opt.Jobs, "jobs", 512, "clean-row jobs, every third claim doctored (<0 skips the row)")
	fs.IntVar(&opt.Elements, "elements", 2000, "elements per PE per job")
	fs.IntVar(&opt.Flips, "flips", 4, "transport bitflip rows (<0 disables)")
	fs.IntVar(&opt.Faults, "faults", 4, "hard receive-fault rows, each with a probe wave (<0 disables)")
	fs.IntVar(&opt.KillRank, "kill-rank", 0,
		"add the kill-rank row: crash this rank on an elastic pool mid-flight and assert checked recovery (0 disables; 1 <= rank < p)")
	fs.Uint64Var(&opt.Seed, "seed", 0, "soak seed")
	out := fs.String("out", "", "write the SoakResult as JSON to this file")
	traceOut := fs.String("trace", "", "write a Chrome trace of the soak's spans to this file")
	resolve := transportFlags(fs, &opt.Dist)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := resolve(); err != nil {
		return err
	}
	if *traceOut != "" {
		opt.Tracer = obs.NewTracer(cmp.Or(opt.P, 4), obs.DefaultCapacity) // -p 0 selects Soak's default
	}
	res, err := exp.Soak(opt)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderSoak(res))
	if *out != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote soak result to %s\n", *out)
	}
	if *traceOut != "" {
		if werr := writeTracerFile(*traceOut, opt.Tracer); werr != nil {
			return werr
		}
	}
	if !res.OK() {
		return fmt.Errorf("soak failed: %s", strings.Join(res.Violations, "; "))
	}
	return nil
}
