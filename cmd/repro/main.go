// Command repro regenerates every table and figure of the paper
// "Communication Efficient Checking of Big Data Operations"
// (Hübschle-Schneider and Sanders) from this repository's
// implementation, and drives the resident verification service.
//
// Usage:
//
//	repro <subcommand> [flags]
//
// Subcommands: table1 table2 table3 table4 table5 table6 fig3 fig4 fig5
// permoverhead commvolume modeled serve soak launch all (the table in
// commands is the one place they are declared; `repro` with no
// arguments prints it). Flags, where applicable, scale the defaults up
// to paper scale, e.g.
//
//	repro fig3 -elements 50000 -max-runs 100000
//	repro fig4 -items 125000 -pes 32,64,128,256,512
//
// Performance is measured by the benchmark of record, not from here:
// bash benchmark/run.sh.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exp"
)

// subcommand is one row of the table that dispatch, the usage text and
// `all` are all derived from.
type subcommand struct {
	name  string
	help  string // one line, shown by usage
	run   func(args []string) error
	inAll bool // run by `all`, at default scale
}

// commands returns the subcommand table, in usage order. `all` closes
// over the rows before it, so it is declared here like any other.
func commands() []subcommand {
	cmds := []subcommand{
		{"table1", "checker properties (paper Table 1)", printer(exp.RenderTable1), true},
		{"table2", "optimal (d, rhat, #its) per message size (paper Table 2)", runTable2, true},
		{"table3", "tested checker configurations (paper Table 3)", printer(exp.RenderTable3), true},
		{"table4", "sum checker manipulators (paper Table 4)", printer(exp.RenderTable4), true},
		{"table5", "sum checker local overhead, ns/element (paper Table 5)",
			runOverhead("table5", "Table 5: sum aggregation checker local processing overhead", "Configuration", exp.OverheadSum), true},
		{"table6", "permutation checker manipulators (paper Table 6)", printer(exp.RenderTable6), true},
		{"fig3", "sum checker detection accuracy sweep (paper Fig. 3)",
			runAccuracy("fig3", "Fig. 3: sum aggregation checker accuracy (failure rate / delta)", exp.DefaultAccuracySum(), true, exp.AccuracySum), true},
		{"fig4", "weak scaling of the checked reduce pipeline (paper Fig. 4)", runFig4, true},
		{"fig5", "permutation checker accuracy sweep (paper Fig. 5 / App. A)",
			runAccuracy("fig5", "Fig. 5: permutation/sort checker accuracy (failure rate / delta)", exp.DefaultAccuracyPerm(), false, exp.AccuracyPerm), true},
		{"permoverhead", "permutation checker local overhead (paper Sec. 7.2)",
			runOverhead("permoverhead", "Section 7.2: permutation/sort checker local overhead", "Hash", exp.OverheadPerm), true},
		{"commvolume", "bottleneck communication volume audit (Sec. 1 claim)", runCommVolume, true},
		{"modeled", "alpha-beta-model comm makespans up to p=4096 (Sec. 2 model)", runModeled, true},
		{"serve", "resident verification service under synthetic concurrent jobs, live stats", runServe, false},
		{"soak", "chaos runner: one fault schedule over the service, gated on named violations", runSoak, false},
		{"launch", "checked pipeline across OS processes, verdicts proven bit-identical to in-process", runLaunch, false},
	}
	return append(cmds, subcommand{"all", "every paper table and figure above at default scale",
		func([]string) error { return runAll(cmds) }, false})
}

func main() {
	os.Exit(run(commands(), os.Args[1:], os.Stderr))
}

// run dispatches args[0] over cmds and returns the process exit code:
// 2 with the usage text for a missing or unknown subcommand, 1 for a
// subcommand that failed.
func run(cmds []subcommand, args []string, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range cmds {
			if c.name != args[0] {
				continue
			}
			if err := c.run(args[1:]); err != nil {
				fmt.Fprintln(stderr, "repro:", err)
				return 1
			}
			return 0
		}
	}
	usage(stderr, cmds)
	return 2
}

func usage(w io.Writer, cmds []subcommand) {
	fmt.Fprint(w, "usage: repro <subcommand> [flags]   (repro <subcommand> -h lists its flags)\n\nsubcommands:\n")
	for _, c := range cmds {
		fmt.Fprintf(w, "  %-13s %s\n", c.name, c.help)
	}
}

// runAll runs every row marked inAll, in table order, at default scale.
func runAll(cmds []subcommand) error {
	sep := ""
	for _, c := range cmds {
		if !c.inAll {
			continue
		}
		fmt.Print(sep)
		sep = "\n"
		if err := c.run(nil); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return nil
}

// printer adapts a flagless table renderer to a subcommand.
func printer(render func() string) func([]string) error {
	return func([]string) error {
		fmt.Print(render())
		return nil
	}
}

func runTable2([]string) error {
	rows, err := core.Table2()
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderTable2(rows))
	return nil
}

// transportFlags registers the shared -transport/-timeout flags and
// returns a resolver that fills a dist.Config from the parsed values.
func transportFlags(fs *flag.FlagSet, cfg *dist.Config) func() error {
	transport := fs.String("transport", string(cfg.Transport), "transport backend: mem, simnet, or tcp")
	fs.DurationVar(&cfg.Timeout, "timeout", cfg.Timeout,
		"per-run communication deadline (0 = none), e.g. 90s; does not interrupt local computation")
	return func() error {
		tr, err := dist.ParseTransport(*transport)
		if err != nil {
			return err
		}
		cfg.Transport = tr
		return nil
	}
}

// runAccuracy is fig3 and fig5: one flag block over one AccuracyOptions.
// universe registers Fig. 3's -universe flag; Fig. 5's value range is
// fixed.
func runAccuracy(name, title string, opt exp.AccuracyOptions, universe bool,
	sweep func(exp.AccuracyOptions) ([]exp.AccuracyRow, error)) func([]string) error {
	return func(args []string) error {
		opt := opt // each invocation parses into its own copy
		fs := flag.NewFlagSet(name, flag.ExitOnError)
		fs.IntVar(&opt.Elements, "elements", opt.Elements, "input elements per trial (paper: 50000 for Fig. 3, 1e6 for Fig. 5)")
		if universe {
			fs.IntVar(&opt.KeyUniverse, "universe", opt.KeyUniverse, "power-law key universe (paper: 1e6)")
		}
		fs.IntVar(&opt.MinRuns, "min-runs", opt.MinRuns, "minimum trials per point")
		fs.IntVar(&opt.MaxRuns, "max-runs", opt.MaxRuns, "maximum trials per point (paper: 100000)")
		fs.Uint64Var(&opt.Seed, "seed", opt.Seed, "experiment seed")
		if err := fs.Parse(args); err != nil {
			return err
		}
		rows, err := sweep(opt)
		if err != nil {
			return err
		}
		fmt.Print(exp.RenderAccuracy(title, rows))
		return nil
	}
}

// runOverhead is table5 and permoverhead: one flag block over one
// OverheadOptions.
func runOverhead(name, title, head string, measure func(exp.OverheadOptions) ([]exp.OverheadRow, error)) func([]string) error {
	return func(args []string) error {
		fs := flag.NewFlagSet(name, flag.ExitOnError)
		opt := exp.DefaultOverhead()
		fs.IntVar(&opt.Elements, "elements", opt.Elements, "elements to process (paper: 1e6)")
		fs.IntVar(&opt.Repeats, "repeats", opt.Repeats, "repetitions, fastest wins")
		if err := fs.Parse(args); err != nil {
			return err
		}
		rows, err := measure(opt)
		if err != nil {
			return err
		}
		fmt.Print(exp.RenderOverhead(title, head, rows))
		return nil
	}
}

// runSweep parses args, lets finish turn the experiment's own flags
// into sweep points, runs the pipeline sweep and prints it as table.
func runSweep(fs *flag.FlagSet, args []string, opt *exp.SweepOptions, table exp.Table, finish func() error) error {
	resolve := transportFlags(fs, &opt.Dist)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := resolve(); err != nil {
		return err
	}
	if err := finish(); err != nil {
		return err
	}
	rows, err := exp.Sweep(*opt)
	if err != nil {
		return err
	}
	fmt.Print(table.Render(rows))
	return nil
}

// regrid applies a weak-scaling experiment's -pes and -items flags to
// its default points: an empty pes keeps the default PE counts.
func regrid(pts []exp.Point, pes string, items int) ([]exp.Point, error) {
	if pes != "" {
		counts, err := parseInts(pes)
		return exp.Grid(counts, items), err
	}
	for i := range pts {
		pts[i].ItemsPerPE = items
	}
	return pts, nil
}

func runFig4(args []string) error {
	fs := flag.NewFlagSet("fig4", flag.ExitOnError)
	opt := exp.DefaultFig4()
	items := fs.Int("items", opt.Points[0].ItemsPerPE, "items per PE (paper: 125000)")
	fs.IntVar(&opt.Repeats, "repeats", opt.Repeats, "timed repetitions after one warm-up (0 = one cold run)")
	pes := fs.String("pes", "", "comma-separated PE counts (default 1..512 doubling)")
	fs.Uint64Var(&opt.Seed, "seed", opt.Seed, "experiment seed")
	deferred := fs.Bool("deferred", false, "resolve checkers in one batched round per pipeline (CheckDeferred)")
	return runSweep(fs, args, &opt, exp.Fig4Table(), func() (err error) {
		if *deferred {
			opt.Mode = repro.CheckDeferred
		}
		if opt.Dist.Transport == dist.TransportTCP {
			// The TCP mesh needs p(p-1)/2 loopback connections; the
			// default sweep to 512 PEs would exhaust file descriptors. Cap it
			// at 16 unless the user picks PE counts explicitly.
			opt.Points = opt.Points[:5]
		}
		opt.Points, err = regrid(opt.Points, *pes, *items)
		return err
	})
}

func runCommVolume(args []string) error {
	fs := flag.NewFlagSet("commvolume", flag.ExitOnError)
	opt := exp.DefaultCommVolume()
	p := fs.Int("p", opt.Points[0].P, "number of PEs")
	ns := fs.String("ns", "", "comma-separated total input sizes (default 10000,100000,1000000)")
	return runSweep(fs, args, &opt, exp.VolumeTable(), func() (err error) {
		sizes := make([]int, len(opt.Points))
		for i, pt := range opt.Points {
			sizes[i] = pt.P * pt.ItemsPerPE
		}
		if *ns != "" {
			if sizes, err = parseInts(*ns); err != nil {
				return err
			}
		}
		if *p < 1 {
			return fmt.Errorf("commvolume needs -p >= 1, got %d", *p)
		}
		opt.Points = opt.Points[:0]
		for _, n := range sizes {
			opt.Points = append(opt.Points, exp.Point{P: *p, ItemsPerPE: n / *p})
		}
		return nil
	})
}

func runModeled(args []string) error {
	fs := flag.NewFlagSet("modeled", flag.ExitOnError)
	opt := exp.DefaultModeled()
	items := fs.Int("items", opt.Points[0].ItemsPerPE, "items per PE")
	fs.Float64Var(&opt.Dist.SimAlphaNs, "alpha", dist.DefaultSimAlphaNs, "startup latency in ns")
	fs.Float64Var(&opt.Dist.SimBetaNsPerByte, "beta", dist.DefaultSimBetaNsPerByte, "per-byte time in ns")
	pes := fs.String("pes", "", "comma-separated PE counts (default 32..4096 doubling)")
	return runSweep(fs, args, &opt, exp.ModeledTable(), func() (err error) {
		if opt.Dist.Transport != dist.TransportSim {
			return fmt.Errorf("modeled reads virtual clocks and requires the simnet transport, got %q", opt.Dist.Transport)
		}
		opt.Points, err = regrid(opt.Points, *pes, *items)
		return err
	})
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}
