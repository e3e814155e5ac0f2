package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/obs"
)

// launchDigestDomain keys the per-rank pipeline digest so it cannot
// collide with any other Mix64 chain in the system.
const launchDigestDomain = 0x6c61756e63684467 // "launchDg"

// launchDigestPrefix tags the one line each rank prints for the
// spawning parent (or the operator) to collect.
const launchDigestPrefix = "LAUNCH-DIGEST"

// runLaunch drives a checked pipeline across OS processes. Two modes:
//
//	repro launch -p 4                          spawn: bind 4 loopback
//	                                           listeners, fork one rank
//	                                           on each, then verify their
//	                                           verdicts are bit-identical
//	                                           to an in-process run
//	repro launch -rank 1 -hosts h0:p,h1:p,...  join: become rank 1 of a
//	                                           run with this host list
//
// Spawn mode runs its children in join mode with -inherit-listener:
// each binds nothing and accepts on the listener its parent bound.
func runLaunch(args []string) error {
	fs := flag.NewFlagSet("launch", flag.ExitOnError)
	rank := fs.Int("rank", -1, "this process's rank; -1 (default) spawns the whole run as child processes")
	p := fs.Int("p", 4, "world size (with -hosts: must match the list length or be left at default)")
	hostsFlag := fs.String("hosts", "", "comma-separated static host list h0:p0,h1:p1,...; rank r binds entry r")
	inherit := fs.Bool("inherit-listener", false, "accept on the listener inherited as fd 3 instead of binding the host list entry (spawn mode passes it to its children)")
	seed := fs.Uint64("seed", 42, "run seed; verdicts are a pure function of (p, seed, elements)")
	elements := fs.Int("elements", 4096, "pairs per PE in the checked pipeline")
	timeout := fs.Duration("timeout", 60*time.Second, "per-run communication deadline")
	setupTimeout := fs.Duration("setup-timeout", 0, "bootstrap deadline: all links up, refused dials retried until then (0 = default 10s)")
	traceOut := fs.String("trace", "",
		"gather every rank's spans over the collectives and write a Chrome trace at rank 0 (join mode: every rank must pass the same flag; spawn mode forwards it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "p" {
			pSet = true
		}
	})
	cfg := dist.Config{Timeout: *timeout, SetupTimeout: *setupTimeout}
	if *rank < 0 {
		if *hostsFlag != "" || *inherit {
			return fmt.Errorf("launch: -hosts/-inherit-listener describe an existing run; joining one needs -rank")
		}
		return launchSpawn(cfg, *p, *seed, *elements, *traceOut)
	}
	if *hostsFlag == "" {
		return fmt.Errorf("launch: joining a run needs -hosts")
	}
	hosts, err := dist.ParseHosts(*hostsFlag)
	if err != nil {
		return err
	}
	if pSet && *p != len(hosts) {
		return fmt.Errorf("launch: -p %d contradicts a host list of %d entries", *p, len(hosts))
	}
	lc := dist.LaunchConfig{Rank: *rank, Hosts: hosts, Config: cfg}
	if *inherit {
		f := os.NewFile(3, "listener")
		lc.Listener, err = net.FileListener(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("launch: inheriting the listener on fd 3: %w", err)
		}
	}
	return launchJoin(lc, *seed, *elements, *traceOut)
}

// launchJoin is one rank's life: bootstrap into the world, run the
// checked pipeline, print the digest line, tear down. With traceOut,
// every rank records spans into its process-local tracer and the run
// ends with a span gather over the collectives — rank 0 writes the
// merged Chrome trace, which is the cross-process case GatherSpans
// exists for.
func launchJoin(lc dist.LaunchConfig, seed uint64, elements int, traceOut string) error {
	node, err := dist.Join(lc)
	if err != nil {
		return err
	}
	defer node.Close()
	var tracer *obs.Tracer
	if traceOut != "" {
		tracer = obs.NewTracer(node.Size(), obs.DefaultCapacity)
	}
	var digest uint64
	err = dist.RunLocal(node, lc.Rank, seed, func(w *dist.Worker) error {
		if tracer != nil {
			w.SetTracer(tracer)
		}
		d, perr := launchPipeline(w, elements)
		digest = d
		if perr != nil {
			return perr
		}
		if tracer != nil {
			spans, gerr := dist.GatherSpans(w)
			if gerr != nil {
				return gerr
			}
			if w.Rank() == 0 {
				return writeSpansFile(traceOut, spans)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s rank=%d p=%d seed=%d conns=%d digest=%016x verdict=ok\n",
		launchDigestPrefix, lc.Rank, node.Size(), seed, node.ConnsOpen(), digest)
	return nil
}

// launchSpawn forks p child ranks of this binary on loopback, collects
// their digest lines, and reruns the identical pipeline in-process over
// the mem transport to prove the cross-process verdicts are
// bit-identical. The parent binds every child's listener before any
// child starts, so the host list names live sockets and no dial races a
// listener that is not up yet; child r inherits its listener as fd 3.
func launchSpawn(cfg dist.Config, p int, seed uint64, elements int, traceOut string) error {
	if p < 1 {
		return fmt.Errorf("launch: need p >= 1, got %d", p)
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("launch: locating own binary: %w", err)
	}
	ls := make([]*net.TCPListener, 0, p)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	hosts := make([]string, p)
	for r := range hosts {
		l, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return fmt.Errorf("launch: binding rank %d's listener: %w", r, err)
		}
		ls = append(ls, l)
		hosts[r] = l.Addr().String()
	}
	hostList := strings.Join(hosts, ",")

	fmt.Printf("launch: spawning %d ranks (hosts %s)\n", p, hostList)
	cmds := make([]*exec.Cmd, p)
	outs := make([]bytes.Buffer, p)
	for r := 0; r < p; r++ {
		childArgs := []string{"launch",
			"-rank", strconv.Itoa(r),
			"-hosts", hostList,
			"-inherit-listener",
			"-seed", strconv.FormatUint(seed, 10),
			"-elements", strconv.Itoa(elements),
			"-timeout", cfg.Timeout.String(),
			"-setup-timeout", cfg.SetupTimeout.String(),
		}
		if traceOut != "" {
			// Every child records and joins the gather; rank 0's process
			// writes the merged file.
			childArgs = append(childArgs, "-trace", traceOut)
		}
		f, err := ls[r].File()
		if err != nil {
			return fmt.Errorf("launch: rank %d's listener: %w", r, err)
		}
		cmds[r] = exec.Command(exe, childArgs...)
		cmds[r].Stdout = &outs[r]
		cmds[r].Stderr = os.Stderr
		cmds[r].ExtraFiles = []*os.File{f}
		err = cmds[r].Start()
		// The child holds its own copy of the socket; the parent's go.
		f.Close()
		ls[r].Close()
		if err != nil {
			return fmt.Errorf("launch: starting rank %d: %w", r, err)
		}
	}
	var firstErr error
	for r := 0; r < p; r++ {
		if err := cmds[r].Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("launch: rank %d process: %w", r, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	digests := make([]uint64, p)
	for r := 0; r < p; r++ {
		d, err := parseDigestLine(outs[r].String(), r, p)
		if err != nil {
			return err
		}
		digests[r] = d
		fmt.Print(digestLineOf(outs[r].String()))
	}
	if traceOut != "" {
		fmt.Printf("launch: rank 0 gathered every process's spans and wrote %s\n", traceOut)
	}
	// The reference run: same (p, seed, elements) as p goroutines over
	// the in-memory transport. Digest equality per rank is bit-identity
	// of every collected output and verdict.
	ref := make([]uint64, p)
	memCfg := dist.Config{Transport: dist.TransportMem}
	err = repro.RunConfig(memCfg, p, seed, func(w *repro.Worker) error {
		d, err := launchPipeline(w, elements)
		ref[w.Rank()] = d
		return err
	})
	if err != nil {
		return fmt.Errorf("launch: in-process reference run: %w", err)
	}
	for r := 0; r < p; r++ {
		if digests[r] != ref[r] {
			return fmt.Errorf("launch: rank %d digest %#016x differs from in-process reference %#016x — cross-process run is not bit-identical", r, digests[r], ref[r])
		}
	}
	fmt.Printf("launch: verdicts bit-identical across %d processes and the in-process reference (p=%d seed=%d)\n", p, p, seed)
	return nil
}

// launchPipeline is the deterministic checked pipeline every rank runs:
// a ReduceByKey over power-law-ish pairs and a Sort over a private
// sequence, checkers deferred and resolved in one batched round. The
// returned digest chains Mix64 over the common seed and every collected
// word, so two runs agree on the digest iff they agree on every output
// bit and every verdict.
func launchPipeline(w *repro.Worker, elements int) (uint64, error) {
	opts := repro.DefaultOptions()
	opts.Mode = repro.CheckDeferred
	ctx, err := repro.NewContext(w, opts)
	if err != nil {
		return 0, err
	}
	pairs := make([]repro.Pair, elements)
	for i := range pairs {
		pairs[i] = repro.Pair{Key: w.Rng.Uint64n(uint64(elements/4 + 1)), Value: w.Rng.Uint64n(1 << 20)}
	}
	seq := make([]uint64, elements)
	for i := range seq {
		seq[i] = w.Rng.Uint64()
	}
	reduced, err := ctx.Pairs(pairs).ReduceByKey(repro.SumFn).Collect()
	if err != nil {
		return 0, err
	}
	sorted, err := ctx.Seq(seq).Sort().Collect()
	if err != nil {
		return 0, err
	}
	if err := ctx.Verify(); err != nil {
		return 0, err
	}
	cs, err := w.CommonSeed()
	if err != nil {
		return 0, err
	}
	h := hashing.Mix64(cs ^ launchDigestDomain)
	h = hashing.Mix64(h ^ uint64(w.Rank()))
	for _, pr := range reduced {
		h = hashing.Mix64(h ^ pr.Key)
		h = hashing.Mix64(h ^ pr.Value)
	}
	for _, v := range sorted {
		h = hashing.Mix64(h ^ v)
	}
	return h, nil
}

// parseDigestLine extracts rank r's digest from its child's stdout.
func parseDigestLine(out string, r, p int) (uint64, error) {
	line := digestLineOf(out)
	if line == "" {
		return 0, fmt.Errorf("launch: rank %d printed no digest line; output:\n%s", r, out)
	}
	var gotRank, gotP int
	var gotSeed uint64
	var conns int64
	var digest uint64
	var verdict string
	_, err := fmt.Sscanf(strings.TrimSpace(line), launchDigestPrefix+" rank=%d p=%d seed=%d conns=%d digest=%x verdict=%s",
		&gotRank, &gotP, &gotSeed, &conns, &digest, &verdict)
	if err != nil {
		return 0, fmt.Errorf("launch: rank %d digest line %q: %w", r, line, err)
	}
	if gotRank != r || gotP != p || verdict != "ok" {
		return 0, fmt.Errorf("launch: rank %d reported rank=%d p=%d verdict=%q", r, gotRank, gotP, verdict)
	}
	return digest, nil
}

// digestLineOf returns the digest line from a child's output, if any.
func digestLineOf(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, launchDigestPrefix+" ") {
			return line + "\n"
		}
	}
	return ""
}
