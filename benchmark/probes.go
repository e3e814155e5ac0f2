package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/benchmark/meternet"
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/stream"
)

// Layer probes: direct, timed calls into one layer's public functions at
// the sizes the workload uses them at. They run in the traced run only,
// after the jobs, on networks of their own.

// runProbes runs every layer probe for one workload: checkerWords and
// partWords are the AllReduce and AllToAll sizes its jobs used.
func runProbes(res *result, cfg runConfig, transport dist.Transport, sh probeShares, checkerWords, partWords int) error {
	probeHashing(res, cfg.seed, cfg.sz)
	probeAccumulate(res, cfg.seed, cfg.sz, sh)
	if err := probeCollectives(res, transport, cfg.seed, cfg.sz, checkerWords, partWords); err != nil {
		return err
	}
	if err := probeComm(res, transport, cfg.sz); err != nil {
		return err
	}
	return probeDist(res, transport, cfg.seed, cfg.sz)
}

// timeCalls runs fn n times and returns each call's nanoseconds.
func timeCalls(n int, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := time.Now()
		fn()
		out[i] = float64(time.Since(t).Nanoseconds())
	}
	return out
}

// probeHashing times the two batch hash entry points the default
// checkers use.
func probeHashing(res *result, seed uint64, sz sizes) {
	// The jobs before left garbage; collect it so no probe shares a core
	// with the collector.
	runtime.GC()
	keys := uniformSeq(sz.probeKeys, derive(seed, "probe-keys"))
	dst := make([]uint64, len(keys))
	for _, pb := range []struct {
		name   string
		family hashing.Family
	}{
		{"hashing.crc_ns_per_elem", hashing.FamilyCRC},
		{"hashing.tab_ns_per_elem", hashing.FamilyTab},
	} {
		h := pb.family.New(derive(seed, pb.name))
		ns := timeCalls(5, func() {
			h.Hash64Batch(dst, keys)
			probeSink ^= dst[len(dst)/2]
		})
		perElem(ns, len(keys))
		res.sample(pb.name, ns)
		res.set(pb.name, median(ns))
	}
}

// probeShares is one PE's share of a workload's data in the shapes the
// checker builders consume; nil sides are skipped.
type probeShares struct {
	pairIn, pairOut []data.Pair
	seqIn, seqOut   []uint64
	streamed        bool // also drain pairIn through the chunked accumulator
	chunk           int
}

// probeAccumulate times the checker builders' full lifecycle on the
// workload's own shares, single-threaded, and counts its allocations.
func probeAccumulate(res *result, seed uint64, sz sizes, sh probeShares) {
	opts := repro.DefaultOptions()
	reps := sz.calls(9)
	var calls, mallocs float64
	res.set("core.sum_accumulate_ns_per_elem", 0)
	res.set("core.perm_accumulate_ns_per_elem", 0)
	res.set("stream.accumulate_ns_per_elem", 0)
	if sh.pairIn != nil {
		a0 := readAllocs()
		ns := timeCalls(reps, func() {
			b := core.NewSumAggBuilder("probe", opts.Sum, seed, core.Serial, false)
			b.AddInput(sh.pairIn)
			b.AddOutput(sh.pairOut)
			probeSink ^= b.Seal().Words()[0]
		})
		mallocs += float64(readAllocs().sub(a0).mallocs)
		calls += float64(reps)
		perElem(ns, len(sh.pairIn)+len(sh.pairOut))
		res.sample("core.sum_accumulate_ns_per_elem", ns)
		res.set("core.sum_accumulate_ns_per_elem", median(ns))
	}
	if sh.seqIn != nil {
		a0 := readAllocs()
		ns := timeCalls(reps, func() {
			b := core.NewSortedBuilder("probe", opts.Perm, seed, core.Serial)
			b.AddInput(sh.seqIn)
			b.AddOutput(sh.seqOut)
			probeSink ^= b.Seal().Words()[0]
		})
		mallocs += float64(readAllocs().sub(a0).mallocs)
		calls += float64(reps)
		perElem(ns, len(sh.seqIn)+len(sh.seqOut))
		res.sample("core.perm_accumulate_ns_per_elem", ns)
		res.set("core.perm_accumulate_ns_per_elem", median(ns))
	}
	res.set("core.accumulate_allocs_per_call", ratio(mallocs, calls))
	if sh.streamed && sh.pairIn != nil {
		ns := timeCalls(reps, func() {
			acc := stream.NewSumAccumulator("probe", opts.Sum, seed, core.Serial, true)
			_ = acc.DrainInput(stream.SlicePairs(sh.pairIn, sh.chunk)) // slice sources cannot fail
			_ = acc.DrainOutput(stream.SlicePairs(sh.pairOut, sh.chunk))
			probeSink ^= acc.Seal().Words()[0]
		})
		perElem(ns, len(sh.pairIn)+len(sh.pairOut))
		res.sample("stream.accumulate_ns_per_elem", ns)
		res.set("stream.accumulate_ns_per_elem", median(ns))
	}
}

func perElem(ns []float64, elems int) {
	for i := range ns {
		ns[i] /= float64(max(elems, 1))
	}
}

// probeCollectives times AllReduce at the workload's checker word
// count, AllToAll at its partition size (skipped when partWords is 0)
// and the barrier, by direct calls on a decorated network of the
// workload's transport, so each call's comm child spans are known.
func probeCollectives(res *result, transport dist.Transport, seed uint64, sz sizes, checkerWords, partWords int) error {
	inner, err := dist.Config{Transport: transport}.NewNetwork(numPEs)
	if err != nil {
		return fmt.Errorf("collective probe: network: %w", err)
	}
	rec := newRecorder(numPEs, true, 0)
	net := meternet.Wrap(inner, rec.sink)
	defer net.Close()

	type probe struct {
		name  string
		calls int
		run   func(w *dist.Worker) error
	}
	words := make([]uint64, max(checkerWords, 1))
	parts := make([][]uint64, numPEs)
	for r := range parts {
		parts[r] = make([]uint64, partWords)
	}
	probes := []probe{
		{"collective.allreduce", sz.calls(300), func(w *dist.Worker) error {
			_, err := w.Coll.AllReduce(words, collective.OpSum)
			return err
		}},
		{"collective.barrier", sz.calls(300), func(w *dist.Worker) error { return w.Coll.Barrier() }},
	}
	if partWords > 0 {
		probes = append(probes, probe{"collective.alltoall", sz.calls(40), func(w *dist.Worker) error {
			_, err := w.Coll.AllToAll(parts)
			return err
		}})
	} else {
		res.set("collective.alltoall_us", 0)
		res.set("collective.alltoall_self_us", 0)
	}
	for _, pb := range probes {
		m0 := comm.NetworkMeter(net)
		a0 := readAllocs()
		err := dist.RunNetwork(net, seed, func(w *dist.Worker) error {
			for i := 0; i < pb.calls; i++ {
				sp := rec.begin(w.Rank(), 0, nil, pb.name)
				err := pb.run(w)
				sp.end()
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s probe: %w", pb.name, err)
		}
		alloc := readAllocs().sub(a0)
		meter := meterDelta(m0, comm.NetworkMeter(net))
		agg := rec.total(0, pb.name)
		switch pb.name {
		case "collective.barrier":
			res.set("collective.barrier_us", perJob(agg.Ns, agg.Calls)/1e3)
		default:
			res.set(pb.name+"_us", perJob(agg.Ns, agg.Calls)/1e3)
			res.set(pb.name+"_self_us", perJob(agg.SelfNs, agg.Calls)/1e3)
		}
		if pb.name == "collective.allreduce" {
			res.set("collective.msgs_per_allreduce", perJob(meter.MsgsSent, int64(pb.calls)))
			res.set("collective.allocs_per_allreduce", perJob(int64(alloc.mallocs), int64(pb.calls)))
		}
	}

	// What one pool job mints: a sub-communicator on every rank, released
	// again when the job retires.
	comms := make([]*collective.Comm, numPEs)
	for r := range comms {
		comms[r] = collective.New(net.Endpoint(r))
	}
	mint := timeCalls(sz.calls(2000), func() {
		var subs [numPEs]*collective.Comm
		for r, c := range comms {
			sub, err := c.Sub()
			if err != nil {
				panic(err) // every block is released below: the space cannot run out
			}
			subs[r] = sub
		}
		for _, s := range subs {
			s.Release()
		}
	})
	res.set("collective.sub_mint_us", median(mint)/1e3)
	return nil
}

// probeComm measures the raw transport: a 64-byte ping-pong and a
// one-way stream of 1 MiB messages between two endpoints, no mux.
func probeComm(res *result, transport dist.Transport, sz sizes) error {
	net, err := dist.Config{Transport: transport}.NewNetwork(numPEs)
	if err != nil {
		return fmt.Errorf("comm probe: network: %w", err)
	}
	defer net.Close()
	a, b := net.Endpoint(0), net.Endpoint(1)

	pings := sz.calls(2000)
	rtt := make([]float64, 0, pings)
	echo := make(chan error, 1)
	go func() {
		for i := 0; i < pings; i++ {
			buf, err := b.Recv(0, 1)
			if err == nil {
				err = b.Send(0, 2, buf)
			}
			if err != nil {
				echo <- err
				return
			}
		}
		echo <- nil
	}()
	a0 := readAllocs()
	for i := 0; i < pings; i++ {
		t := time.Now()
		if err := a.Send(1, 1, make([]byte, 64)); err != nil {
			return fmt.Errorf("comm probe: ping: %w", err)
		}
		if _, err := a.Recv(1, 2); err != nil {
			return fmt.Errorf("comm probe: pong: %w", err)
		}
		rtt = append(rtt, float64(time.Since(t).Nanoseconds())/1e3)
	}
	if err := <-echo; err != nil {
		return fmt.Errorf("comm probe: echo: %w", err)
	}
	alloc := readAllocs().sub(a0)
	res.sample("comm.pingpong_us", rtt)
	res.set("comm.pingpong_us", median(rtt))
	res.set("comm.allocs_per_msg", float64(alloc.mallocs)/float64(2*pings))

	msgs, size := sz.calls(32), 1<<20
	payload := make([]byte, size)
	var rates []float64
	for rep := 0; rep < 3; rep++ {
		recvd := make(chan error, 1)
		go func() {
			for i := 0; i < msgs; i++ {
				if _, err := b.Recv(0, 3); err != nil {
					recvd <- err
					return
				}
			}
			recvd <- b.Send(0, 4, nil)
		}()
		t := time.Now()
		for i := 0; i < msgs; i++ {
			if err := a.Send(1, 3, payload); err != nil {
				return fmt.Errorf("comm probe: stream: %w", err)
			}
		}
		if _, err := a.Recv(1, 4); err != nil {
			return fmt.Errorf("comm probe: stream ack: %w", err)
		}
		if err := <-recvd; err != nil {
			return fmt.Errorf("comm probe: stream receiver: %w", err)
		}
		rates = append(rates, float64(msgs*size)/1e6/time.Since(t).Seconds())
	}
	res.sample("comm.stream_mb_per_s", rates)
	res.set("comm.stream_mb_per_s", median(rates))
	return nil
}

// probeDist times transport bring-up and an empty SPMD run.
func probeDist(res *result, transport dist.Transport, seed uint64, sz sizes) error {
	var setupMs []float64
	for i := 0; i < sz.calls(5); i++ {
		t := time.Now()
		net, err := dist.Config{Transport: transport}.NewNetwork(numPEs)
		if err != nil {
			return fmt.Errorf("dist probe: network: %w", err)
		}
		net.Close()
		setupMs = append(setupMs, float64(time.Since(t).Nanoseconds())/1e6)
	}
	res.sample("dist.network_setup_ms", setupMs)
	res.set("dist.network_setup_ms", median(setupMs))

	net, err := dist.Config{Transport: transport}.NewNetwork(numPEs)
	if err != nil {
		return fmt.Errorf("dist probe: network: %w", err)
	}
	defer net.Close()
	var runErr error
	spawn := timeCalls(sz.calls(200), func() {
		if err := dist.RunNetwork(net, seed, func(*dist.Worker) error { return nil }); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return fmt.Errorf("dist probe: empty run: %w", runErr)
	}
	for i := range spawn {
		spawn[i] /= 1e3
	}
	res.sample("dist.run_spawn_us", spawn)
	res.set("dist.run_spawn_us", median(spawn))
	return nil
}
