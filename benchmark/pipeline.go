package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/dist"
)

// The three Context-pipeline workloads and the block runner they share.
//
// A block is one dist.RunNetwork over the workload's transport in which
// every PE runs the workload's job once per input set, a fresh Context
// per job. Job time is rank 0's wall time from leaving the barrier in
// front of the pipeline to leaving the barrier behind ctx.Verify(), as
// internal/exp/scaling.go:timeReduce measures it. Outputs are compared
// with the oracle by rank 0 after the closing barrier, outside the
// timed section, while the other ranks wait in the next job's barrier.
// Every block of a run uses the same run seed and the same input sets,
// so every block does exactly the same work and the per-job counts do
// not depend on how many blocks fit into the measuring time.

type jobOutput struct {
	pairs []data.Pair // final pair output
	seq   []uint64    // final sequence output; chain: the union stage's output
	mid   []data.Pair // chain: the reduction stage's output
}

type pipeWorkload struct {
	name      string
	transport dist.Transport
	elemBytes int // bytes of one local input element: 16 for pairs, 8 for values
	perPE     func(sz sizes) int
	gen       func(seed uint64, sz sizes) []*pipeSet
	job       func(st stages, s *pipeSet, rank int) (jobOutput, error)
	check     func(s *pipeSet, outs []jobOutput) error
	// spoil perturbs one oracle entry, for the self-test.
	spoil func(s *pipeSet)
}

var pipeWorkloads = map[string]*pipeWorkload{
	"reduce_zipf": {
		name: "reduce_zipf", transport: dist.TransportMem, elemBytes: 16,
		perPE: func(sz sizes) int { return sz.bulkPerPE },
		gen:   genReduceZipf,
		job: func(st stages, s *pipeSet, rank int) (jobOutput, error) {
			out, err := st.Reduce(s.pairs[rank])
			return jobOutput{pairs: out}, err
		},
		check: func(s *pipeSet, outs []jobOutput) error {
			return s.checkReduced(pairOutputs(outs, false))
		},
		spoil: func(s *pipeSet) { s.reduced[0].Value++ },
	},
	"sort_uniform": {
		name: "sort_uniform", transport: dist.TransportMem, elemBytes: 8,
		perPE: func(sz sizes) int { return sz.bulkPerPE },
		gen:   genSortUniform,
		job: func(st stages, s *pipeSet, rank int) (jobOutput, error) {
			out, err := st.Sort(s.a[rank])
			return jobOutput{seq: out}, err
		},
		check: func(s *pipeSet, outs []jobOutput) error {
			return checkSeq(seqOutputs(outs), s.sorted, "sorted output")
		},
		spoil: func(s *pipeSet) { s.sorted[len(s.sorted)/2]++ },
	},
	"chain_small_tcp": {
		name: "chain_small_tcp", transport: dist.TransportTCP, elemBytes: 16,
		perPE: func(sz sizes) int { return sz.chainPerPE },
		gen:   genChain,
		job: func(st stages, s *pipeSet, rank int) (jobOutput, error) {
			red, err := st.Reduce(s.pairs[rank])
			if err != nil {
				return jobOutput{}, err
			}
			vals := make([]uint64, len(red))
			for i, pr := range red {
				vals[i] = pr.Value
			}
			sorted, err := st.Sort(vals)
			if err != nil {
				return jobOutput{}, err
			}
			union, err := st.Union(sorted, s.b[rank])
			if err != nil {
				return jobOutput{}, err
			}
			zipped, err := st.Zip(union, s.c[rank])
			return jobOutput{pairs: zipped, seq: union, mid: red}, err
		},
		check: func(s *pipeSet, outs []jobOutput) error {
			if err := s.checkReduced(pairOutputs(outs, true)); err != nil {
				return fmt.Errorf("reduce stage: %w", err)
			}
			return s.checkChainTail(seqOutputs(outs), pairOutputs(outs, false))
		},
		spoil: func(s *pipeSet) { s.sorted[0]++ },
	},
}

func seqOutputs(outs []jobOutput) [][]uint64 {
	seqs := make([][]uint64, len(outs))
	for r, o := range outs {
		seqs[r] = o.seq
	}
	return seqs
}

func pairOutputs(outs []jobOutput, mid bool) [][]data.Pair {
	ps := make([][]data.Pair, len(outs))
	for r, o := range outs {
		if mid {
			ps[r] = o.mid
		} else {
			ps[r] = o.pairs
		}
	}
	return ps
}

// variant is one way of running the workload's job: on which network,
// with which options, and whether through the Context or decomposed and
// traced.
type variant struct {
	name  string
	net   comm.Network
	opts  repro.Options
	rec   *recorder // non-nil: decomposed by hand, spans recorded
	empty bool      // job body does nothing: the harness floor
	jobs  int64     // jobs run so far, the next job's id
}

// rankSlot is what one rank deposits for rank 0 after a job.
type rankSlot struct {
	out      jobOutput
	cost     checkerCost
	rejected bool
	opNs     int64    // Context.Stats: sum of OpNs
	checkNs  int64    // Context.Stats: sum of CheckNs plus Verify wall
	verifyNs int64    // VerifySummaries: sum of WallNs
	words    int      // manual: checker state words
	opsBytes int64    // manual: bytes the ops calls sent
	elems    [2]int64 // manual: local input elements of reduce and sort calls
}

// failureCount is the failure accounting of some jobs: how many were
// attempted, how many failed, and why the first few did.
type failureCount struct {
	attempted int
	failed    int
	failures  []string
}

func (f *failureCount) fail(why string) {
	f.failed++
	if len(f.failures) < 5 {
		f.failures = append(f.failures, why)
	}
}

func (f *failureCount) merge(o failureCount) {
	f.attempted += o.attempted
	f.failed += o.failed
	for _, why := range o.failures {
		if len(f.failures) < 5 {
			f.failures = append(f.failures, why)
		}
	}
}

// tally is what some blocks of one variant measured; runBlock returns
// the tally of one block.
type tally struct {
	blocks   int
	jobNs    []int64 // barrier to barrier, rank 0
	cycleNs  []int64 // NewContext to closing barrier, rank 0
	newCtxNs []int64 // NewContext alone, rank 0
	alloc    allocDelta
	meter    comm.MeterSnapshot // delta over the blocks

	// Sums over the jobs of each job's bottleneck (max over PEs).
	costBytes, costRounds   int64
	opNs, checkNs, verifyNs int64
	words, opsBytes         int64
	reduceElems, sortElems  int64 // rank 0's local input elements

	failureCount
}

func (t *tally) jobs() int64 { return int64(len(t.jobNs)) }

func (t *tally) add(b tally) {
	t.blocks += b.blocks
	t.jobNs = append(t.jobNs, b.jobNs...)
	t.cycleNs = append(t.cycleNs, b.cycleNs...)
	t.newCtxNs = append(t.newCtxNs, b.newCtxNs...)
	t.alloc.mallocs += b.alloc.mallocs
	t.alloc.bytes += b.alloc.bytes
	t.meter.BytesSent += b.meter.BytesSent
	t.meter.MsgsSent += b.meter.MsgsSent
	t.meter.WireSent += b.meter.WireSent
	t.meter.ConnsOpen = b.meter.ConnsOpen
	t.costBytes += b.costBytes
	t.costRounds += b.costRounds
	t.opNs += b.opNs
	t.checkNs += b.checkNs
	t.verifyNs += b.verifyNs
	t.words += b.words
	t.opsBytes += b.opsBytes
	t.reduceElems += b.reduceElems
	t.sortElems += b.sortElems
	t.merge(b.failureCount)
}

// meterDelta is what the benchmark reads of the traffic between two
// snapshots; ConnsOpen is a level, not a count, so b's stands.
func meterDelta(a, b comm.MeterSnapshot) comm.MeterSnapshot {
	return comm.MeterSnapshot{
		BytesSent: b.BytesSent - a.BytesSent, MsgsSent: b.MsgsSent - a.MsgsSent,
		WireSent: b.WireSent - a.WireSent, ConnsOpen: b.ConnsOpen,
	}
}

// pipeRun is a set-up pipeline workload: inputs, oracles, transport.
type pipeRun struct {
	wl      *pipeWorkload
	sz      sizes
	sets    []*pipeSet
	runSeed uint64
	net     comm.Network
}

func setupPipeline(wl *pipeWorkload, seed uint64, sz sizes, sab sabotage) (*pipeRun, error) {
	sets := wl.gen(seed, sz)
	if sab.wrongOracle {
		wl.spoil(sets[0])
	}
	net, err := dist.Config{Transport: wl.transport}.NewNetwork(numPEs)
	if err != nil {
		return nil, fmt.Errorf("%s: network: %w", wl.name, err)
	}
	return &pipeRun{wl: wl, sz: sz, sets: sets, runSeed: derive(seed, "run-seed"), net: net}, nil
}

func (pr *pipeRun) close() { pr.net.Close() }

func (pr *pipeRun) baseOptions(mode repro.CheckMode) repro.Options {
	o := repro.DefaultOptions().WithParallelism(1)
	o.Mode = mode
	return o
}

// runBlock runs one block of v.
func (pr *pipeRun) runBlock(v *variant) (tally, error) {
	res := tally{blocks: 1}
	// One slot row per job, so no rank ever overwrites what rank 0 may
	// still be judging.
	slots := make([][numPEs]rankSlot, len(pr.sets))
	deposited := make(chan struct{}, numPEs)
	firstJob := v.jobs

	a0 := readAllocs()
	m0 := comm.NetworkMeter(v.net)
	err := dist.RunNetwork(v.net, pr.runSeed, func(w *dist.Worker) error {
		rank := w.Rank()
		for k, set := range pr.sets {
			tc := time.Now()
			var st stages
			var ctx *repro.Context
			var man *manualStages
			var err error
			if v.rec != nil {
				man, err = newManualStages(w, v.opts, v.rec, nil)
				st = man
			} else {
				ctx, err = repro.NewContext(w, v.opts)
				st = ctxStages{ctx}
			}
			if err != nil {
				return err
			}
			newCtx := time.Since(tc)
			if err := w.Coll.Barrier(); err != nil {
				return err
			}
			t1 := time.Now()
			var jobSpan *open
			if man != nil {
				jobSpan = v.rec.begin(rank, firstJob+int64(k), nil, "job")
				man.job = jobSpan
			}
			var slot rankSlot
			if !v.empty {
				out, jerr := pr.wl.job(st, set, rank)
				cost, ferr := st.Finish()
				if jerr == nil {
					jerr = ferr
				}
				if jerr != nil && !isRejection(jerr) {
					return jerr
				}
				slot = rankSlot{out: out, cost: cost, rejected: jerr != nil}
			}
			var bar *open
			if man != nil {
				bar = man.span("collective.barrier")
			}
			if err := w.Coll.Barrier(); err != nil {
				return err
			}
			if man != nil {
				bar.end()
				jobSpan.end()
				slot.words, slot.opsBytes, slot.elems = man.words, man.opsBytes, man.elems
			}
			t2 := time.Now()
			if ctx != nil {
				for _, s := range ctx.Stats() {
					slot.opNs += s.OpNs
					slot.checkNs += s.CheckNs
				}
				for _, s := range ctx.VerifySummaries() {
					slot.verifyNs += s.WallNs
				}
				slot.checkNs += slot.verifyNs
			}
			slots[k][rank] = slot
			if rank != 0 {
				deposited <- struct{}{}
				continue
			}
			for i := 1; i < numPEs; i++ {
				<-deposited
			}
			res.jobNs = append(res.jobNs, t2.Sub(t1).Nanoseconds())
			res.cycleNs = append(res.cycleNs, t2.Sub(tc).Nanoseconds())
			res.newCtxNs = append(res.newCtxNs, newCtx.Nanoseconds())
			if !v.empty {
				pr.judge(&res, set, slots[k][:], firstJob+int64(k))
			}
		}
		return nil
	})
	res.meter = meterDelta(m0, comm.NetworkMeter(v.net))
	res.alloc = readAllocs().sub(a0)
	v.jobs += int64(len(pr.sets))
	if err != nil {
		return res, fmt.Errorf("%s/%s: %w", pr.wl.name, v.name, err)
	}
	return res, nil
}

// judge is rank 0's verdict on one finished job: outputs against the
// oracle, rejections of clean jobs, and the per-job bottleneck figures.
func (pr *pipeRun) judge(res *tally, set *pipeSet, slots []rankSlot, job int64) {
	res.attempted++
	outs := make([]jobOutput, len(slots))
	var agg rankSlot
	for r, s := range slots {
		outs[r] = s.out
		agg.cost.Bytes = max(agg.cost.Bytes, s.cost.Bytes)
		agg.cost.Rounds = max(agg.cost.Rounds, s.cost.Rounds)
		agg.opNs = max(agg.opNs, s.opNs)
		agg.checkNs = max(agg.checkNs, s.checkNs)
		agg.verifyNs = max(agg.verifyNs, s.verifyNs)
		agg.words = max(agg.words, s.words)
		agg.opsBytes = max(agg.opsBytes, s.opsBytes)
		agg.rejected = agg.rejected || s.rejected
	}
	if agg.rejected {
		res.fail(fmt.Sprintf("job %d: clean job rejected by its checker", job))
	} else if err := pr.wl.check(set, outs); err != nil {
		res.fail(fmt.Sprintf("job %d: output differs from the oracle: %v", job, err))
	}
	res.costBytes += agg.cost.Bytes
	res.costRounds += int64(agg.cost.Rounds)
	res.opNs += agg.opNs
	res.checkNs += agg.checkNs
	res.verifyNs += agg.verifyNs
	res.words += int64(agg.words)
	res.opsBytes += agg.opsBytes
	res.reduceElems += slots[0].elems[0]
	res.sortElems += slots[0].elems[1]
}

func sumNs(ns []int64) int64 {
	var t int64
	for _, v := range ns {
		t += v
	}
	return t
}

func perJob(total int64, jobs int64) float64 { return ratio(float64(total), float64(jobs)) }
