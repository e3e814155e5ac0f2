package collective

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/internal/comm"
)

// roundInput is what PE rank contributes to one round of sub-communicator
// sub: derived from (round, sub, rank) alone, so every PE can compute
// every other PE's input and with it the sequential oracle.
type roundInput struct {
	sum, gather, ring []uint64
	// parts[j] is the payload rank sends to PE j in the all-to-all.
	parts [][]byte
}

func inputOf(round, sub, rank, p int) roundInput {
	rng := rand.New(rand.NewPCG(uint64(round), uint64(sub<<16|rank)))
	words := func(n int) []uint64 {
		ws := make([]uint64, n)
		for i := range ws {
			ws[i] = rng.Uint64()
		}
		return ws
	}
	// One vector length per round and sub for the reductions; the rest
	// vary per PE, crossing several of the pool's size classes.
	k := 1 + rand.New(rand.NewPCG(uint64(round), uint64(sub))).IntN(24)
	in := roundInput{sum: words(k), gather: words(rng.IntN(40)), ring: words(rng.IntN(300))}
	in.parts = make([][]byte, p)
	for j := range in.parts {
		in.parts[j] = make([]byte, rng.IntN(3000))
		for i := range in.parts[j] {
			in.parts[j][i] = byte(rng.Uint32())
		}
	}
	return in
}

// roundResults is what one PE holds after a round: every result a
// collective hands to its caller, the all-to-all's parts included.
type roundResults struct {
	sum, prefix, total, ring []uint64
	gathered                 [][]uint64
	parts                    [][]byte
}

// oracle computes rank's results for one round sequentially.
func oracle(round, sub, rank, p int) roundResults {
	ins := make([]roundInput, p)
	for r := range ins {
		ins[r] = inputOf(round, sub, r, p)
	}
	k := len(ins[0].sum)
	want := roundResults{sum: make([]uint64, k), prefix: make([]uint64, k)}
	for r, in := range ins {
		OpSum(want.sum, in.sum)
		if r < rank {
			OpSum(want.prefix, in.sum)
		}
		want.gathered = append(want.gathered, in.gather)
		want.parts = append(want.parts, in.parts[rank])
	}
	want.total = want.sum
	want.ring = ins[(rank-1+p)%p].ring
	return want
}

// runRound runs one round's collectives on c and returns what they gave.
func runRound(c *Comm, in roundInput) (roundResults, error) {
	var res roundResults
	var err error
	if res.sum, err = c.AllReduce(in.sum, OpSum); err != nil {
		return res, fmt.Errorf("AllReduce: %w", err)
	}
	if res.gathered, err = c.AllGather(in.gather); err != nil {
		return res, fmt.Errorf("AllGather: %w", err)
	}
	if res.prefix, res.total, err = c.ExclusiveScan(in.sum, OpSum, make([]uint64, len(in.sum))); err != nil {
		return res, fmt.Errorf("ExclusiveScan: %w", err)
	}
	p, rank := c.Size(), c.Rank()
	if res.ring, err = c.Exchange((rank+1)%p, in.ring, (rank-1+p)%p); err != nil {
		return res, fmt.Errorf("Exchange: %w", err)
	}
	// The parts go out in payloads from the pool, as ops sends them.
	parts := make([][]byte, p)
	for j, b := range in.parts {
		parts[j] = append(comm.GetPayload(len(b))[:0], b...)
	}
	got, err := c.AllToAllBytes(parts, nil)
	if err != nil {
		return res, fmt.Errorf("AllToAllBytes: %w", err)
	}
	// Keep copies and hand the received payloads back, so later rounds
	// reuse them while this round's results are still held.
	for _, b := range got {
		res.parts = append(res.parts, slices.Clone(b))
		comm.PutPayload(b)
	}
	return res, nil
}

func (r roundResults) diff(want roundResults) string {
	switch {
	case !slices.Equal(r.sum, want.sum):
		return fmt.Sprintf("AllReduce %v, want %v", r.sum, want.sum)
	case !slices.Equal(r.prefix, want.prefix) || !slices.Equal(r.total, want.total):
		return fmt.Sprintf("ExclusiveScan (%v, %v), want (%v, %v)", r.prefix, r.total, want.prefix, want.total)
	case !slices.Equal(r.ring, want.ring):
		return fmt.Sprintf("Exchange %d words, want %d", len(r.ring), len(want.ring))
	case !slices.EqualFunc(r.gathered, want.gathered, slices.Equal):
		return "AllGather parts differ"
	case !slices.EqualFunc(r.parts, want.parts, bytes.Equal):
		return "AllToAllBytes parts differ"
	}
	return ""
}

// TestPooledPayloadsNoUseAfterRelease is the conformance test of the
// payload pool: on every PE two sub-communicators run rounds of every
// collective concurrently, on fresh random payloads each round, and
// every result must equal the sequential oracle — both when it is
// returned and again one round later, after the pool has recycled the
// buffers of the round that produced it. A payload handed back while
// still in use, or a result aliasing a recycled buffer, shows up as a
// mismatch (and under -race as a data race).
func TestPooledPayloadsNoUseAfterRelease(t *testing.T) {
	const rounds = 200
	for _, p := range []int{2, 3, 5} {
		for _, tc := range []struct {
			name string
			mk   func() (comm.Network, error)
		}{
			{"mem", func() (comm.Network, error) { return comm.NewMemNetworkTimeout(p, 0), nil }},
			{"tcp", func() (comm.Network, error) { return comm.NewTCPNetwork(p) }},
		} {
			t.Run(fmt.Sprintf("%s/p%d", tc.name, p), func(t *testing.T) {
				net, err := tc.mk()
				if err != nil {
					t.Fatal(err)
				}
				defer net.Close()
				// The first failure closes the network, so every other
				// round fails fast instead of waiting out the deadlock
				// timeout, and only that failure is reported.
				var (
					once  sync.Once
					first error
				)
				fail := func(err error) {
					once.Do(func() {
						first = err
						net.Close()
					})
				}
				var wg sync.WaitGroup
				for r := range p {
					c := New(net.Endpoint(r))
					subs := make([]*Comm, 2)
					for i := range subs {
						if subs[i], err = c.Sub(); err != nil {
							t.Fatal(err)
						}
					}
					for s, sub := range subs {
						wg.Add(1)
						go func() {
							defer wg.Done()
							var held roundResults
							for round := range rounds {
								res, err := runRound(sub, inputOf(round, s, r, p))
								if err != nil {
									fail(fmt.Errorf("PE %d sub %d round %d: %w", r, s, round, err))
									return
								}
								if d := res.diff(oracle(round, s, r, p)); d != "" {
									fail(fmt.Errorf("PE %d sub %d round %d: %s", r, s, round, d))
									return
								}
								if round > 0 {
									if d := held.diff(oracle(round-1, s, r, p)); d != "" {
										fail(fmt.Errorf("PE %d sub %d: round %d's results changed under round %d: %s", r, s, round-1, round, d))
										return
									}
								}
								held = res
							}
						}()
					}
				}
				wg.Wait()
				if first != nil {
					t.Fatal(first)
				}
			})
		}
	}
}
