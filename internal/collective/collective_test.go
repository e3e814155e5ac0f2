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

// runSPMD executes body on every endpoint of a fresh in-memory network
// and fails the test on any error.
func runSPMD(t *testing.T, p int, body func(c *Comm) error) {
	t.Helper()
	net := comm.NewMemNetworkTimeout(p, 0)
	defer net.Close()
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = body(New(net.Endpoint(r)))
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("PE %d: %v", r, err)
		}
	}
}

// sizes covers powers of two and awkward non-powers.
var sizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func TestBroadcast(t *testing.T) {
	for _, p := range sizes {
		runSPMD(t, p, func(c *Comm) error {
			in := []uint64{uint64(c.Rank())} // ignored everywhere but at rank 0
			if c.Rank() == 0 {
				in = []uint64{42, 99, uint64(p)}
			}
			got, err := c.Broadcast(in)
			if err != nil {
				return err
			}
			if len(got) != 3 || got[0] != 42 || got[1] != 99 || got[2] != uint64(p) {
				t.Errorf("p=%d rank=%d: got %v", p, c.Rank(), got)
			}
			return nil
		})
	}
}

func TestReduceSum(t *testing.T) {
	for _, p := range sizes {
		p := p
		runSPMD(t, p, func(c *Comm) error {
			in := []uint64{uint64(c.Rank()), 1}
			got, err := c.Reduce(in, OpSum)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				wantSum := uint64(p * (p - 1) / 2)
				if got[0] != wantSum || got[1] != uint64(p) {
					t.Errorf("p=%d: reduce got %v, want [%d %d]", p, got, wantSum, p)
				}
			}
			return nil
		})
	}
}

// TestReduceFoldsIntoInput pins Reduce's contract: it folds into the
// words it is given and returns them, so rank 0's input ends up holding
// the whole reduction and no PE pays for a copy.
func TestReduceFoldsIntoInput(t *testing.T) {
	runSPMD(t, 4, func(c *Comm) error {
		in := []uint64{uint64(c.Rank())}
		got, err := c.Reduce(in, OpSum)
		if err != nil {
			return err
		}
		if &got[0] != &in[0] {
			t.Errorf("rank %d: Reduce returned a copy, want its input", c.Rank())
		}
		if c.Rank() == 0 && in[0] != 6 {
			t.Errorf("rank 0: input holds %d after the reduction, want 6", in[0])
		}
		return nil
	})
}

// TestAllReduceKeepsInput: AllReduce, unlike Reduce, leaves its input
// alone and returns a result of the caller's.
func TestAllReduceKeepsInput(t *testing.T) {
	runSPMD(t, 4, func(c *Comm) error {
		in := []uint64{uint64(c.Rank())}
		got, err := c.AllReduce(in, OpSum)
		if err != nil {
			return err
		}
		if in[0] != uint64(c.Rank()) {
			t.Errorf("rank %d: input clobbered to %d", c.Rank(), in[0])
		}
		if &got[0] == &in[0] || got[0] != 6 {
			t.Errorf("rank %d: AllReduce returned %v (aliasing its input: %v), want a fresh [6]", c.Rank(), got, &got[0] == &in[0])
		}
		return nil
	})
}

// opConcat is an order-sensitive ReduceOp: a vector is a count followed
// by that many entries (the rest is padding), and the combination is src's
// entries appended to dst's. Associative, not commutative, with the
// zero vector as identity — so a result lists the ranks it covers in
// the order they were combined.
func opConcat(dst, src []uint64) {
	copy(dst[1+dst[0]:], src[1:1+src[0]])
	dst[0] += src[0]
}

// concatOf is the opConcat vector, with room for p entries, holding
// ranks [lo, hi).
func concatOf(p, lo, hi int) []uint64 {
	v := make([]uint64, 1+p)
	for r := lo; r < hi; r++ {
		v[1+v[0]] = uint64(r)
		v[0]++
	}
	return v
}

// TestReduceRankOrder: the tree combines rank-contiguous partials in
// ascending order at every size, which is what lets the sort checker
// reduce with an order-sensitive op.
func TestReduceRankOrder(t *testing.T) {
	for _, p := range sizes {
		runSPMD(t, p, func(c *Comm) error {
			got, err := c.AllReduce(concatOf(p, c.Rank(), c.Rank()+1), opConcat)
			if err != nil {
				return err
			}
			if want := concatOf(p, 0, p); !slices.Equal(got, want) {
				t.Errorf("p=%d rank %d: reduced in order %v, want %v", p, c.Rank(), got, want)
			}
			return nil
		})
	}
}

// opMin and opMax are order-insensitive ReduceOps other than the sum, for
// exercising the trees with more than one combine.
func opMin(dst, src []uint64) {
	for i := range dst {
		dst[i] = min(dst[i], src[i])
	}
}

func opMax(dst, src []uint64) {
	for i := range dst {
		dst[i] = max(dst[i], src[i])
	}
}

func TestAllReduceMinMax(t *testing.T) {
	for _, p := range sizes {
		p := p
		runSPMD(t, p, func(c *Comm) error {
			in := []uint64{uint64(c.Rank() + 10), uint64(c.Rank() + 10)}
			gotMin, err := c.AllReduce(in[:1], opMin)
			if err != nil {
				return err
			}
			gotMax, err := c.AllReduce(in[1:], opMax)
			if err != nil {
				return err
			}
			if gotMin[0] != 10 {
				t.Errorf("p=%d rank %d: min %d", p, c.Rank(), gotMin[0])
			}
			if gotMax[0] != uint64(p+9) {
				t.Errorf("p=%d rank %d: max %d", p, c.Rank(), gotMax[0])
			}
			return nil
		})
	}
}

func TestAllReduceSumMod(t *testing.T) {
	const r = 97
	runSPMD(t, 8, func(c *Comm) error {
		in := []uint64{uint64(c.Rank()*13) % r}
		// Addition modulo r on canonical residues, the shape of the sum
		// checker's combine.
		got, err := c.AllReduce(in, func(dst, src []uint64) {
			for i := range dst {
				dst[i] = (dst[i] + src[i]) % r
			}
		})
		if err != nil {
			return err
		}
		want := uint64(0)
		for i := 0; i < 8; i++ {
			want = (want + uint64(i*13)) % r
		}
		if got[0] != want {
			t.Errorf("rank %d: got %d, want %d", c.Rank(), got[0], want)
		}
		return nil
	})
}

func TestGatherVariableLengths(t *testing.T) {
	for _, p := range sizes {
		p := p
		runSPMD(t, p, func(c *Comm) error {
			r := c.Rank()
			in := make([]uint64, r) // PE r contributes r words
			for i := range in {
				in[i] = uint64(r*100 + i)
			}
			parts, err := c.Gather(in)
			if err != nil {
				return err
			}
			if c.Rank() != 0 {
				if parts != nil {
					t.Errorf("non-root got non-nil gather result")
				}
				return nil
			}
			if len(parts) != p {
				t.Errorf("got %d parts", len(parts))
				return nil
			}
			for src, ws := range parts {
				if len(ws) != src {
					t.Errorf("part %d has %d words", src, len(ws))
				}
				for i, w := range ws {
					if w != uint64(src*100+i) {
						t.Errorf("part %d word %d = %d", src, i, w)
					}
				}
			}
			return nil
		})
	}
}

// TestAllGather gives every PE every part, at every size, with unequal
// parts and empty ones (every third rank contributes nothing).
func TestAllGather(t *testing.T) {
	part := func(r int) []uint64 {
		in := make([]uint64, r%3)
		for i := range in {
			in[i] = uint64(r*7 + i)
		}
		return in
	}
	for _, p := range sizes {
		runSPMD(t, p, func(c *Comm) error {
			parts, err := c.AllGather(part(c.Rank()))
			if err != nil {
				return err
			}
			if len(parts) != p {
				t.Errorf("p=%d rank %d: %d parts", p, c.Rank(), len(parts))
				return nil
			}
			for src, ws := range parts {
				if !slices.Equal(ws, part(src)) {
					t.Errorf("p=%d rank %d: part %d = %v, want %v", p, c.Rank(), src, ws, part(src))
				}
			}
			return nil
		})
	}
}

func TestExclusiveScan(t *testing.T) {
	for _, p := range sizes {
		runSPMD(t, p, func(c *Comm) error {
			in := []uint64{uint64(c.Rank() + 1)}
			got, total, err := c.ExclusiveScan(in, OpSum, []uint64{0})
			if err != nil {
				return err
			}
			want := uint64(c.Rank() * (c.Rank() + 1) / 2)
			if len(got) != 1 || got[0] != want {
				t.Errorf("p=%d rank %d: scan got %v, want %d", p, c.Rank(), got, want)
			}
			if wantTotal := uint64(p * (p + 1) / 2); len(total) != 1 || total[0] != wantTotal {
				t.Errorf("p=%d rank %d: total %v, want %d", p, c.Rank(), total, wantTotal)
			}
			if in[0] != uint64(c.Rank()+1) {
				t.Errorf("p=%d rank %d: input clobbered to %d", p, c.Rank(), in[0])
			}
			return nil
		})
	}
}

// TestExclusiveScanRankOrder: with an order-sensitive op the prefix at
// rank r is exactly ranks 0..r-1 in order and the total all of them —
// the one sweep needs associativity only.
func TestExclusiveScanRankOrder(t *testing.T) {
	for _, p := range sizes {
		runSPMD(t, p, func(c *Comm) error {
			r := c.Rank()
			prefix, total, err := c.ExclusiveScan(concatOf(p, r, r+1), opConcat, concatOf(p, 0, 0))
			if err != nil {
				return err
			}
			if want := concatOf(p, 0, r); !slices.Equal(prefix, want) {
				t.Errorf("p=%d rank %d: prefix %v, want %v", p, r, prefix, want)
			}
			if want := concatOf(p, 0, p); !slices.Equal(total, want) {
				t.Errorf("p=%d rank %d: total %v, want %v", p, r, total, want)
			}
			return nil
		})
	}
}

func TestExclusiveScanIdentityLength(t *testing.T) {
	runSPMD(t, 1, func(c *Comm) error {
		if _, _, err := c.ExclusiveScan([]uint64{1, 2}, OpSum, []uint64{0}); err == nil {
			t.Error("a one-word identity for a two-word scan was accepted")
		}
		return nil
	})
}

func TestBarrier(t *testing.T) {
	for _, p := range sizes {
		p := p
		runSPMD(t, p, func(c *Comm) error {
			for i := 0; i < 3; i++ {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

func TestAllToAll(t *testing.T) {
	for _, p := range sizes {
		p := p
		runSPMD(t, p, func(c *Comm) error {
			parts := make([][]uint64, p)
			for j := range parts {
				parts[j] = []uint64{uint64(c.Rank()*1000 + j)}
			}
			got, err := c.AllToAll(parts)
			if err != nil {
				return err
			}
			for src, ws := range got {
				want := uint64(src*1000 + c.Rank())
				if len(ws) != 1 || ws[0] != want {
					t.Errorf("p=%d rank %d from %d: got %v want [%d]", p, c.Rank(), src, ws, want)
				}
			}
			return nil
		})
	}
}

func TestAllToAllEmptyParts(t *testing.T) {
	runSPMD(t, 4, func(c *Comm) error {
		parts := make([][]uint64, 4)
		parts[(c.Rank()+1)%4] = []uint64{7}
		got, err := c.AllToAll(parts)
		if err != nil {
			return err
		}
		for src, ws := range got {
			if src == (c.Rank()+3)%4 {
				if len(ws) != 1 || ws[0] != 7 {
					t.Errorf("expected [7] from %d, got %v", src, ws)
				}
			} else if len(ws) != 0 {
				t.Errorf("expected empty from %d, got %v", src, ws)
			}
		}
		return nil
	})
}

// sparsePart is the part PE src sends PE dst in round r of
// TestAllToAllSparsePattern: empty for about a third of the pairs, so
// every PE can derive the whole pattern, otherwise 1..300 bytes derived
// from (r, src, dst).
func sparsePart(r, src, dst int) []byte {
	rng := rand.New(rand.NewPCG(uint64(r), uint64(src<<16|dst)))
	if rng.IntN(3) == 0 {
		return nil
	}
	b := make([]byte, 1+rng.IntN(300))
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

// TestAllToAllSparsePattern holds the sparse all-to-all to its
// contract on every transport: a PE sends exactly its non-empty
// off-diagonal parts and receives exactly the parts its pattern names,
// byte for byte (nil from the others), and when the PEs are done no
// message is left in an inbox or in a Mux. Dense rounds in between
// still send p-1 messages a PE, empty parts included.
func TestAllToAllSparsePattern(t *testing.T) {
	const rounds = 12
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, tc := range asyncNetworks(p) {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) {
				net, err := tc.mk()
				if err != nil {
					t.Skipf("%s unavailable: %v", tc.name, err)
				}
				defer net.Close()
				recvd := make([]int64, p) // messages each PE's collectives took
				runNet(t, net, func(c *Comm) error {
					rank := c.Rank()
					for r := range rounds {
						dense := r%3 == 2
						parts, from := make([][]byte, p), make([]bool, p)
						wantSent := int64(0)
						for d := range parts {
							parts[d] = append(comm.GetPayload(0), sparsePart(r, rank, d)...)
							from[d] = len(sparsePart(r, d, rank)) > 0
							if d != rank && (dense || len(parts[d]) > 0) {
								wantSent++
							}
						}
						if dense {
							from = nil
						}
						before := c.MsgsSent()
						got, err := c.AllToAllBytes(parts, from)
						if err != nil {
							return fmt.Errorf("round %d: %w", r, err)
						}
						if sent := c.MsgsSent() - before; sent != wantSent {
							t.Errorf("round %d PE %d: sent %d messages, want %d", r, rank, sent, wantSent)
						}
						for src, b := range got {
							want := sparsePart(r, src, rank)
							if src != rank && (dense || from[src]) {
								recvd[rank]++
							} else if src != rank && b != nil {
								t.Errorf("round %d PE %d: a part from PE %d, which it does not expect", r, rank, src)
							}
							if !bytes.Equal(b, want) {
								t.Errorf("round %d PE %d: part from PE %d has %d bytes, want %d", r, rank, src, len(b), len(want))
							}
							comm.PutPayload(b)
						}
					}
					return nil
				})
				var sent, drawn int64
				for r := range p {
					m := net.Endpoint(r).Metrics().Snapshot()
					sent += m.MsgsSent
					drawn += m.MsgsRecv
					if m.MsgsRecv != recvd[r] {
						t.Errorf("PE %d drew %d messages from its inbox, its collectives took %d: the rest sit in its Mux", r, m.MsgsRecv, recvd[r])
					}
				}
				if sent != drawn {
					t.Errorf("%d messages sent, %d drawn: %d left in the inboxes", sent, drawn, sent-drawn)
				}
			})
		}
	}
}

// Exchange posts a send of words to dst (if dst is a valid rank) and
// then receives from src (if valid), one tag for the pair: the
// neighbour pattern, built on the word channel. Pass -1 to skip either
// side; a skipped receive returns nil.
func (c *Comm) Exchange(dst int, words []uint64, src int) ([]uint64, error) {
	tag := c.nextTag()
	if dst >= 0 {
		if err := c.sendU64s(dst, tag, words); err != nil {
			return nil, err
		}
	}
	if src < 0 {
		return nil, nil
	}
	return c.recvU64s(nil, src, tag)
}

func TestExchangeRing(t *testing.T) {
	const p = 6
	runSPMD(t, p, func(c *Comm) error {
		r := c.Rank()
		// Send local min to predecessor, receive successor's (the sort
		// checker's boundary pattern). Edges pass -1.
		dst, src := r-1, r+1
		if src >= p {
			src = -1
		}
		got, err := c.Exchange(dst, []uint64{uint64(r * 11)}, src)
		if err != nil {
			return err
		}
		if r == p-1 {
			if got != nil {
				t.Errorf("last PE expected nil, got %v", got)
			}
			return nil
		}
		if len(got) != 1 || got[0] != uint64((r+1)*11) {
			t.Errorf("rank %d: got %v", r, got)
		}
		return nil
	})
}

func TestManyCollectivesTagDiscipline(t *testing.T) {
	// Interleave different collectives many times to shake out tag
	// collisions between rounds and operations.
	runSPMD(t, 5, func(c *Comm) error {
		for i := 0; i < 200; i++ {
			var in []uint64
			if c.Rank() == 0 {
				in = []uint64{uint64(i)}
			}
			v, err := c.Broadcast(in)
			if err != nil {
				return err
			}
			if len(v) != 1 || v[0] != uint64(i) {
				t.Errorf("iteration %d: broadcast got %v", i, v)
				return nil
			}
			sum, err := c.AllReduce([]uint64{1}, OpSum)
			if err != nil {
				return err
			}
			if sum[0] != 5 {
				t.Errorf("iteration %d: allreduce got %d", i, sum[0])
				return nil
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestBytesU64RoundTrip(t *testing.T) {
	in := []uint64{0, 1, ^uint64(0), 0xdeadbeef}
	out, err := BytesToU64s(U64sToBytes(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("length %d", len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("word %d mismatch", i)
		}
	}
	if _, err := BytesToU64s(make([]byte, 7)); err == nil {
		t.Fatal("expected error for ragged payload")
	}
}
