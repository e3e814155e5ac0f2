package collective

import (
	"sync"
	"testing"

	"repro/internal/comm"
)

// runSPMD executes body on every endpoint of a fresh in-memory network
// and fails the test on any error.
func runSPMD(t *testing.T, p int, body func(c *Comm) error) {
	t.Helper()
	net := comm.NewMemNetwork(p)
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
		for root := 0; root < p; root += 3 {
			p, root := p, root
			runSPMD(t, p, func(c *Comm) error {
				var in []uint64
				if c.Rank() == root {
					in = []uint64{42, 99, uint64(root)}
				}
				got, err := c.Broadcast(root, in)
				if err != nil {
					return err
				}
				if len(got) != 3 || got[0] != 42 || got[1] != 99 || got[2] != uint64(root) {
					t.Errorf("p=%d root=%d rank=%d: got %v", p, root, c.Rank(), got)
				}
				return nil
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, p := range sizes {
		p := p
		runSPMD(t, p, func(c *Comm) error {
			in := []uint64{uint64(c.Rank()), 1}
			got, err := c.Reduce(0, in, OpSum)
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

func TestReduceDoesNotClobberInput(t *testing.T) {
	runSPMD(t, 4, func(c *Comm) error {
		in := []uint64{uint64(c.Rank())}
		if _, err := c.Reduce(0, in, OpSum); err != nil {
			return err
		}
		if in[0] != uint64(c.Rank()) {
			t.Errorf("rank %d: input clobbered to %d", c.Rank(), in[0])
		}
		return nil
	})
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
			parts, err := c.Gather(0, in)
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

func TestAllGather(t *testing.T) {
	runSPMD(t, 5, func(c *Comm) error {
		in := []uint64{uint64(c.Rank() * 7)}
		parts, err := c.AllGather(in)
		if err != nil {
			return err
		}
		for src, ws := range parts {
			if len(ws) != 1 || ws[0] != uint64(src*7) {
				t.Errorf("rank %d: part %d = %v", c.Rank(), src, ws)
			}
		}
		return nil
	})
}

func TestExclusiveScan(t *testing.T) {
	for _, p := range sizes {
		p := p
		runSPMD(t, p, func(c *Comm) error {
			in := []uint64{uint64(c.Rank() + 1)}
			got, err := c.ExclusiveScan(in, OpSum, []uint64{0})
			if err != nil {
				return err
			}
			want := uint64(0)
			for i := 0; i < c.Rank(); i++ {
				want += uint64(i + 1)
			}
			if got[0] != want {
				t.Errorf("p=%d rank %d: scan got %d, want %d", p, c.Rank(), got[0], want)
			}
			return nil
		})
	}
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

func TestAllAgree(t *testing.T) {
	runSPMD(t, 7, func(c *Comm) error {
		ok, err := c.AllAgree(true)
		if err != nil {
			return err
		}
		if !ok {
			t.Error("unanimous true reported as false")
		}
		ok, err = c.AllAgree(c.Rank() != 3)
		if err != nil {
			return err
		}
		if ok {
			t.Error("dissent not detected")
		}
		return nil
	})
}

func TestManyCollectivesTagDiscipline(t *testing.T) {
	// Interleave different collectives many times to shake out tag
	// collisions between rounds and operations.
	runSPMD(t, 5, func(c *Comm) error {
		for i := 0; i < 200; i++ {
			v, err := c.BroadcastU64(i%5, uint64(i))
			if err != nil {
				return err
			}
			if v != uint64(i) {
				t.Errorf("iteration %d: broadcast got %d", i, v)
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
