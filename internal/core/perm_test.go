package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/manipulate"
	"repro/internal/workload"
)

func shardU64(xs []uint64, p, r int) []uint64 {
	s, e := data.SplitEven(len(xs), p, r)
	return xs[s:e]
}

// permCfg is the default permutation checker: one product iteration.
var permCfg = PermConfig{Iterations: 1}

// newPermChecker derives a checker instance from cfg and a shared seed.
func newPermChecker(cfg PermConfig, seed uint64) *permChecker {
	c := new(permChecker)
	c.init(cfg, seed)
	return c
}

// accumulateIntoScalar is the scalar reference loop of accumulateInto,
// the one-lane canonical fold with the zero factors skipped and
// counted. TestPolyProdMatchesSerial holds the kernel to it, and
// BenchmarkPermAccumulateEngine measures the kernel against it; the
// slots are bit-identical.
func (c *permChecker) accumulateIntoScalar(sums []uint64, xs []uint64, out bool) {
	for it := range c.cfg.Iterations {
		p, zeros := productSkipZeros(c.offsets(it), xs)
		i := 2 * it
		if out {
			i++
		}
		sums[i] = mulSlot(sums[i], p, zeros)
	}
}

// shuffled returns a deterministic permutation of xs.
func shuffled(xs []uint64, seed uint64) []uint64 {
	out := data.CloneU64s(xs)
	rng := hashing.NewMT19937_64(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := int(rng.Uint64n(uint64(i + 1)))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func TestPermCheckerAcceptsPermutation(t *testing.T) {
	input := workload.UniformU64s(4000, 1e8, 1)
	output := shuffled(input, 42)
	for _, p := range []int{1, 2, 4, 7} {
		for seed := uint64(0); seed < 5; seed++ {
			err := dist.RunConfig(dist.Config{}, p, seed, func(w *dist.Worker) error {
				ok, err := check(w, func(seed uint64) CheckState {
					return NewPermState("Permutation", permCfg, seed, [][]uint64{shardU64(input, p, w.Rank())}, shardU64(output, p, w.Rank()))
				})
				if err != nil {
					return err
				}
				if !ok {
					t.Errorf("p=%d seed=%d: permutation rejected", p, seed)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestPermCheckerAcceptsWithDuplicates(t *testing.T) {
	input := make([]uint64, 1000)
	for i := range input {
		input[i] = uint64(i % 10)
	}
	output := shuffled(input, 7)
	err := dist.RunConfig(dist.Config{}, 4, 3, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewPermState("Permutation", permCfg, seed, [][]uint64{shardU64(input, 4, w.Rank())}, shardU64(output, 4, w.Rank()))
		})
		if err != nil {
			return err
		}
		if !ok {
			t.Error("duplicate-heavy permutation rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPermCheckerDetectsChangedElement(t *testing.T) {
	input := workload.UniformU64s(2000, 1e8, 2)
	detected := 0
	const trials = 100
	for seed := uint64(0); seed < trials; seed++ {
		bad := shuffled(input, seed)
		bad[int(seed)%len(bad)] ^= 1 << (seed % 27)
		err := dist.RunConfig(dist.Config{}, 3, seed, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewPermState("Permutation", permCfg, seed, [][]uint64{shardU64(input, 3, w.Rank())}, shardU64(bad, 3, w.Rank()))
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 && !ok {
				detected++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if detected < trials-2 { // delta = 2^-32
		t.Fatalf("only %d of %d manipulations detected", detected, trials)
	}
}

func TestPermConfigDeltaAndValidate(t *testing.T) {
	// The product's documented bound, 3n/r per iteration at n = 2^28,
	// is below 3.5e-10.
	if d := 3 * 0x1p28 / float64(hashing.Mersenne61); d >= 3.5e-10 {
		t.Errorf("3n/r = %g at n = 2^28", d)
	}
	for its := 1; its <= maxProductIterations; its++ {
		if err := (PermConfig{Iterations: its}).Validate(); err != nil {
			t.Errorf("product ×%d: %v", its, err)
		}
	}
	for i, cfg := range []PermConfig{
		{}, // the zero config: no iteration
		{Iterations: maxProductIterations + 1},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

// TestPolyPermChecker: the product (Lemma 5) accepts a distributed
// permutation and rejects a changed element on every seed, through the
// same states and resolve as every checker.
func TestPolyPermChecker(t *testing.T) {
	input := workload.UniformU64s(1000, 1e8, 5)
	output := shuffled(input, 9)
	for _, cfg := range []PermConfig{permCfg, {Iterations: 2}} {
		err := dist.RunConfig(dist.Config{}, 4, 1, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewPermState("Poly", cfg, seed, [][]uint64{shardU64(input, 4, w.Rank())}, shardU64(output, 4, w.Rank()))
			})
			if err != nil {
				return err
			}
			if !ok {
				t.Errorf("×%d: product rejected a permutation", cfg.Iterations)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	detected := 0
	for seed := uint64(0); seed < 40; seed++ {
		bad := shuffled(input, seed)
		bad[3] += 1
		err := dist.RunConfig(dist.Config{}, 2, seed, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewPermState("Poly", permCfg, seed, [][]uint64{shardU64(input, 2, w.Rank())}, shardU64(bad, 2, w.Rank()))
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 && !ok {
				detected++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if detected != 40 {
		t.Fatalf("product detected %d of 40", detected)
	}
}

// TestPolyPermCheckerUniverseGuard: the product has no universe to
// guard. Every 64-bit element is its own factor — 2^61 - 1 and its
// residue 0, e and e + r, the top value — so a permutation of them is
// accepted and replacing any one of them by another is rejected.
func TestPolyPermCheckerUniverseGuard(t *testing.T) {
	const r = hashing.Mersenne61
	edge := []uint64{0, r - 1, r, r + 1, 1 << 61, 5 << 61, 6<<61 - 1, 7<<61 + r, ^uint64(0), 12345, 12345 + r}
	clean := shuffled(edge, 4)
	for i := range edge {
		for _, to := range []uint64{edge[(i+1)%len(edge)], edge[i] + r, edge[i] - r, edge[i] ^ 1<<61} {
			bad := data.CloneU64s(edge)
			bad[i] = to
			if !manipulate.ChangesMultiset(edge, bad) {
				continue
			}
			err := dist.RunConfig(dist.Config{}, 3, uint64(i), func(w *dist.Worker) error {
				ok, err := check(w, func(seed uint64) CheckState {
					return NewPermState("Poly", permCfg, seed, [][]uint64{shardU64(edge, 3, w.Rank())}, shardU64(clean, 3, w.Rank()))
				})
				if err != nil || !ok {
					t.Errorf("rank %d: clean permutation of the edge elements: verdict %v, %v", w.Rank(), ok, err)
				}
				ok, err = check(w, func(seed uint64) CheckState {
					return NewPermState("Poly", permCfg, seed, [][]uint64{shardU64(edge, 3, w.Rank())}, shardU64(bad, 3, w.Rank()))
				})
				if err != nil || ok {
					t.Errorf("rank %d: element %#x replaced by %#x: verdict %v, %v", w.Rank(), edge[i], to, ok, err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPolyCheckersOneAllReduction pins what one Lemma 5 check costs in
// collective operations once the common seed is cached: one resolve, a
// reduction of its one word per iteration plus the flag word and the
// verdict broadcast.
func TestPolyCheckersOneAllReduction(t *testing.T) {
	input := workload.UniformU64s(400, 1e8, 8)
	output := shuffled(input, 2)
	err := dist.RunConfig(dist.Config{}, 3, 1, func(w *dist.Worker) error {
		if _, err := w.CommonSeed(); err != nil {
			return err
		}
		in, out := shardU64(input, 3, w.Rank()), shardU64(output, 3, w.Rank())
		for _, cfg := range []PermConfig{permCfg, {Iterations: 2}} {
			before := w.Coll.OpsStarted()
			ok, err := check(w, func(seed uint64) CheckState {
				st := NewPermState("Poly", cfg, seed, [][]uint64{in}, out)
				if len(st.Words()) != cfg.Iterations {
					t.Errorf("%d product iterations seal %d words", cfg.Iterations, len(st.Words()))
				}
				return st
			})
			if err != nil {
				return err
			}
			if ops := w.Coll.OpsStarted() - before; ops != 2 || !ok {
				t.Errorf("product ×%d rank %d: verdict %v after %d collective ops, want true after 2", cfg.Iterations, w.Rank(), ok, ops)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPolyProdMatchesSerial: the product kernel's slots — four lazy
// lanes off the offsets — and the scalar accumulateIntoScalar's equal
// productOracle's canonical left fold bit for bit, over the whole range
// of 64-bit elements, every tail length of the unroll, both sides and
// two iterations, multiplied into slots that already hold a product.
func TestPolyProdMatchesSerial(t *testing.T) {
	xs := workload.UniformU64s(24576, 1e15, 17)
	s := uint64(17)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = hashing.SplitMix64(&s) // the full 64 bits, q = 0..7
		}
	}
	cfg := PermConfig{Iterations: 2}
	c := newPermChecker(cfg, 0x5eed)
	zs, ys := productPoints(cfg, 0x5eed)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, len(xs)} {
		for _, out := range []bool{false, true} {
			want := newSums(cfg)
			for it := range cfg.Iterations {
				p, zeros := productOracle(zs[it], ys[it], xs[:7])
				want[2*it] = mulSlot(want[2*it], p, zeros)
				p, zeros = productOracle(zs[it], ys[it], xs[:n])
				i := 2 * it
				if out {
					i++
				}
				want[i] = mulSlot(want[i], p, zeros)
			}
			got, scalar := newSums(cfg), newSums(cfg)
			c.accumulateInto(got, xs[:7], false)
			c.accumulateInto(got, xs[:n], out)
			c.accumulateIntoScalar(scalar, xs[:7], false)
			c.accumulateIntoScalar(scalar, xs[:n], out)
			for i := range got {
				if got[i] != want[i] || scalar[i] != want[i] {
					t.Fatalf("n=%d out=%v: slot %d is %#x (scalar %#x), the oracle's %#x", n, out, i, got[i], scalar[i], want[i])
				}
			}
		}
	}
}

func TestUnionChecker(t *testing.T) {
	a := workload.UniformU64s(800, 1e8, 6)
	b := workload.UniformU64s(1200, 1e8, 7)
	out := shuffled(append(data.CloneU64s(a), b...), 11)
	err := dist.RunConfig(dist.Config{}, 4, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewPermState("Union", permCfg, seed, [][]uint64{shardU64(a, 4, w.Rank()), shardU64(b, 4, w.Rank())}, shardU64(out, 4, w.Rank()))
		})
		if err != nil {
			return err
		}
		if !ok {
			t.Error("correct union rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A union that loses one element must be caught.
	detected := 0
	for seed := uint64(0); seed < 50; seed++ {
		bad := shuffled(append(data.CloneU64s(a), b...), seed)[1:]
		err := dist.RunConfig(dist.Config{}, 2, seed, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewPermState("Union", permCfg, seed, [][]uint64{shardU64(a, 2, w.Rank()), shardU64(b, 2, w.Rank())}, shardU64(bad, 2, w.Rank()))
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 && !ok {
				detected++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if detected < 49 {
		t.Fatalf("lost element detected only %d of 50 times", detected)
	}
}

// TestPermCheckerEscapeRateWithinDelta is the permutation slice of
// ROADMAP's delta gate, owed because the generator under the Tab
// family's tables changed: at deliberately weak parameters, over seeded
// trials of every Table 6 manipulator, the observed escape rate of
// Lemma 4's hash sums (HashSumChecker) must be statistically consistent
// with Delta — the exact binomial test of
// TestSumCheckerEscapeRateWithinDelta, at 0.1 %. Every trial also checks
// the one-sided contract: a shuffle of the input is accepted. Lemma 5's
// product, at a field weak enough that escapes are seen, is held to its
// bound the same way.
func TestPermCheckerEscapeRateWithinDelta(t *testing.T) {
	const (
		n        = 512
		universe = 1 << 20
		trials   = 200
	)
	cfgs := []HashSumConfig{
		{Family: hashing.FamilyTab, LogH: 4, Iterations: 1}, // 1/16
		{Family: hashing.FamilyTab, LogH: 8, Iterations: 1}, // 1/256
		{Family: hashing.FamilyTab, LogH: 4, Iterations: 2}, // 1/256
	}
	input := workload.UniformU64s(n, universe, 0xde17a)
	clean := shuffled(input, 0x5bff1e)
	bad := make([]uint64, n)
	accepts := func(cfg HashSumConfig, seed uint64, output []uint64) bool {
		return NewHashSumChecker(cfg, seed).Check(input, output)
	}
	for _, cfg := range cfgs {
		delta := cfg.Delta()
		for mi, m := range manipulate.SeqManipulators() {
			escapes, ran := 0, 0
			for trial := 0; trial < trials; trial++ {
				seed := hashing.Mix64(uint64(trial)*0x9e3779b97f4a7c15 ^ uint64(mi)<<32 ^ 0xe5ca9e)
				copy(bad, input)
				if !m.Apply(bad, hashing.NewMT19937_64(seed), universe) || !manipulate.ChangesMultiset(input, bad) {
					continue
				}
				ran++
				if !accepts(cfg, seed, clean) {
					t.Fatalf("%s ×%d seed %#x: clean permutation rejected", cfg.Name(), cfg.Iterations, seed)
				}
				if accepts(cfg, seed, bad) {
					escapes++
				}
			}
			if ran < trials*9/10 {
				t.Fatalf("%s ×%d %s: only %d of %d trials injected a fault", cfg.Name(), cfg.Iterations, m.Name, ran, trials)
			}
			if pval := binomTailGE(ran, escapes, delta); pval < 0.001 {
				t.Errorf("%s ×%d %s: %d of %d faults escaped (%.3f), not consistent with delta %.4f (p = %.2g)",
					cfg.Name(), cfg.Iterations, m.Name, escapes, ran, float64(escapes)/float64(ran), delta, pval)
			}
		}
	}

	// The hash sum's documented limit: simple tabulation is
	// 3-independent, so a Rectangle's four hash values XOR to zero under
	// every table and only carries separate their sums. Tab64 at LogH 8
	// lets it through far above delta (about 0.13 against 0.0039).
	tab64 := HashSumConfig{Family: hashing.FamilyTab64, LogH: 8, Iterations: 1}
	escapes, ran := 0, 0
	for trial := 0; trial < trials; trial++ {
		seed := hashing.Mix64(uint64(trial)*0x9e3779b97f4a7c15 ^ 0x7ec7a)
		copy(bad, input)
		if !manipulate.Rectangle.Apply(bad, hashing.NewMT19937_64(seed), universe) || !manipulate.ChangesMultiset(input, bad) {
			continue
		}
		ran++
		if accepts(tab64, seed, bad) {
			escapes++
		}
	}
	t.Logf("%s ×1 Rectangle: %d of %d escaped, delta %.4f", tab64.Name(), escapes, ran, tab64.Delta())
	if pval := binomTailGE(ran, escapes, tab64.Delta()); ran < trials*9/10 || pval >= 0.001 {
		t.Errorf("%s ×1 Rectangle: %d of %d faults escaped, consistent with delta %.4f (p = %.2g): the pinned limit of the hash sum moved",
			tab64.Name(), escapes, ran, tab64.Delta(), pval)
	}

	// Lemma 5 at a weak field, through the test-only weakProduct: the
	// construction with 13 in place of 61, so that escapes are seen. Its
	// bound is 3n/r for every fault, the Rectangle among them.
	weakIn := workload.UniformU64s(n, weakUniverse, 0xde17b)
	weakClean := shuffled(weakIn, 0x5bff1f)
	bound := 3 * float64(n) / weakR
	for mi, m := range append(manipulate.SeqManipulators(), manipulate.Rectangle) {
		escapes, ran := 0, 0
		for trial := 0; ran < trials && trial < 20*trials; trial++ {
			seed := hashing.Mix64(uint64(trial)*0x9e3779b97f4a7c15 ^ uint64(mi)<<32 ^ 0x3ea4)
			copy(bad, weakIn)
			if !m.Apply(bad, hashing.NewMT19937_64(seed), weakUniverse) {
				continue
			}
			for i := range bad {
				bad[i] %= weakUniverse // the weak encoding's universe
			}
			if !manipulate.ChangesMultiset(weakIn, bad) {
				continue
			}
			ran++
			rng := hashing.NewMT19937_64(seed ^ 0x9e37)
			z, y := rng.Uint64n(weakR), rng.Uint64n(weakR)
			if !weakProduct(z, y, weakIn, weakClean) {
				t.Fatalf("weak product, %s seed %#x: clean permutation rejected", m.Name, seed)
			}
			if weakProduct(z, y, weakIn, bad) {
				escapes++
			}
		}
		if ran < trials {
			t.Fatalf("weak product %s: only %d faults injected", m.Name, ran)
		}
		t.Logf("weak product %s: %d of %d escaped, 3n/r %.4f", m.Name, escapes, ran, bound)
		if pval := binomTailGE(ran, escapes, bound); pval < 0.001 {
			t.Errorf("weak product %s: %d of %d faults escaped (%.3f), not consistent with 3n/r = %.4f (p = %.2g)",
				m.Name, escapes, ran, float64(escapes)/float64(ran), bound, pval)
		}
	}
}

// The weak field of the escape-rate gate: r = 2^13 - 1 and elements
// below 2^16, so q = e >> 13 < 8 as q = e >> 61 is for 64-bit elements.
const (
	weakR        = 1<<13 - 1
	weakUniverse = 1 << 16
)

// weakProduct reports whether Lemma 5's product at point (z, y) of
// F_weakR accepts out as a permutation of in: the encoding of
// permChecker.init with 13 in place of 61 — a = e & r, q = e >> 13,
// and a = r sent to (0, q+8) — and its accept test: equal products of
// the nonzero factors, and zero-factor counts equal mod 8.
func weakProduct(z, y uint64, in, out []uint64) bool {
	side := func(xs []uint64) (p, zeros uint64) {
		p = 1
		for _, e := range xs {
			a, q := e&weakR, e>>13
			if a == weakR {
				a, q = 0, q+8
			}
			f := (z + 2*weakR - a - y*q%weakR) % weakR
			if f == 0 {
				zeros++
				continue
			}
			p = p * f % weakR
		}
		return p, zeros
	}
	pin, zin := side(in)
	pout, zout := side(out)
	return pin == pout && (zin-zout)%8 == 0
}

// productOracle is the scalar left fold the product kernel is held to,
// written from the construction alone: point (z, y) of F_r, r = 2^61 -
// 1, and element e's canonical factor z - a - y·q, a = e mod 2^61 and q
// = e >> 61, or a = 0 and q + 8 for a = 2^61 - 1. It returns the
// product of the nonzero factors and how many are zero.
func productOracle(z, y uint64, xs []uint64) (p, zeros uint64) {
	const r = hashing.Mersenne61
	p = 1
	for _, e := range xs {
		a, q := e&r, e>>61
		if a == r {
			a, q = 0, q+8
		}
		f := hashing.SubMod61(hashing.SubMod61(z, a), hashing.MulMod61(y, q))
		if f == 0 {
			zeros++
			continue
		}
		p = hashing.MulMod61(p, f)
	}
	return p, zeros
}

// productPoints returns the points (z, y) of cfg's iterations under
// seed, drawn as the checker draws them.
func productPoints(cfg PermConfig, seed uint64) (zs, ys []uint64) {
	s := seed ^ permSeedDomain
	for range cfg.Iterations {
		zs = append(zs, drawField(&s))
		ys = append(ys, drawField(&s))
	}
	return zs, ys
}

// zeroFactorElem returns an element whose factor is zero at (z, y):
// a = z - 3y, q = 3.
func zeroFactorElem(z, y uint64) uint64 {
	return 3<<61 | hashing.SubMod61(z, hashing.MulMod61(y, 3))
}

// FuzzPermProductChunks: bytes → a product checker (seed, 1–3
// iterations), a sequence of 64-bit elements with optionally the
// element whose factor is zero at the seed's first point, a split
// into input and output and a chunk size. The builder's sealed words,
// fed the input and the output in chunks, must equal word for word the
// scalar left fold of productOracle over each side whole: w·P_out =
// P_in in the low 61 bits, the zero counts' difference mod 8 in the top
// 3 — checked by multiplying, with no inverse. Input equal to output
// must seal to productSlot.
func FuzzPermProductChunks(f *testing.F) {
	const r = hashing.Mersenne61
	edges := []uint64{0, r - 1, r, r + 1, ^uint64(0)}
	for q := uint64(0); q < 8; q++ {
		edges = append(edges, q<<61, (q+1)<<61-1)
	}
	raw := make([]byte, 8*len(edges))
	for i, e := range edges {
		binary.LittleEndian.PutUint64(raw[8*i:], e)
	}
	f.Add(uint64(0x5eed), raw, uint16(7), byte(2), byte(0), true)
	f.Add(uint64(1), raw, uint16(0), byte(0), byte(1), true)
	f.Add(uint64(42), raw, uint16(len(edges)), byte(255), byte(2), false)
	f.Add(uint64(7), []byte{}, uint16(0), byte(3), byte(0), true)
	f.Add(uint64(9), []byte("eight by"), uint16(1), byte(0), byte(0), false)
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte, cut uint16, chunk, its byte, zero bool) {
		cfg := PermConfig{Iterations: 1 + int(its)%3}
		zs, ys := productPoints(cfg, seed)
		xs := make([]uint64, 0, len(raw)/8+2)
		for ; len(raw) >= 8; raw = raw[8:] {
			xs = append(xs, binary.LittleEndian.Uint64(raw))
		}
		if zero {
			// Twice, so that both sides can hold one.
			xs = append(xs, zeroFactorElem(zs[0], ys[0]))
			xs = append([]uint64{zeroFactorElem(zs[0], ys[0])}, xs...)
		}
		k := int(cut) % (len(xs) + 1)
		in, out := xs[:k], xs[k:]
		step := 1 + int(chunk)%9
		feed := func(add func([]uint64), xs []uint64) {
			for lo := 0; lo < len(xs); lo += step {
				add(xs[lo:min(lo+step, len(xs))])
			}
		}
		b := NewPermBuilder("fuzz", cfg, seed, Serial)
		feed(b.AddInput, in)
		feed(b.AddOutput, out)
		words := b.Seal().Words()
		if len(words) != cfg.Iterations {
			t.Fatalf("×%d sealed %d words", cfg.Iterations, len(words))
		}
		for it, w := range words {
			pin, zin := productOracle(zs[it], ys[it], in)
			pout, zout := productOracle(zs[it], ys[it], out)
			if hashing.MulMod61(w&r, pout) != pin || w>>61 != (zin-zout)&7 {
				t.Fatalf("×%d iteration %d, %d in / %d out, chunk %d: word %#x, oracle P_in %#x P_out %#x zeros %d/%d",
					cfg.Iterations, it, len(in), len(out), step, w, pin, pout, zin, zout)
			}
		}
		same := NewPermBuilder("fuzz", cfg, seed, Serial)
		feed(same.AddInput, xs)
		same.AddOutput(xs)
		for it, w := range same.Seal().Words() {
			if w != productSlot {
				t.Fatalf("iteration %d: a sequence against itself sealed to %#x", it, w)
			}
		}
	})
}

// TestProductZeroFactorCounted: an element whose factor is zero at the
// seed's point is left out of the product but not out of the verdict.
// An output with one extra such element is rejected, and one that
// holds it on another rank than the input does is accepted: the
// counts in the words' top bits cancel across ranks in Combine.
func TestProductZeroFactorCounted(t *testing.T) {
	xs := workload.UniformU64s(300, 1e8, 23)
	for _, p := range []int{1, 2, 3} {
		for _, extra := range []bool{true, false} {
			err := dist.RunConfig(dist.Config{}, p, 5, func(w *dist.Worker) error {
				ok, err := check(w, func(seed uint64) CheckState {
					zs, ys := productPoints(permCfg, seed)
					zero := zeroFactorElem(zs[0], ys[0])
					in, out := shardU64(xs, p, w.Rank()), data.CloneU64s(shardU64(xs, p, w.Rank()))
					if !extra && w.Rank() == 0 {
						in = append(data.CloneU64s(in), zero)
					}
					if w.Rank() == p-1 {
						out = append(out, zero)
					}
					return NewPermState("zero", permCfg, seed, [][]uint64{in}, out)
				})
				if err != nil {
					return err
				}
				if ok == extra {
					t.Errorf("p=%d extra zero-factor element=%v: rank %d verdict %v", p, extra, w.Rank(), ok)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
