package core

import (
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/hashing"
	"repro/internal/workload"
)

func shardPairs(ps []data.Pair, p, r int) []data.Pair {
	s, e := data.SplitEven(len(ps), p, r)
	return ps[s:e]
}

// bucketsOf returns key's bucket in every iteration of c, in dst: the
// element-by-element addressing of AccumulateScalar, bucket bits peeled
// off each hash value of c's layout.
func bucketsOf(c *SumChecker, key uint64, dst []int) []int {
	dst = dst[:0]
	var h uint64
	for it := 0; it < c.cfg.Iterations; it++ {
		if it%c.perHash == 0 {
			h = c.hashers[it/c.perHash].Hash64(key)
		}
		dst = append(dst, int(h&uint64(c.cfg.Buckets-1)))
		h >>= c.width
	}
	return dst
}

// refSumAgg is the sequential reference aggregation.
func refSumAgg(ps []data.Pair) []data.Pair {
	return data.MapToPairs(data.PairsToMapSum(ps))
}

var smallCfg = SumConfig{Iterations: 4, Buckets: 8, RHatLog: 7, Family: hashing.FamilyTab}

func TestSumCheckerAcceptsCorrectResult(t *testing.T) {
	// One-sided error: a correct result must be accepted for every seed
	// and PE count.
	input := workload.ZipfPairs(3000, 500, 1000, 1)
	output := refSumAgg(input)
	for _, p := range []int{1, 2, 3, 5, 8} {
		for seed := uint64(0); seed < 8; seed++ {
			err := dist.RunConfig(dist.Config{}, p, seed, func(w *dist.Worker) error {
				ok, err := check(w, func(seed uint64) CheckState {
					return NewSumAggState("SumAgg", smallCfg, seed, shardPairs(input, p, w.Rank()), shardPairs(output, p, w.Rank()))
				})
				if err != nil {
					return err
				}
				if !ok {
					t.Errorf("p=%d seed=%d: correct result rejected", p, seed)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSumCheckerAcceptsAllConfigs(t *testing.T) {
	input := workload.ZipfPairs(500, 100, 100, 2)
	output := refSumAgg(input)
	configs := append(AccuracyConfigs(), ScalingConfigs()...)
	configs = append(configs, SumConfig{Iterations: 3, Buckets: 32, RHatLog: 8, Family: hashing.FamilyMix})
	for _, cfg := range configs {
		cfg := cfg
		err := dist.RunConfig(dist.Config{}, 4, 11, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewSumAggState("SumAgg", cfg, seed, shardPairs(input, 4, w.Rank()), shardPairs(output, 4, w.Rank()))
			})
			if err != nil {
				return err
			}
			if !ok {
				t.Errorf("config %s rejected a correct result", cfg.Name())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSumCheckerDetectsSingleValueError(t *testing.T) {
	input := workload.ZipfPairs(2000, 300, 1000, 3)
	output := refSumAgg(input)
	detected := 0
	const trials = 200
	for seed := uint64(0); seed < trials; seed++ {
		bad := data.ClonePairs(output)
		bad[int(seed)%len(bad)].Value++
		err := dist.RunConfig(dist.Config{}, 2, seed, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewSumAggState("SumAgg", smallCfg, seed, shardPairs(input, 2, w.Rank()), shardPairs(bad, 2, w.Rank()))
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
	// delta for 4x8 m7 is (2^-7 + 1/8)^4 ~= 3.1e-4; allow a wide margin.
	if detected < trials*95/100 {
		t.Fatalf("only %d of %d single-value errors detected", detected, trials)
	}
}

func TestSumCheckerDetectsDroppedKey(t *testing.T) {
	input := workload.ZipfPairs(1000, 50, 100, 4)
	output := refSumAgg(input)
	detected := 0
	const trials = 100
	for seed := uint64(0); seed < trials; seed++ {
		bad := data.ClonePairs(output)[1:] // drop one key entirely
		err := dist.RunConfig(dist.Config{}, 3, seed, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewSumAggState("SumAgg", smallCfg, seed, shardPairs(input, 3, w.Rank()), shardPairs(bad, 3, w.Rank()))
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
	if detected < trials*95/100 {
		t.Fatalf("only %d of %d dropped keys detected", detected, trials)
	}
}

func TestSumCheckerVerdictIdenticalOnAllPEs(t *testing.T) {
	input := workload.ZipfPairs(500, 50, 100, 5)
	bad := refSumAgg(input)
	bad[0].Value += 7
	const p = 5
	verdicts := make([]bool, p)
	err := dist.RunConfig(dist.Config{}, p, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewSumAggState("SumAgg", smallCfg, seed, shardPairs(input, p, w.Rank()), shardPairs(bad, p, w.Rank()))
		})
		if err != nil {
			return err
		}
		verdicts[w.Rank()] = ok
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < p; r++ {
		if verdicts[r] != verdicts[0] {
			t.Fatalf("verdict differs between PE 0 and PE %d", r)
		}
	}
}

// countState is NewSumAggState for count aggregation: every input pair
// counts 1 regardless of its value.
func countState(cfg SumConfig, seed uint64, input, output []data.Pair) CheckState {
	b := NewSumAggBuilder("CountAgg", cfg, seed, Serial, true)
	b.AddInput(input)
	b.AddOutput(output)
	return b.Seal()
}

func TestCountChecker(t *testing.T) {
	input := workload.ZipfPairs(2000, 100, 1000, 6) // values arbitrary
	counts := make(map[uint64]uint64)
	for _, pr := range input {
		counts[pr.Key]++
	}
	output := data.MapToPairs(counts)
	err := dist.RunConfig(dist.Config{}, 4, 3, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return countState(smallCfg, seed, shardPairs(input, 4, w.Rank()), shardPairs(output, 4, w.Rank()))
		})
		if err != nil {
			return err
		}
		if !ok {
			t.Error("correct counts rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Off-by-one count must be caught (with high probability).
	bad := data.ClonePairs(output)
	bad[len(bad)/2].Value++
	detected := 0
	for seed := uint64(0); seed < 50; seed++ {
		err := dist.RunConfig(dist.Config{}, 4, seed, func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return countState(smallCfg, seed, shardPairs(input, 4, w.Rank()), shardPairs(bad, 4, w.Rank()))
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
	if detected < 47 {
		t.Fatalf("only %d of 50 count errors detected", detected)
	}
}

func TestLazyModuloMatchesBigIntReference(t *testing.T) {
	// Stress the overflow-deferred modulo with values near 2^64.
	cfg := SumConfig{Iterations: 3, Buckets: 4, RHatLog: 5, Family: hashing.FamilyMix}
	c := NewSumChecker(cfg, 99)
	rng := hashing.NewMT19937_64(7)
	pairs := make([]data.Pair, 5000)
	for i := range pairs {
		pairs[i] = data.Pair{Key: rng.Uint64n(50), Value: ^uint64(0) - rng.Uint64n(1000)}
	}
	table := runInto(c, c.NewTable(), pairs, sumFeed)
	// Reference: big.Int per-bucket sums using the same bucket mapping.
	for it := 0; it < cfg.Iterations; it++ {
		r := new(big.Int).SetUint64(c.mods[it])
		ref := make([]*big.Int, cfg.Buckets)
		for b := range ref {
			ref[b] = new(big.Int)
		}
		for _, pr := range pairs {
			b := bucketsOf(c, pr.Key, nil)[it]
			ref[b].Add(ref[b], new(big.Int).SetUint64(pr.Value))
		}
		for b := 0; b < cfg.Buckets; b++ {
			want := new(big.Int).Mod(ref[b], r).Uint64()
			got := table[it*cfg.Buckets+b]
			if got != want {
				t.Fatalf("iteration %d bucket %d: got %d, want %d", it, b, got, want)
			}
		}
	}
}

func TestSumCheckerDeterministicAcrossInstances(t *testing.T) {
	// Same seed must yield identical instances (the cross-PE contract).
	input := workload.ZipfPairs(300, 40, 100, 8)
	a := NewSumChecker(smallCfg, 1234)
	b := NewSumChecker(smallCfg, 1234)
	ta, tb := runInto(a, a.NewTable(), input, sumFeed), runInto(b, b.NewTable(), input, sumFeed)
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatal("instances with equal seeds diverge")
		}
	}
}

func TestSumCheckerSplitInvariance(t *testing.T) {
	// Accumulating a slice in two halves must equal one pass (the
	// distributed homomorphism property), via the reduce op.
	input := workload.ZipfPairs(1000, 60, 500, 9)
	c := NewSumChecker(smallCfg, 77)
	whole := runInto(c, c.NewTable(), input, sumFeed)
	h1, h2 := runInto(c, c.NewTable(), input[:500], sumFeed), runInto(c, c.NewTable(), input[500:], sumFeed)
	addMod(h1, h2, c.mods)
	for i := range whole {
		if whole[i] != h1[i] {
			t.Fatal("split accumulation diverges from single pass")
		}
	}
}

func TestSumConfigTable3Values(t *testing.T) {
	// Spot-check the derived columns of Table 3.
	cases := []struct {
		name  string
		bits  int
		delta float64
	}{
		{"1×2 Tab m31", 64, 5e-1},
		{"1×4 Tab m31", 128, 2.5e-1},
		{"4×2 Tab m4", 40, 1e-1},
		{"4×4 Tab m3", 64, 2e-2},
		{"4×4 Tab m5", 96, 6e-3},
		{"4×8 Tab m3", 128, 3.9e-3},
		{"4×8 Tab m5", 192, 6e-4},
		{"4×8 Tab m7", 256, 3.1e-4},
		{"5×16 CRC m5", 480, 7.2e-6},
		{"6×32 CRC m9", 1920, 1.3e-9},
		{"8×16 CRC m15", 2048, 2.3e-10},
		{"4×256 CRC m15", 16384, 2.4e-10},
		{"5×128 Tab64 m11", 7680, 3.9e-11},
		{"16×16 Tab64 m15", 4096, 5.4e-20},
	}
	for _, cs := range cases {
		cfg, err := parseSumConfig(cs.name)
		if err != nil {
			t.Fatalf("%s: %v", cs.name, err)
		}
		if got := cfg.TableBits(); got != cs.bits {
			t.Errorf("%s: TableBits %d, want %d", cs.name, got, cs.bits)
		}
		got := cfg.AchievedDelta()
		if got > cs.delta*1.15 || got < cs.delta*0.5 {
			t.Errorf("%s: AchievedDelta %.2g, want about %.2g", cs.name, got, cs.delta)
		}
	}
	// 8×256 Tab64 m15: paper lists 32769 bits (a typo for 8*256*16=32768).
	cfg, err := parseSumConfig("8×256 Tab64 m15")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TableBits() != 32768 {
		t.Errorf("8×256 m15 TableBits = %d, want 32768", cfg.TableBits())
	}
	if math.Abs(math.Log10(cfg.AchievedDelta())-math.Log10(5.8e-20)) > 0.3 {
		t.Errorf("8×256 m15 delta = %g", cfg.AchievedDelta())
	}
}

// parseSumConfig parses the paper's configuration syntax
// "#its×d Hashfn m<log2 rhat>" ("x" is accepted for "×"), so the tests
// can name configurations the way Table 3 does.
func parseSumConfig(s string) (SumConfig, error) {
	fields := strings.Fields(strings.ReplaceAll(s, "×", "x"))
	if len(fields) != 3 {
		return SumConfig{}, fmt.Errorf("core: config %q: want \"#itsxd Hashfn m<bits>\"", s)
	}
	parts := strings.SplitN(fields[0], "x", 2)
	if len(parts) != 2 {
		return SumConfig{}, fmt.Errorf("core: config %q: bad its×d part", s)
	}
	its, err := strconv.Atoi(parts[0])
	if err != nil {
		return SumConfig{}, fmt.Errorf("core: config %q: %v", s, err)
	}
	d, err := strconv.Atoi(parts[1])
	if err != nil {
		return SumConfig{}, fmt.Errorf("core: config %q: %v", s, err)
	}
	fam, err := hashing.FamilyByName(fields[1])
	if err != nil {
		return SumConfig{}, err
	}
	if !strings.HasPrefix(fields[2], "m") {
		return SumConfig{}, fmt.Errorf("core: config %q: modulus must look like m7", s)
	}
	m, err := strconv.Atoi(fields[2][1:])
	if err != nil {
		return SumConfig{}, fmt.Errorf("core: config %q: %v", s, err)
	}
	cfg := SumConfig{Iterations: its, Buckets: d, RHatLog: m, Family: fam}
	return cfg, cfg.Validate()
}

func TestParseSumConfigErrors(t *testing.T) {
	for _, bad := range []string{"", "4x8", "4x8 Tab", "4x8 Nope m3", "ax8 Tab m3", "4x8 Tab q3", "0x8 Tab m3", "4x1 Tab m3", "4x8 Tab m99"} {
		if _, err := parseSumConfig(bad); err == nil {
			t.Errorf("parseSumConfig(%q) succeeded, want error", bad)
		}
	}
}

// TestSumConfigRejectsBucketsWiderThanHash: a bucket index wider than
// the family's hash value used to pass Validate and kill NewSumChecker
// with "integer divide by zero" (zero indices per hash value). It is a
// configuration error and must read like one, from Validate, from
// parseSumConfig, and in the panic NewSumChecker raises on any invalid
// configuration.
func TestSumConfigRejectsBucketsWiderThanHash(t *testing.T) {
	bad := SumConfig{Iterations: 1, Buckets: 1 << 33, RHatLog: 9, Family: hashing.FamilyCRC}
	err := bad.Validate()
	if err == nil || !strings.Contains(err.Error(), bad.Name()) || !strings.Contains(err.Error(), "33 bits") {
		t.Fatalf("Validate(%s) = %v, want an error naming the configuration and the 33 bits it needs", bad.Name(), err)
	}
	if _, perr := parseSumConfig("1x8589934592 CRC m9"); perr == nil || perr.Error() != err.Error() {
		t.Errorf("ParseSumConfig = %v, want Validate's error %v", perr, err)
	}
	func() {
		defer func() {
			if r := recover(); r == nil || r.(error).Error() != err.Error() {
				t.Errorf("NewSumChecker panicked with %v, want Validate's error %v", r, err)
			}
		}()
		NewSumChecker(bad, 1)
	}()
	// The widest index each family can serve stays valid; 64-bit
	// families have no limit an int can reach.
	for _, ok := range []SumConfig{
		{Iterations: 1, Buckets: 1 << 32, RHatLog: 9, Family: hashing.FamilyCRC},
		{Iterations: 2, Buckets: 1 << 32, RHatLog: 9, Family: hashing.FamilyTab},
		{Iterations: 1, Buckets: 1 << 40, RHatLog: 9, Family: hashing.FamilyTab64},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", ok.Name(), err)
		}
	}
}

// TestSumConfigRejectsNonPow2Buckets: the bucket indices are bit groups
// of a hash value, so a d that is not a power of two >= 2 has no layout
// and is a configuration error, named by Validate and raised by
// NewSumChecker as the same error.
func TestSumConfigRejectsNonPow2Buckets(t *testing.T) {
	for _, d := range []int{2, 4, 256} {
		if err := (SumConfig{Iterations: 4, Buckets: d, RHatLog: 7, Family: hashing.FamilyTab}).Validate(); err != nil {
			t.Errorf("d = %d rejected: %v", d, err)
		}
	}
	for _, d := range []int{-4, 0, 1, 3, 10, 37, 1<<32 - 5, 1<<32 + 1} {
		bad := SumConfig{Iterations: 4, Buckets: d, RHatLog: 7, Family: hashing.FamilyTab}
		err := bad.Validate()
		if err == nil || !strings.Contains(err.Error(), bad.Name()) || !strings.Contains(err.Error(), "power of two") {
			t.Fatalf("Validate(%s) = %v, want an error naming the configuration and the power of two", bad.Name(), err)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || r.(error).Error() != err.Error() {
					t.Errorf("NewSumChecker(%s) panicked with %v, want Validate's error %v", bad.Name(), r, err)
				}
			}()
			NewSumChecker(bad, 1)
		}()
	}
}

// TestSumConfigLayout pins how bucket bits lie in the hash values:
// iterations per hash value (Family.Bits / log2 d) and hash values per
// element, for the default, a two-hash shape, a shape that leaves two
// bits of a CRC value unused and a 64-bit family. For every shape, a
// hash value holds perHash whole indices, no more, and the hash values
// hold every iteration's index with less than one value to spare.
func TestSumConfigLayout(t *testing.T) {
	f := func(logD, its uint8, wide bool) bool {
		cfg := SumConfig{Iterations: 1 + int(its%64), Buckets: 2 << (logD % 10), RHatLog: 7, Family: hashing.FamilyCRC}
		if wide {
			cfg.Family = hashing.FamilyTab64
		}
		width, k, m := cfg.layout()
		bits := cfg.Family.Bits
		return 1<<width == cfg.Buckets && k*width <= bits && (k+1)*width > bits && m*k >= cfg.Iterations && (m-1)*k < cfg.Iterations
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	crc, tab64 := hashing.FamilyCRC, hashing.FamilyTab64
	for _, tc := range []struct {
		cfg             SumConfig
		perHash, hashes int
	}{
		{SumConfig{Iterations: 15, Buckets: 4, RHatLog: 10, Family: crc}, 16, 1},
		{SumConfig{Iterations: 16, Buckets: 16, RHatLog: 15, Family: crc}, 8, 2},
		{SumConfig{Iterations: 6, Buckets: 32, RHatLog: 9, Family: crc}, 6, 1},
		{SumConfig{Iterations: 8, Buckets: 256, RHatLog: 15, Family: tab64}, 8, 1},
	} {
		width, perHash, hashes := tc.cfg.layout()
		if 1<<width != tc.cfg.Buckets || perHash != tc.perHash || hashes != tc.hashes {
			t.Errorf("%s: layout = width %d, %d per hash, %d hashes; want width log2 d, %d per hash, %d hashes",
				tc.cfg.Name(), width, perHash, hashes, tc.perHash, tc.hashes)
		}
		c := NewSumChecker(tc.cfg, 1)
		if c.perHash != tc.perHash || len(c.hashers) != tc.hashes {
			t.Errorf("%s: checker has %d per hash and %d hashers, want %d and %d",
				tc.cfg.Name(), c.perHash, len(c.hashers), tc.perHash, tc.hashes)
		}
	}
}

func TestParseSumConfigRoundTrip(t *testing.T) {
	for _, cfg := range append(AccuracyConfigs(), ScalingConfigs()...) {
		parsed, err := parseSumConfig(cfg.Name())
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		if parsed.Name() != cfg.Name() {
			t.Errorf("round trip %s -> %s", cfg.Name(), parsed.Name())
		}
	}
}

func TestSumCheckerQuickCorrectAlwaysAccepted(t *testing.T) {
	// Property: for random small inputs, reference aggregation is
	// always accepted, for any seed — exercised through the full
	// distributed path.
	f := func(keys []uint8, vals []uint16, seed uint16) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		input := make([]data.Pair, n)
		for i := 0; i < n; i++ {
			input[i] = data.Pair{Key: uint64(keys[i]), Value: uint64(vals[i])}
		}
		output := refSumAgg(input)
		accepted := true
		err := dist.RunConfig(dist.Config{}, 3, uint64(seed), func(w *dist.Worker) error {
			ok, err := check(w, func(seed uint64) CheckState {
				return NewSumAggState("SumAgg", smallCfg, seed, shardPairs(input, 3, w.Rank()), shardPairs(output, 3, w.Rank()))
			})
			if err != nil {
				return err
			}
			if w.Rank() == 0 {
				accepted = ok
			}
			return nil
		})
		return err == nil && accepted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSumCheckerEmptyInput(t *testing.T) {
	err := dist.RunConfig(dist.Config{}, 3, 1, func(w *dist.Worker) error {
		ok, err := check(w, func(seed uint64) CheckState {
			return NewSumAggState("SumAgg", smallCfg, seed, nil, nil)
		})
		if err != nil {
			return err
		}
		if !ok {
			t.Error("empty aggregation rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSumCheckerNonEmptyVsEmptyOutput(t *testing.T) {
	input := []data.Pair{{Key: 1, Value: 5}}
	detected := 0
	for seed := uint64(0); seed < 30; seed++ {
		err := dist.RunConfig(dist.Config{}, 2, seed, func(w *dist.Worker) error {
			var in []data.Pair
			if w.Rank() == 0 {
				in = input
			}
			ok, err := check(w, func(seed uint64) CheckState {
				return NewSumAggState("SumAgg", smallCfg, seed, in, nil)
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
	if detected < 29 {
		t.Fatalf("missing-output detected only %d of 30 times", detected)
	}
}
