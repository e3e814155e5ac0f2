package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/hashing"
)

// SumConfig parameterises the sum aggregation checker of Section 4:
// Iterations independent instances, each mapping keys into Buckets
// buckets with values accumulated modulo a random r drawn from
// (2^RHatLog, 2^(RHatLog+1)]. The paper writes configurations as
// "#its×d Hashfn m<log2 rhat>", e.g. "5×16 CRC m5".
type SumConfig struct {
	// Iterations is the number of independent checker instances run in
	// parallel (#its).
	Iterations int
	// Buckets is the condensed key-space size d (2 <= d << k).
	Buckets int
	// RHatLog is log2 of the modulus parameter rhat; the modulus r is
	// drawn uniformly from rhat+1 .. 2*rhat.
	RHatLog int
	// Family is the hash family mapping keys to buckets.
	Family hashing.Family
}

// Name renders the paper's configuration syntax, e.g. "4×8 Tab m7".
func (c SumConfig) Name() string {
	return fmt.Sprintf("%d×%d %s m%d", c.Iterations, c.Buckets, c.Family.Name, c.RHatLog)
}

// TableBits is the size of the minireduction result in bits:
// #its * d * ceil(log2(2*rhat)), the "Table size" column of Table 3. A
// sealed sum state carries its table in exactly these bits, rounded up
// to a 64-bit word.
func (c SumConfig) TableBits() int {
	return c.Iterations * c.Buckets * (c.RHatLog + 1)
}

// AchievedDelta is the failure probability bound (1/rhat + 1/d)^#its of
// Lemma 2 boosted over the iterations, the "Failure rate" column of
// Table 3.
func (c SumConfig) AchievedDelta() float64 {
	single := 1/math.Exp2(float64(c.RHatLog)) + 1/float64(c.Buckets)
	return math.Pow(single, float64(c.Iterations))
}

// Validate reports configuration errors.
func (c SumConfig) Validate() error {
	if c.Iterations < 1 {
		return fmt.Errorf("core: config %s: iterations must be >= 1", c.Name())
	}
	if c.Buckets < 2 {
		return fmt.Errorf("core: config %s: buckets must be >= 2", c.Name())
	}
	if c.RHatLog < 1 || c.RHatLog > 62 {
		return fmt.Errorf("core: config %s: rhat log must be in [1, 62]", c.Name())
	}
	if c.Family.New == nil {
		return fmt.Errorf("core: config: missing hash family")
	}
	if need := bits.Len(uint(c.Buckets - 1)); need > c.Family.Bits {
		return fmt.Errorf("core: config %s: a bucket index needs %d bits, family %s hashes to %d",
			c.Name(), need, c.Family.Name, c.Family.Bits)
	}
	return nil
}

// AccuracyConfigs is the first configuration set of Table 3, used for
// the paper's detection-accuracy experiments (Fig. 3). Each shape is
// instantiated with the listed hash families.
func AccuracyConfigs() []SumConfig {
	type shape struct {
		its, d, m int
		families  []hashing.Family
	}
	both := []hashing.Family{hashing.FamilyCRC, hashing.FamilyTab}
	shapes := []shape{
		{1, 2, 31, both},
		{1, 4, 31, both},
		{4, 2, 4, both},
		{4, 4, 3, both},
		{4, 4, 5, both},
		{4, 8, 3, both},
		{4, 8, 5, both},
		{4, 8, 7, both},
	}
	var out []SumConfig
	for _, s := range shapes {
		for _, f := range s.families {
			out = append(out, SumConfig{Iterations: s.its, Buckets: s.d, RHatLog: s.m, Family: f})
		}
	}
	return out
}

// ScalingConfigs is the second configuration set of Table 3, used for
// the weak-scaling experiment (Fig. 4) and the overhead measurements
// (Table 5).
func ScalingConfigs() []SumConfig {
	crc, tab64 := hashing.FamilyCRC, hashing.FamilyTab64
	return []SumConfig{
		{Iterations: 5, Buckets: 16, RHatLog: 5, Family: crc},
		{Iterations: 6, Buckets: 32, RHatLog: 9, Family: crc},
		{Iterations: 8, Buckets: 16, RHatLog: 15, Family: crc},
		{Iterations: 4, Buckets: 256, RHatLog: 15, Family: crc},
		{Iterations: 5, Buckets: 128, RHatLog: 11, Family: tab64},
		{Iterations: 8, Buckets: 256, RHatLog: 15, Family: tab64},
		{Iterations: 16, Buckets: 16, RHatLog: 15, Family: tab64},
	}
}

// PermAccuracyConfigs is the configuration set of the permutation
// checker's detection-accuracy experiment (Fig. 5, Appendix A): CRC-32C
// and tabulation hashing, one iteration, truncated to each hash width
// of the figure's x-axis.
func PermAccuracyConfigs() []PermConfig {
	var out []PermConfig
	for _, fam := range []hashing.Family{hashing.FamilyCRC, hashing.FamilyTab} {
		for _, logH := range []int{1, 2, 3, 4, 6, 8, 12} {
			out = append(out, PermConfig{Family: fam, LogH: logH, Iterations: 1})
		}
	}
	return out
}
