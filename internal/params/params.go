// Package params performs the numerical parameter optimisation of
// Section 4: given an effective minimum message size b (bits) and a
// target failure probability delta, find the bucket count d and modulus
// parameter rhat that minimise the number of checker iterations subject
// to the result fitting in b bits:
//
//	d * ceil(log2(2*rhat)) * #its <= b,
//	(1/rhat + 1/d)^#its <= delta.
//
// This regenerates Table 2 of the paper. Ties on the iteration count are
// broken by the best achieved failure probability.
//
// The runtime picks its default sum checker with core.ChooseSum, the
// same search under other objectives. Table 2 fixes the message size b
// and minimises iterations, because each iteration was a pass over the
// data when the paper was written. The accumulate kernel evaluates one
// hash for many iterations and updates one cell for several of them
// (core's groupSize), so its cost is updates and hash evaluations per
// element, not iterations. ChooseSum fixes delta instead and minimises
// those, then wire words, then iterations, over power-of-two d up to
// the kernel's L1 budget. At delta = 1e-9 it picks 15×4 CRC m10: 660
// bits, three updates and one hash per element. ChooseSum lives in core
// because the kernel's plan constants and SumConfig live there.
package params

import (
	"fmt"
	"math"
)

// Optimum is one row of Table 2.
type Optimum struct {
	B          int     // message size in bits
	Delta      float64 // target failure probability
	D          int     // bucket count
	RHatLog    int     // log2 of the modulus parameter rhat
	Iterations int     // #its
	Achieved   float64 // achieved failure probability
}

// SizeBits is the minireduction result size d*(RHatLog+1)*its.
func (o Optimum) SizeBits() int { return o.D * (o.RHatLog + 1) * o.Iterations }

// iterationsFor returns the minimum iteration count so that
// (1/2^m + 1/d)^its <= delta, or 0 if impossible (single >= 1).
func iterationsFor(d, m int, delta float64) int {
	single := 1/math.Exp2(float64(m)) + 1/float64(d)
	if single >= 1 {
		return 0
	}
	its := int(math.Ceil(math.Log(delta) / math.Log(single)))
	if its < 1 {
		its = 1
	}
	// Guard against floating point edge cases at the boundary.
	for math.Pow(single, float64(its)) > delta {
		its++
	}
	return its
}

// Optimize finds the best configuration for message size b (bits) and
// failure probability delta.
func Optimize(b int, delta float64) (Optimum, error) {
	if b < 8 {
		return Optimum{}, fmt.Errorf("params: message size %d too small", b)
	}
	if delta <= 0 || delta >= 1 {
		return Optimum{}, fmt.Errorf("params: delta must be in (0, 1), got %g", delta)
	}
	best := Optimum{Iterations: math.MaxInt}
	found := false
	maxM := 40
	for m := 1; m <= maxM; m++ {
		// Largest d that could fit even a single iteration.
		maxD := b / (m + 1)
		for d := 2; d <= maxD; d++ {
			its := iterationsFor(d, m, delta)
			if its == 0 {
				continue
			}
			if d*(m+1)*its > b {
				continue
			}
			single := 1/math.Exp2(float64(m)) + 1/float64(d)
			achieved := math.Pow(single, float64(its))
			if its < best.Iterations || (its == best.Iterations && achieved < best.Achieved) {
				best = Optimum{B: b, Delta: delta, D: d, RHatLog: m, Iterations: its, Achieved: achieved}
				found = true
			}
		}
	}
	if !found {
		return Optimum{}, fmt.Errorf("params: no configuration fits %d bits at delta %g", b, delta)
	}
	return best, nil
}

// Table2Cases lists the (b, delta) pairs of the paper's Table 2, in
// order.
func Table2Cases() []struct {
	B     int
	Delta float64
} {
	return []struct {
		B     int
		Delta float64
	}{
		{1024, 1e-4}, {1024, 1e-6}, {1024, 1e-8}, {1024, 1e-10}, {1024, 1e-20},
		{4096, 1e-6}, {4096, 1e-10}, {4096, 1e-20},
		{16384, 1e-7}, {16384, 1e-10}, {16384, 1e-20}, {16384, 1e-30},
		{65536, 1e-10}, {65536, 1e-20}, {65536, 1e-30}, {65536, 1e-40},
	}
}

// Table2 computes every row of Table 2.
func Table2() ([]Optimum, error) {
	cases := Table2Cases()
	out := make([]Optimum, 0, len(cases))
	for _, c := range cases {
		o, err := Optimize(c.B, c.Delta)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// MinVolume reports the communication-volume minimiser the paper
// derives analytically: d = 2 buckets, rhat = 8 (moduli in 9..16), an
// 8-bit minireduction result with log base 1/(1/8+1/2) = 1.6
// repetitions per factor of delta.
func MinVolume(delta float64) Optimum {
	its := iterationsFor(2, 3, delta)
	single := 1.0/8 + 1.0/2
	return Optimum{
		B:          8,
		Delta:      delta,
		D:          2,
		RHatLog:    3,
		Iterations: its,
		Achieved:   math.Pow(single, float64(its)),
	}
}
