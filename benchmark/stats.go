package main

import (
	"math"
	"slices"
)

// summary is what every sampled metric reports: the median, the
// quartiles, the 10th and 90th percentiles and how many samples they
// rest on.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	P10    float64 `json:"p10"`
	P90    float64 `json:"p90"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// quantile returns the q-quantile of sorted by linear interpolation
// between the two nearest ranks; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return summary{
		N:      len(s),
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		P10:    quantile(s, 0.1),
		P90:    quantile(s, 0.9),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

func median(samples []float64) float64 { return summarize(samples).Median }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var t float64
	for _, x := range samples {
		t += x
	}
	return t / float64(len(samples))
}

// ratio is a/b, 0 when b is 0 — layer metrics of a layer a workload
// never enters divide nothing by nothing.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nsToMs converts a slice of nanosecond samples to milliseconds.
func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
