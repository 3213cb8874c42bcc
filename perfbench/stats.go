package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of sorted by linear
// interpolation between closest ranks — the "inclusive" method of
// Python's statistics.quantiles and numpy's default.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return math.NaN()
	case n == 1:
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// tailLevels are the percentiles a timing's tail is reported at, highest
// first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// tailLevel returns the highest level of tailLevels that leaves at least
// ten of n samples strictly above its rank, and false when none does.
// This is the reporting rule for every timing: a tail percentile is only
// quoted when enough samples lie beyond it to make it more than one
// outlier.
func tailLevel(n int) (float64, bool) {
	for _, p := range tailLevels {
		if n-int(math.Ceil(p*float64(n))) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// Dist summarises one timing: sample count, median, and the tail
// percentile chosen by tailLevel (TailLevel 0 when n is too small).
type Dist struct {
	N         int     `json:"n"`
	P50       float64 `json:"p50"`
	TailLevel float64 `json:"tail_level,omitempty"`
	Tail      float64 `json:"tail,omitempty"`
	Unit      string  `json:"unit"`
}

// summarize sorts a copy of xs and reports it under the tail rule.
func summarize(xs []float64, unit string) Dist {
	s := sortedCopy(xs)
	d := Dist{N: len(s), P50: quantile(s, 0.5), Unit: unit}
	if p, ok := tailLevel(len(s)); ok {
		d.TailLevel, d.Tail = p, quantile(s, p)
	}
	return d
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// pct returns the p-quantile of xs (unsorted).
func pct(xs []float64, p float64) float64 { return quantile(sortedCopy(xs), p) }

func median(xs []float64) float64 { return pct(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
