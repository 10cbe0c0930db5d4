package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; +Inf entries (failed jobs)
// sort last.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates for a timing's reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest candidate percentile that has at least ten
// samples beyond it, and its value. Below 20 samples that is the median.
func tail(xs []float64) (pct, v float64) {
	for _, p := range tailPercentiles {
		if float64(len(xs))*(1-p/100) >= 10 {
			return p, quantile(xs, p/100)
		}
	}
	return 50, median(xs)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
