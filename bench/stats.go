package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted xs by the exclusive method
// Python's statistics.quantiles uses (position q·(n+1), clamped), so the
// spreads -compare prints are the ones the acceptance rule computes.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// summary is a median with its quartiles and sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func median(xs []float64) float64 { return summarize(xs).Median }

// tailRank returns the highest percentile rank, at most want, that
// leaves at least ten samples beyond it in n samples (0 when n is too
// small for any tail statement).
func tailRank(n int, want float64) float64 {
	if n < 20 {
		return 0
	}
	return math.Min(want, 1-10/float64(n))
}

// rankOf returns the sample at percentile rank p of sorted nanosecond
// samples (nearest rank).
func rankOf(sorted []int64, p float64) int64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
