package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortedMS returns the durations as ascending milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of an ascending
// sample by linear interpolation between closest ranks; 0 for an empty
// sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

// tailCandidates are the tail percentiles the report may quote, lowest
// first.
var tailCandidates = []float64{90, 95, 99, 99.9}

// highestPercentile returns the highest candidate percentile that still
// leaves at least ten of n samples beyond it, and false when even the
// lowest candidate does not: a tail quoted from fewer than ten samples
// is one slow request, not a distribution.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact
			best, ok = p, true
		}
	}
	return best, ok
}

// median returns the 50th percentile of an unsorted sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does —
// the rule the driver judges run-to-run spread by. It needs at least
// two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure a metric's bound is compared against.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
