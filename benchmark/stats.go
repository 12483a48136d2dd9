package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of raw samples by linear
// interpolation between closest ranks, the same rule Python's
// statistics.quantiles(method="inclusive") applies. It sorts a copy.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail is the p-th percentile where at least ten samples lie beyond it, and
// otherwise the highest percentile that has ten beyond it (never below the
// median): a p99 of 65 passes would be the second-slowest pass, which one
// hiccup moves.
func tail(samples []float64, p float64) float64 {
	if n := float64(len(samples)); n > 0 {
		p = max(50, min(p, 100*(1-10/n)))
	}
	return percentile(samples, p)
}

func median(samples []float64) float64 { return percentile(samples, 50) }

func maxOf(samples []float64) float64 {
	m := 0.0
	for _, v := range samples {
		m = math.Max(m, v)
	}
	return m
}

func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}

// ratio is a/b, and 0 when there is no base to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) returns (its default, exclusive method),
// the rule the repository's benchmark contract measures spread with. It needs
// at least two values.
func quartiles(values []float64) (q [3]float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	for i := 1; i <= 3; i++ {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the interquartile distance as a share of the median; 0 for fewer
// than two values.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q := quartiles(values)
	return ratio(q[2]-q[0], math.Abs(q[1]))
}
