package main

import (
	"math"
	"sort"
)

// median is the middle value, or the mean of the two middle values.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midMean is the interquartile mean: the mean of the values left when the
// lowest and the highest quarter are dropped. Like the median it ignores
// a few outliers, but it averages the middle half, so a metric whose
// values scatter over a range (a latency quantile, a heap peak that
// depends on where collections land) moves less from run to run.
func midMean(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	k := len(s) / 4
	s = s[k : len(s)-k]
	if len(s) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}
