package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a reported percentile must have at
// least this many samples above it, or it is noise from a handful of
// outliers rather than a measurement of the tail.
const minBeyond = 10

// dist is a sorted sample of one quantity.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// durDist converts durations to milliseconds and sorts them.
func durDist(ds []time.Duration) dist {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return newDist(xs)
}

// quantile returns the nearest-rank q-quantile and whether at least
// minBeyond samples lie above its rank.
func (d dist) quantile(q float64) (v float64, ok bool) {
	n := len(d)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return d[rank-1], n-rank >= minBeyond
}

// minSamples is the smallest sample that lets quantile q pass the rule.
func minSamples(q float64) int {
	for n := minBeyond; ; n++ {
		rank := int(math.Ceil(q * float64(n)))
		if n-rank >= minBeyond {
			return n
		}
	}
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	var s float64
	for _, x := range d {
		s += x
	}
	return s / float64(len(d))
}

// median of an unsorted sample; the mean of the middle two when even.
func median(xs []float64) float64 {
	d := newDist(xs)
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// frac is a/b, 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
