package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile of v by linear interpolation between
// order statistics at position p*(n+1), the rule of Python's
// statistics.quantiles (the rule the acceptance spread is computed with).
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// spread is the distance between the first and third quartile as a share
// of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / math.Abs(m)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// medianOf runs fn reps times and returns the median wall seconds.
func medianOf(reps int, fn func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = time.Since(t0).Seconds()
	}
	return median(d)
}
