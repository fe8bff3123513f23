package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q in [0,1]); 0 for an empty sample. internal/stats
// picks the nearest rank instead, which for the two- and three-run samples
// here would not be the median the acceptance driver computes.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the run-to-run spread the full command prints: (max-min)
// over the median. A sample whose median is 0 has spread 0.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(med)
}

// iqrSpread is the spread the acceptance driver computes over ten runs:
// the distance between the first and third quartile (the exclusive
// method of Python's statistics.quantiles(n=4)) over the median.
func iqrSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th quartile cut point, exclusive method
		pos := float64(i*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}

// tailPercentile returns the highest of p99, p95, p90 that has at least
// ten samples beyond it, with its value; ("", 0) when even p90 does not.
func tailPercentile(xs []float64) (string, float64) {
	for _, p := range []struct {
		name string
		pct  int
	}{{"p99", 99}, {"p95", 95}, {"p90", 90}} {
		if len(xs)*(100-p.pct) >= 10*100 {
			return p.name, quantile(xs, float64(p.pct)/100)
		}
	}
	return "", 0
}
