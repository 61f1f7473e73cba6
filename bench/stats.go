package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p ≤ 1) of xs by the
// nearest-rank rule: the smallest sample with at least p·n samples at
// or below it. xs is sorted in place. An empty sample gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// median is the middle of xs, averaging the two middle samples of an
// even-sized sample. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tailSupported reports whether the p-quantile of n samples has at
// least ten samples beyond it, the least a tail percentile is reported
// on.
func tailSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

// quartiles returns the first quartile, median and third quartile of
// xs the way Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method), so spreads printed here match the ones
// a Python checker computes from the same values. It needs two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q[0], q[1], q[2]
}
