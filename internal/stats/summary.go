package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return SumVec(v) / float64(len(v))
}

// Variance returns the unbiased sample variance (0 for fewer than two
// elements).
func Variance(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	m := Mean(v)
	s := 0.0
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// MeanVec returns the elementwise mean of equal-length vectors.
func MeanVec(xs [][]float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	out := make([]float64, len(xs[0]))
	for _, x := range xs {
		for i, v := range x {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(xs))
	}
	return out
}

// PearsonCorr returns the Pearson correlation between x and y.
func PearsonCorr(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// SpearmanCorr returns the Spearman rank correlation between x and y.
func SpearmanCorr(x, y []float64) float64 {
	return PearsonCorr(Ranks(x), Ranks(y))
}

// Ranks returns average ranks (1-based) of v, averaging ties.
func Ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	ranks := make([]float64, n)
	i := 0
	for i < n {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
