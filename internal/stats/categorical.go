package stats

import (
	"math"
	"sort"
)

// NormalizeSmoothed adds eps to every weight before normalizing,
// allowing all-zero or partially-zero vectors to become proper
// distributions (used when comparing sparse concentration vectors with
// categorical KL).
func NormalizeSmoothed(w []float64, eps float64) []float64 {
	out := make([]float64, len(w))
	s := 0.0
	for i, x := range w {
		out[i] = x + eps
		s += out[i]
	}
	for i := range out {
		out[i] /= s
	}
	return out
}

// KLCategorical returns KL(p‖q) = Σ p_i log(p_i/q_i) for probability
// vectors. Terms with p_i = 0 contribute zero; q_i = 0 with p_i > 0
// yields +Inf.
func KLCategorical(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("stats: dim mismatch in KLCategorical")
	}
	kl := 0.0
	for i := range p {
		if p[i] == 0 {
			continue
		}
		if q[i] == 0 {
			return math.Inf(1)
		}
		kl += p[i] * math.Log(p[i]/q[i])
	}
	return kl
}

// ArgMax returns the index of the largest element (first on ties).
func ArgMax(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// TopK returns the indices of the k largest elements in decreasing
// order of value (stable on ties by index).
func TopK(v []float64, k int) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
