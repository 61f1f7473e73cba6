package stats

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random source shared by all stochastic code in
// the repository. It wraps math/rand/v2's PCG so that every experiment
// is reproducible from a seed pair.
type RNG struct {
	src *rand.Rand
	pcg *rand.PCG
}

// NewRNG returns an RNG seeded with (seed, stream).
func NewRNG(seed, stream uint64) *RNG {
	pcg := rand.NewPCG(seed, stream)
	return &RNG{src: rand.New(pcg), pcg: pcg}
}

// MarshalState captures the generator's exact stream position. The
// wrapped rand.Rand keeps no state of its own (every draw derives from
// the source), so restoring these bytes via UnmarshalState resumes the
// stream bit-for-bit — the property crash-safe sampler checkpoints
// depend on.
func (r *RNG) MarshalState() ([]byte, error) {
	return r.pcg.MarshalBinary()
}

// UnmarshalState restores a stream position captured by MarshalState.
func (r *RNG) UnmarshalState(b []byte) error {
	return r.pcg.UnmarshalBinary(b)
}

// Reseed resets the generator to the exact state NewRNG(seed, stream)
// would produce. The rand.Rand wrapper keeps no state of its own (the
// same property MarshalState relies on), so a pooled RNG reseeded per
// request yields the identical draw sequence to a freshly constructed
// one — without the allocation.
func (r *RNG) Reseed(seed, stream uint64) {
	r.pcg.Seed(seed, stream)
}

// Float64 returns a uniform sample in [0,1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform integer in [0,n).
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Perm returns a random permutation of [0,n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle shuffles n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Normal returns a sample from N(mu, sigma²).
func (r *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*r.src.NormFloat64()
}

// StdNormal returns a sample from N(0,1).
func (r *RNG) StdNormal() float64 { return r.src.NormFloat64() }

// Gamma returns a sample from Gamma(shape, scale) with mean shape·scale,
// using Marsaglia–Tsang for shape ≥ 1 and the boost trick for shape < 1.
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("stats: Gamma needs positive shape and scale")
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) · U^{1/a}
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.StdNormal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// ChiSquared returns a sample from χ²(df).
func (r *RNG) ChiSquared(df float64) float64 {
	return r.Gamma(df/2, 2)
}

// Categorical samples an index proportionally to the non-negative
// weights w. The weights need not be normalized. Panics if all weights
// are zero or any is negative/NaN.
func (r *RNG) Categorical(w []float64) int {
	total := 0.0
	for _, x := range w {
		if x < 0 || math.IsNaN(x) {
			panic("stats: Categorical weight negative or NaN")
		}
		total += x
	}
	if total <= 0 {
		panic("stats: Categorical weights sum to zero")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, x := range w {
		acc += x
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}

// CategoricalFast is Categorical without the validation pass, for hot
// loops whose weights are non-negative and finite by construction
// (counts times probabilities, exponentials). The total is summed in
// the same index order and the inversion scan is unchanged, so for
// valid weights the draw is bit-identical to Categorical — it consumes
// one uniform and selects the same index. Invalid weights (negative,
// NaN) silently skew the draw instead of panicking; callers own that
// invariant.
func (r *RNG) CategoricalFast(w []float64) int {
	total := 0.0
	for _, x := range w {
		total += x
	}
	u := r.Float64() * total
	acc := 0.0
	for i, x := range w {
		acc += x
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}

// CategoricalLog samples an index from unnormalized log-weights using
// the log-sum-exp trick; robust when densities underflow.
func (r *RNG) CategoricalLog(logw []float64) int {
	return r.CategoricalLogScratch(logw, make([]float64, len(logw)))
}

// CategoricalLogFused is CategoricalLogScratch with the
// exponentiation, total and inversion fused into two passes instead of
// four. The max scan, the per-index exp(x−m) values, the summation
// order of the total and the cumulative inversion are all unchanged,
// so the draw is bit-identical to CategoricalLogScratch (and therefore
// CategoricalLog) — it only skips the redundant re-walks and the
// validation branches, which the exponential makes impossible to
// trigger. Panics if every weight is −Inf. logw and scratch may not
// alias.
func (r *RNG) CategoricalLogFused(logw, scratch []float64) int {
	m := math.Inf(-1)
	for _, x := range logw {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		panic("stats: CategoricalLog all weights -Inf")
	}
	w := scratch[:len(logw)]
	total := 0.0
	for i, x := range logw {
		e := math.Exp(x - m)
		w[i] = e
		total += e
	}
	u := r.Float64() * total
	acc := 0.0
	for i, x := range w {
		acc += x
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}

// CategoricalLogScratch is CategoricalLog with a caller-provided
// scratch buffer (length ≥ len(logw)) for the exponentiated weights,
// eliminating the per-draw allocation on sampler hot loops. The draw is
// bit-identical to CategoricalLog. logw and scratch may not alias.
func (r *RNG) CategoricalLogScratch(logw, scratch []float64) int {
	m := math.Inf(-1)
	for _, x := range logw {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		panic("stats: CategoricalLog all weights -Inf")
	}
	w := scratch[:len(logw)]
	for i, x := range logw {
		w[i] = math.Exp(x - m)
	}
	return r.Categorical(w)
}

// MVNormalChol samples from N(mu, Σ) where chol is the Cholesky factor
// of the covariance Σ = L·Lᵀ.
func (r *RNG) MVNormalChol(mu []float64, chol *Cholesky) []float64 {
	n := len(mu)
	z := make([]float64, n)
	for i := range z {
		z[i] = r.StdNormal()
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s := mu[i]
		for k := 0; k <= i; k++ {
			s += chol.L.At(i, k) * z[k]
		}
		out[i] = s
	}
	return out
}

// MVNormalCholInto is MVNormalChol writing the sample into out using z
// (length ≥ dim) as the standard-normal scratch. The normals are drawn
// in the same order and the lower-triangular accumulation keeps its
// left-associative sum, so the draw is bit-identical to MVNormalChol
// from the same generator state.
func (r *RNG) MVNormalCholInto(out, mu []float64, chol *Cholesky, z []float64) {
	n := len(mu)
	if len(out) < n || len(z) < n {
		panic("stats: dim mismatch in MVNormalCholInto")
	}
	z = z[:n]
	for i := range z {
		z[i] = r.StdNormal()
	}
	for i := 0; i < n; i++ {
		s := mu[i]
		for k := 0; k <= i; k++ {
			s += chol.L.At(i, k) * z[k]
		}
		out[i] = s
	}
}

// MVNormal samples from N(mu, cov); cov must be positive definite.
func (r *RNG) MVNormal(mu []float64, cov *Mat) []float64 {
	return r.MVNormalChol(mu, MustCholesky(RegularizeSPD(cov, 1e-12)))
}

// Wishart samples from W(df, scale) via the Bartlett decomposition.
// df must exceed dim−1; scale must be positive definite. The returned
// matrix has expectation df·scale.
func (r *RNG) Wishart(df float64, scale *Mat) *Mat {
	scale.assertSquare()
	n := scale.R
	if df <= float64(n-1) {
		panic("stats: Wishart needs df > dim-1")
	}
	lc := MustCholesky(RegularizeSPD(scale, 1e-12))
	// Bartlett factor A: lower triangular, A_ii ~ sqrt(χ²(df-i)),
	// A_ij ~ N(0,1) for i > j.
	a := NewMat(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, math.Sqrt(r.ChiSquared(df-float64(i))))
		for j := 0; j < i; j++ {
			a.Set(i, j, r.StdNormal())
		}
	}
	la := lc.L.Mul(a)
	w := la.Mul(la.T())
	w.Symmetrize()
	return w
}
