package stats

import (
	"fmt"
	"math"
)

// NWAccum maintains the sufficient statistics of a set of observations
// under a Normal-Wishart prior — count, sum vector and sum of outer
// products — supporting O(d²) add/remove and cached posterior
// predictive evaluation. Collapsed Gibbs samplers use it to avoid
// recomputing the posterior from the full member list at every step.
//
// The posterior predictive Student-t is kept in factored form: the
// Cholesky factor of S'⁻¹ assembled directly from the statistics via
// one factorization plus a rank-one downdate, so PredictiveLogPdf never
// inverts a matrix and performs no allocation in steady state.
type NWAccum struct {
	prior *NormalWishart
	n     float64
	sum   []float64
	outer *Mat

	// base = S₀⁻¹ + β₀·μ₀μ₀ᵀ, a constant of the prior. With it the
	// posterior precision-scale obeys the rank-one identity
	//
	//	S'⁻¹ = base + Σxxᵀ − β'·μ'μ'ᵀ,
	//
	// which is what makes the factor cheap to rebuild from (n, sum,
	// outer) alone.
	base        *Mat
	priorLogZ   float64
	priorLogDet float64 // log|S₀|

	// The factored predictive, rebuilt lazily after a mutation. The
	// rebuild is deliberately a pure function of (prior, n, sum, outer)
	// — NOT maintained incrementally across Add/Remove — so a sampler
	// resumed from a snapshot of those statistics reconstructs the
	// exact bits an uninterrupted run would hold. An incrementally
	// updated factor would accumulate its own floating-point history
	// and break byte-identical crash/resume.
	predOK       bool
	predDof      float64
	predC        float64 // predictive scale = predC · (S'⁻¹)⁻¹
	predLogConst float64 // x-independent part of the Student-t log-pdf
	predLogDetM  float64 // log|S'⁻¹|
	predMean     []float64
	predL        *Mat // lower Cholesky factor of S'⁻¹

	m    *Mat // scratch: assembles base + Σxxᵀ
	diff []float64
	work []float64
}

// NewNWAccum returns an empty accumulator over the prior.
func NewNWAccum(prior *NormalWishart) *NWAccum {
	d := prior.Dim()
	base := prior.priorSInv().Clone()
	base.AddOuterScaled(prior.Beta, prior.Mu0, prior.Mu0)
	return &NWAccum{
		prior:     prior,
		sum:       make([]float64, d),
		outer:     NewMat(d, d),
		base:      base,
		priorLogZ: prior.logZ(),
		predMean:  make([]float64, d),
		predL:     NewMat(d, d),
		m:         NewMat(d, d),
		diff:      make([]float64, d),
		work:      make([]float64, d),
	}
}

// Add incorporates x.
func (a *NWAccum) Add(x []float64) {
	a.n++
	for i, v := range x {
		a.sum[i] += v
	}
	a.outer.AddOuterScaled(1, x, x)
	a.predOK = false
}

// Remove deletes a previously added x.
func (a *NWAccum) Remove(x []float64) {
	if a.n < 1 {
		panic("stats: NWAccum.Remove on empty accumulator")
	}
	a.n--
	for i, v := range x {
		a.sum[i] -= v
	}
	a.outer.AddOuterScaled(-1, x, x)
	a.predOK = false
}

// State exports the raw sufficient statistics (count, sum vector, sum
// of outer products) as copies, so a checkpoint can persist the exact
// floating-point state rather than re-deriving it from the member list
// in a different summation order.
func (a *NWAccum) State() (n float64, sum []float64, outer *Mat) {
	return a.n, CloneVec(a.sum), a.outer.Clone()
}

// SetState overwrites the accumulated statistics with previously
// exported ones. The prior is unchanged; dimensions must match it.
func (a *NWAccum) SetState(n float64, sum []float64, outer *Mat) error {
	d := a.prior.Dim()
	if n < 0 {
		return fmt.Errorf("stats: NWAccum state has negative count %g", n)
	}
	if len(sum) != d || outer == nil || outer.R != d || outer.C != d {
		return fmt.Errorf("stats: NWAccum state dims mismatch prior dim %d", d)
	}
	a.n = n
	a.sum = CloneVec(sum)
	a.outer = outer.Clone()
	a.predOK = false
	return nil
}

// ensurePred rebuilds the factored posterior predictive from the
// sufficient statistics: one Cholesky of base + Σxxᵀ followed by a
// rank-one downdate with √β'·μ' yields chol(S'⁻¹) with no matrix
// inverse at all. Falls back to an explicitly regularized
// factorization in the (rare) event the downdate loses positive
// definiteness to cancellation.
func (a *NWAccum) ensurePred() {
	if a.predOK {
		return
	}
	d := a.prior.Dim()
	fd := float64(d)
	betaC := a.prior.Beta + a.n
	nuC := a.prior.Nu + a.n
	dof := nuC - fd + 1 // > 0: prior validated ν > d−1
	for i := 0; i < d; i++ {
		a.predMean[i] = (a.prior.Beta*a.prior.Mu0[i] + a.sum[i]) / betaC
	}
	copy(a.m.Data, a.base.Data)
	a.m.AddInPlace(a.outer)
	err := CholeskyInto(a.predL, a.m)
	if err == nil {
		sb := math.Sqrt(betaC)
		for i := 0; i < d; i++ {
			a.diff[i] = sb * a.predMean[i]
		}
		err = Rank1Downdate(a.predL, a.diff, a.work)
	}
	if err != nil {
		a.m.AddOuterScaled(-betaC, a.predMean, a.predMean)
		c, cerr := NewCholesky(RegularizeSPD(a.m, 1e-12))
		if cerr != nil {
			// Panic with the error value so it keeps wrapping
			// ErrNotPositiveDefinite → ErrNumericalHealth; a supervised fit
			// recovers this into a typed degenerate-covariance health event.
			panic(fmt.Errorf("stats: NWAccum predictive scale not positive definite: %w", cerr))
		}
		copy(a.predL.Data, c.L.Data)
	}
	logDetM := 0.0
	for i := 0; i < d; i++ {
		logDetM += math.Log(a.predL.At(i, i))
	}
	logDetM *= 2
	a.predDof = dof
	a.predC = (betaC + 1) / (betaC * dof)
	a.predLogDetM = logDetM
	// The Student-t scale is predC·S'⁻¹, so log|Scale| = d·log(predC) + log|S'⁻¹|.
	logDetScale := fd*math.Log(a.predC) + logDetM
	a.predLogConst = LGamma((dof+fd)/2) - LGamma(dof/2) -
		0.5*(fd*math.Log(dof*math.Pi)+logDetScale)
	a.predOK = true
}

// LogMarginalLikelihood returns log p(accumulated data) with all
// parameters integrated out, matching
// NormalWishart.LogMarginalLikelihood. Evaluated from the factored
// predictive (log|S'| = −log|S'⁻¹|), so it allocates nothing in steady
// state.
func (a *NWAccum) LogMarginalLikelihood() float64 {
	a.ensurePred()
	d := a.prior.Dim()
	fd := float64(d)
	betaC := a.prior.Beta + a.n
	nuC := a.prior.Nu + a.n
	postLogZ := nuC*fd/2*math.Ln2 + MvLGamma(d, nuC/2) +
		nuC/2*(-a.predLogDetM) - fd/2*math.Log(betaC)
	return postLogZ - a.priorLogZ - a.n*fd/2*log2Pi
}

// PredictiveLogPdf evaluates the posterior predictive density at x —
// a Student-t with dof ν'−d+1, mean μ' and scale predC·S'⁻¹ — through
// the factor S'⁻¹ = L·Lᵀ: the quadratic form (x−μ')ᵀScale⁻¹(x−μ') is
// ‖L⁻¹(x−μ')‖²/predC, one forward substitution. Allocation-free; the
// factor is cached between mutations.
func (a *NWAccum) PredictiveLogPdf(x []float64) float64 {
	a.ensurePred()
	d := a.prior.Dim()
	if len(x) != d {
		panic("stats: dim mismatch in NWAccum.PredictiveLogPdf")
	}
	for i := 0; i < d; i++ {
		a.diff[i] = x[i] - a.predMean[i]
	}
	// Forward substitution L·y = diff, accumulating q = ‖y‖².
	y := a.work
	q := 0.0
	for i := 0; i < d; i++ {
		s := a.diff[i]
		for k := 0; k < i; k++ {
			s -= a.predL.At(i, k) * y[k]
		}
		y[i] = s / a.predL.At(i, i)
		q += y[i] * y[i]
	}
	q /= a.predC
	fd := float64(d)
	return a.predLogConst - (a.predDof+fd)/2*math.Log1p(q/a.predDof)
}
