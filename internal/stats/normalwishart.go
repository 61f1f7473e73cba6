package stats

import (
	"fmt"
	"math"
	"sync"
)

// NormalWishart is the conjugate prior NW(μ₀, β, ν, S) over the mean and
// precision (μ, Λ) of a multivariate Gaussian:
//
//	Λ ~ Wishart(ν, S)          (E[Λ] = ν·S)
//	μ | Λ ~ N(μ₀, (β·Λ)⁻¹)
//
// This matches the paper's hyperparameterization (μ₀, βᵍ, νᵍ, Sᵍ) for
// the gel components and (m₀, βᵉ, νᵉ, Sᵉ) for the emulsion components.
type NormalWishart struct {
	Mu0  []float64
	Beta float64
	Nu   float64
	S    *Mat // scale matrix of the Wishart

	// sInvOnce/sInvCache memoize Inverse(RegularizeSPD(S, 1e-12)), a
	// constant the posterior update needs on every call. S must not be
	// mutated after the first posterior/predictive evaluation.
	sInvOnce  sync.Once
	sInvCache *Mat
}

// NewNormalWishart validates and constructs a Normal-Wishart prior.
func NewNormalWishart(mu0 []float64, beta, nu float64, s *Mat) (*NormalWishart, error) {
	d := len(mu0)
	if s.R != d || s.C != d {
		return nil, fmt.Errorf("stats: NW scale is %d×%d but mean has dim %d", s.R, s.C, d)
	}
	if beta <= 0 {
		return nil, fmt.Errorf("stats: NW needs β > 0, got %g", beta)
	}
	if nu <= float64(d-1) {
		return nil, fmt.Errorf("stats: NW needs ν > dim−1 = %d, got %g", d-1, nu)
	}
	if _, err := NewCholesky(s); err != nil {
		return nil, fmt.Errorf("stats: NW scale matrix: %w", err)
	}
	return &NormalWishart{Mu0: CloneVec(mu0), Beta: beta, Nu: nu, S: s.Clone()}, nil
}

// Dim returns the dimensionality.
func (nw *NormalWishart) Dim() int { return len(nw.Mu0) }

// priorSInv returns the memoized S⁻¹ (regularized exactly as the
// original per-call computation was, so values are bit-identical).
// Callers must treat the result as read-only.
func (nw *NormalWishart) priorSInv() *Mat {
	nw.sInvOnce.Do(func() {
		inv, err := Inverse(RegularizeSPD(nw.S, 1e-12))
		if err != nil {
			panic(err) // prior validated at construction
		}
		nw.sInvCache = inv
	})
	return nw.sInvCache
}

// PosteriorScratch holds the reusable intermediates of a posterior
// update — sample mean, centered vector, scatter matrix and the
// assembled S'⁻¹ — so a Gibbs sweep that recomputes K posteriors per
// iteration stops allocating them. Obtain one per goroutine via
// NewPosteriorScratch; a scratch must not be shared concurrently.
type PosteriorScratch struct {
	mean, diff []float64
	scatter    *Mat
	sInv       *Mat
}

// NewPosteriorScratch returns scratch sized for this prior's dimension.
func (nw *NormalWishart) NewPosteriorScratch() *PosteriorScratch {
	d := nw.Dim()
	return &PosteriorScratch{
		mean:    make([]float64, d),
		diff:    make([]float64, d),
		scatter: NewMat(d, d),
		sInv:    NewMat(d, d),
	}
}

// Posterior returns the Normal-Wishart posterior given observations xs.
// With n observations, sample mean x̄ and scatter Σᵢ(xᵢ−x̄)(xᵢ−x̄)ᵀ:
//
//	β' = β + n,   ν' = ν + n,   μ' = (β·μ₀ + n·x̄)/(β+n)
//	S'⁻¹ = S⁻¹ + scatter + (β·n/(β+n))·(x̄−μ₀)(x̄−μ₀)ᵀ
//
// These are the update formulas the paper states under equation (4).
func (nw *NormalWishart) Posterior(xs [][]float64) *NormalWishart {
	return nw.PosteriorWith(xs, nw.NewPosteriorScratch())
}

// PosteriorWith is Posterior using caller-provided scratch for all
// intermediates, allocating only the returned posterior itself. The
// arithmetic (operation order, centering, rank-one terms) is unchanged,
// so results are bit-identical to Posterior.
func (nw *NormalWishart) PosteriorWith(xs [][]float64, scr *PosteriorScratch) *NormalWishart {
	d := nw.Dim()
	n := len(xs)
	if n == 0 {
		return &NormalWishart{Mu0: CloneVec(nw.Mu0), Beta: nw.Beta, Nu: nw.Nu, S: nw.S.Clone()}
	}
	mean := scr.mean[:d]
	for i := range mean {
		mean[i] = 0
	}
	for _, x := range xs {
		if len(x) != d {
			panic("stats: dim mismatch in NormalWishart.Posterior")
		}
		for i, v := range x {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(n)
	}
	scatter := scr.scatter
	for i := range scatter.Data {
		scatter.Data[i] = 0
	}
	diff := scr.diff[:d]
	for _, x := range xs {
		for i := range diff {
			diff[i] = x[i] - mean[i]
		}
		scatter.AddOuterScaled(1, diff, diff)
	}
	fn := float64(n)
	betaC := nw.Beta + fn
	nuC := nw.Nu + fn
	muC := make([]float64, d)
	for i := range muC {
		muC[i] = (nw.Beta*nw.Mu0[i] + fn*mean[i]) / betaC
	}
	sInv := scr.sInv
	copy(sInv.Data, nw.priorSInv().Data)
	for i := range diff {
		diff[i] = mean[i] - nw.Mu0[i]
	}
	sInv.AddInPlace(scatter)
	sInv.AddOuterScaled(nw.Beta*fn/betaC, diff, diff)
	sC, err := Inverse(RegularizeSPD(sInv, 1e-12))
	if err != nil {
		panic(err)
	}
	return &NormalWishart{Mu0: muC, Beta: betaC, Nu: nuC, S: sC}
}

// Sample draws (μ, Λ) from the Normal-Wishart.
func (nw *NormalWishart) Sample(r *RNG) (mu []float64, lambda *Mat) {
	lambda = r.Wishart(nw.Nu, nw.S)
	lambda = RegularizeSPD(lambda, 1e-10)
	cov := MustCholesky(lambda.Scale(nw.Beta)).Inverse()
	mu = r.MVNormal(nw.Mu0, cov)
	return mu, lambda
}

// MeanParams returns the posterior-mean parameters: E[μ] = μ₀ and
// E[Λ] = ν·S.
func (nw *NormalWishart) MeanParams() (mu []float64, lambda *Mat) {
	return CloneVec(nw.Mu0), nw.S.Scale(nw.Nu)
}

// LogMarginalLikelihood returns log p(xs) under the Normal-Wishart
// model with all parameters integrated out:
//
//	log Z(posterior) − log Z(prior) − (n·d/2)·log(2π)
//
// where log Z(β,ν,S) = (ν·d/2)·log 2 + log Γ_d(ν/2) + (ν/2)·log|S| − (d/2)·log β.
func (nw *NormalWishart) LogMarginalLikelihood(xs [][]float64) float64 {
	post := nw.Posterior(xs)
	d := nw.Dim()
	n := float64(len(xs))
	return post.logZ() - nw.logZ() - n*float64(d)/2*log2Pi
}

func (nw *NormalWishart) logZ() float64 {
	d := float64(nw.Dim())
	ld, err := LogDetSPD(nw.S)
	if err != nil {
		ld, _ = LogDetSPD(RegularizeSPD(nw.S, 1e-12))
	}
	return nw.Nu*d/2*math.Ln2 + MvLGamma(nw.Dim(), nw.Nu/2) +
		nw.Nu/2*ld - d/2*math.Log(nw.Beta)
}
