package stats

import "fmt"

const log2Pi = 1.8378770664093453 // log(2π)

// Gaussian is a multivariate normal distribution parameterized by its
// mean and *precision* matrix Λ (inverse covariance), matching the
// parameterization of the paper's Normal-Wishart components.
type Gaussian struct {
	Mean      []float64
	Precision *Mat

	chol   *Cholesky // factor of the precision
	logDet float64   // log|Λ|
}

// NewGaussian builds a Gaussian from a mean and a positive definite
// precision matrix.
func NewGaussian(mean []float64, precision *Mat) (*Gaussian, error) {
	if precision.R != len(mean) || precision.C != len(mean) {
		return nil, fmt.Errorf("stats: precision is %d×%d but mean has dim %d", precision.R, precision.C, len(mean))
	}
	c, err := NewCholesky(precision)
	if err != nil {
		return nil, fmt.Errorf("stats: precision matrix: %w", err)
	}
	return &Gaussian{Mean: CloneVec(mean), Precision: precision.Clone(), chol: c, logDet: c.LogDet()}, nil
}

// SetParams refills g in place from a mean and positive definite
// precision matrix, reusing the existing mean/precision/factor storage
// when the dimension matches (allocating it on first use). The factor
// and log-determinant come from the same recurrences NewGaussian runs,
// so a reused Gaussian is bit-identical to a freshly constructed one.
// Not safe concurrently with readers of g.
func (g *Gaussian) SetParams(mean []float64, precision *Mat) error {
	d := len(mean)
	if precision.R != d || precision.C != d {
		return fmt.Errorf("stats: precision is %d×%d but mean has dim %d", precision.R, precision.C, d)
	}
	if g.chol == nil || len(g.Mean) != d {
		g.Mean = make([]float64, d)
		g.Precision = NewMat(d, d)
		g.chol = &Cholesky{L: NewMat(d, d)}
	}
	if err := CholeskyInto(g.chol.L, precision); err != nil {
		return fmt.Errorf("stats: precision matrix: %w", err)
	}
	copy(g.Mean, mean)
	copy(g.Precision.Data, precision.Data)
	g.logDet = g.chol.LogDet()
	return nil
}

// Dim returns the dimensionality.
func (g *Gaussian) Dim() int { return len(g.Mean) }

// Cov returns the covariance matrix Λ⁻¹.
func (g *Gaussian) Cov() *Mat { return g.chol.Inverse() }

// LogPdf returns the log density at x. It is allocation-free and safe
// for concurrent use — it sits on the Gibbs sampler's innermost loop.
func (g *Gaussian) LogPdf(x []float64) float64 {
	if len(x) != len(g.Mean) {
		panic("stats: dim mismatch in Gaussian.LogPdf")
	}
	return 0.5*(g.logDet-float64(g.Dim())*log2Pi) - 0.5*g.quadForm(x)
}

// LogPdfScratch is LogPdf with a caller-provided scratch buffer (length
// ≥ Dim) holding the centered vector, so the subtraction x−μ happens
// once instead of once per matrix row. It returns bit-identical values
// to LogPdf — the products and summation order are unchanged — and sits
// on the sampler's innermost loop where the d× redundant subtractions
// of the plain path are measurable.
func (g *Gaussian) LogPdfScratch(x, scratch []float64) float64 {
	d := len(g.Mean)
	if len(x) != d || len(scratch) < d {
		panic("stats: dim mismatch in Gaussian.LogPdfScratch")
	}
	diff := scratch[:d]
	for i := 0; i < d; i++ {
		diff[i] = x[i] - g.Mean[i]
	}
	q := 0.0
	for i := 0; i < d; i++ {
		di := diff[i]
		if di == 0 {
			continue
		}
		row := g.Precision.Data[i*d : (i+1)*d]
		s := 0.0
		for j := 0; j < d; j++ {
			s += row[j] * diff[j]
		}
		q += di * s
	}
	return 0.5*(g.logDet-float64(d)*log2Pi) - 0.5*q
}

// quadForm computes (x−μ)ᵀ·Λ·(x−μ) without temporaries.
func (g *Gaussian) quadForm(x []float64) float64 {
	d := len(g.Mean)
	q := 0.0
	for i := 0; i < d; i++ {
		di := x[i] - g.Mean[i]
		if di == 0 {
			continue
		}
		row := g.Precision.Data[i*d : (i+1)*d]
		s := 0.0
		for j := 0; j < d; j++ {
			s += row[j] * (x[j] - g.Mean[j])
		}
		q += di * s
	}
	return q
}

// Sample draws one sample.
func (g *Gaussian) Sample(r *RNG) []float64 {
	return r.MVNormal(g.Mean, g.Cov())
}

// KLGaussian returns KL(p‖q) for multivariate normals:
//
//	½ [ tr(Λq Σp) + (μq−μp)ᵀ Λq (μq−μp) − d + log|Σq|/|Σp| ].
func KLGaussian(p, q *Gaussian) float64 {
	if p.Dim() != q.Dim() {
		panic("stats: dim mismatch in KLGaussian")
	}
	d := float64(p.Dim())
	sp := p.Cov()
	tr := q.Precision.Mul(sp).Trace()
	diff := SubVec(q.Mean, p.Mean)
	quad := Dot(diff, q.Precision.MulVec(diff))
	// log|Σq| − log|Σp| = log|Λp| − log|Λq|
	logRatio := p.logDet - q.logDet
	return 0.5 * (tr + quad - d + logRatio)
}
