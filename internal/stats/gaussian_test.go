package stats

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestGaussianLogPdf1D(t *testing.T) {
	g, err := NewGaussian([]float64{0}, MatFromRows([][]float64{{1}}))
	if err != nil {
		t.Fatal(err)
	}
	// Standard normal at 0: -0.5·log(2π)
	want := -0.5 * log2Pi
	if got := g.LogPdf([]float64{0}); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogPdf(0) = %g, want %g", got, want)
	}
	// At x=2: -0.5·log(2π) - 2
	if got := g.LogPdf([]float64{2}); math.Abs(got-(want-2)) > 1e-12 {
		t.Errorf("LogPdf(2) = %g, want %g", got, want-2)
	}
}

func TestGaussianLogPdfIntegratesToOne(t *testing.T) {
	// Riemann check in 2D on a grid.
	prec := MatFromRows([][]float64{{2, 0.3}, {0.3, 1}})
	g, err := NewGaussian([]float64{0.5, -0.5}, prec)
	if err != nil {
		t.Fatal(err)
	}
	const h = 0.05
	sum := 0.0
	for x := -6.0; x <= 7.0; x += h {
		for y := -7.0; y <= 6.0; y += h {
			sum += math.Exp(g.LogPdf([]float64{x, y})) * h * h
		}
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("density integrates to %g", sum)
	}
}

func TestGaussianCovRoundTrip(t *testing.T) {
	r := NewRNG(20, 1)
	prec := randomSPD(r, 3)
	g, err := NewGaussian(randomVec(r, 3), prec)
	if err != nil {
		t.Fatal(err)
	}
	prod := g.Cov().Mul(prec)
	if maxAbsDiff(prod, ScaledIdentity(3, 1)) > 1e-8 {
		t.Errorf("Cov·Precision = %v", prod)
	}
}

func TestKLGaussianSelfIsZero(t *testing.T) {
	r := NewRNG(21, 1)
	f := func(seed uint8) bool {
		_ = seed
		g, err := NewGaussian(randomVec(r, 3), randomSPD(r, 3))
		if err != nil {
			return false
		}
		return math.Abs(KLGaussian(g, g)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKLGaussianNonNegative(t *testing.T) {
	r := NewRNG(22, 1)
	f := func(seed uint8) bool {
		_ = seed
		p, err1 := NewGaussian(randomVec(r, 3), randomSPD(r, 3))
		q, err2 := NewGaussian(randomVec(r, 3), randomSPD(r, 3))
		if err1 != nil || err2 != nil {
			return false
		}
		return KLGaussian(p, q) >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKLGaussianKnownValue(t *testing.T) {
	// Two 1D normals: KL(N(0,1)‖N(1,1)) = 0.5.
	p, _ := NewGaussian([]float64{0}, MatFromRows([][]float64{{1}}))
	q, _ := NewGaussian([]float64{1}, MatFromRows([][]float64{{1}}))
	if got := KLGaussian(p, q); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("KL = %g, want 0.5", got)
	}
	// KL(N(0,σ²=4)‖N(0,1)) = 0.5(4 − 1 − log4) = 0.8068528…
	p2, _ := NewGaussian([]float64{0}, MatFromRows([][]float64{{0.25}}))
	want := 0.5 * (4 - 1 - math.Log(4))
	if got := KLGaussian(p2, q); math.Abs(got-(want+0.5)) > 1e-12 {
		t.Errorf("KL = %g, want %g", got, want+0.5)
	}
}

func TestGaussianSampleMoments(t *testing.T) {
	r := NewRNG(23, 1)
	prec := MatFromRows([][]float64{{4, 0}, {0, 1}})
	g, _ := NewGaussian([]float64{2, -1}, prec)
	const n = 20000
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = r.MVNormal(g.Mean, g.Cov())
	}
	m := MeanVec(xs)
	if math.Abs(m[0]-2) > 0.02 || math.Abs(m[1]+1) > 0.05 {
		t.Errorf("sample mean = %v", m)
	}
	c := CovMat(xs)
	if math.Abs(c.At(0, 0)-0.25) > 0.02 || math.Abs(c.At(1, 1)-1) > 0.06 {
		t.Errorf("sample cov = %v", c)
	}
}

func TestStudentTMatchesGaussianForLargeNu(t *testing.T) {
	mean := []float64{0.3, -0.2}
	scale := MatFromRows([][]float64{{1, 0.2}, {0.2, 0.8}})
	st, err := NewStudentT(mean, scale, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGaussianCov(mean, scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range [][]float64{{0, 0}, {1, 1}, {-2, 0.5}} {
		if d := math.Abs(st.LogPdf(x) - g.LogPdf(x)); d > 1e-3 {
			t.Errorf("Student-t(ν→∞) vs Gaussian at %v differ by %g", x, d)
		}
	}
}

func TestStudentTHeavierTails(t *testing.T) {
	mean := []float64{0}
	scale := MatFromRows([][]float64{{1}})
	st, _ := NewStudentT(mean, scale, 2)
	g, _ := NewGaussianCov(mean, scale)
	far := []float64{6}
	if st.LogPdf(far) <= g.LogPdf(far) {
		t.Error("Student-t should have heavier tails than Gaussian")
	}
}

func TestStudentTRejectsNonPositiveNu(t *testing.T) {
	if _, err := NewStudentT([]float64{0}, ScaledIdentity(1, 1), 0); err == nil {
		t.Error("want error for ν=0")
	}
}

func TestNewGaussianRejectsBadPrecision(t *testing.T) {
	if _, err := NewGaussian([]float64{0, 0}, MatFromRows([][]float64{{1, 2}, {2, 1}})); err == nil {
		t.Error("want error for indefinite precision")
	}
	if _, err := NewGaussian([]float64{0}, ScaledIdentity(2, 1)); err == nil {
		t.Error("want error for dim mismatch")
	}
}

// KL(p‖q) must agree with its Monte-Carlo estimate E_p[log p − log q].
func TestKLGaussianMatchesMonteCarlo(t *testing.T) {
	r := NewRNG(24, 1)
	p, err := NewGaussian([]float64{1, -1}, MatFromRows([][]float64{{2, 0.4}, {0.4, 1.5}}))
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewGaussian([]float64{0, 0.5}, MatFromRows([][]float64{{1, -0.2}, {-0.2, 0.8}}))
	if err != nil {
		t.Fatal(err)
	}
	const n = 60000
	mc := 0.0
	for i := 0; i < n; i++ {
		x := r.MVNormal(p.Mean, p.Cov())
		mc += p.LogPdf(x) - q.LogPdf(x)
	}
	mc /= n
	if exact := KLGaussian(p, q); math.Abs(mc-exact) > 0.03*(1+exact) {
		t.Errorf("Monte-Carlo KL %.4f vs analytic %.4f", mc, exact)
	}
}

// NewGaussianCov builds a Gaussian from a mean and a covariance matrix.
func NewGaussianCov(mean []float64, cov *Mat) (*Gaussian, error) {
	prec, err := Inverse(RegularizeSPD(cov, 1e-12))
	if err != nil {
		return nil, err
	}
	return NewGaussian(mean, prec)
}

// StudentT is a multivariate Student-t distribution, the posterior
// predictive of a Normal-Wishart model: the closed-form reference the
// NWAccum predictive is checked against.
type StudentT struct {
	Mean []float64
	// Scale is the scale matrix Σ (not covariance; covariance is
	// ν/(ν−2)·Σ when ν > 2).
	Scale *Mat
	Nu    float64

	chol   *Cholesky // factor of Scale
	logDet float64
}

// NewStudentT constructs a multivariate Student-t.
func NewStudentT(mean []float64, scale *Mat, nu float64) (*StudentT, error) {
	if nu <= 0 {
		return nil, fmt.Errorf("stats: Student-t needs ν > 0, got %g", nu)
	}
	c, err := NewCholesky(RegularizeSPD(scale, 1e-12))
	if err != nil {
		return nil, fmt.Errorf("stats: Student-t scale: %w", err)
	}
	return &StudentT{Mean: CloneVec(mean), Scale: scale.Clone(), Nu: nu, chol: c, logDet: c.LogDet()}, nil
}

// LogPdf returns the log density at x.
func (t *StudentT) LogPdf(x []float64) float64 {
	d := float64(len(t.Mean))
	diff := SubVec(x, t.Mean)
	q := t.chol.HalfQuadratic(diff)
	return LGamma((t.Nu+d)/2) - LGamma(t.Nu/2) -
		0.5*(d*math.Log(t.Nu*math.Pi)+t.logDet) -
		(t.Nu+d)/2*math.Log1p(q/t.Nu)
}

// HalfQuadratic returns the quadratic form xᵀ·A⁻¹·x computed via the
// factor: ‖L⁻¹x‖². Used in Gaussian log-densities.
func (c *Cholesky) HalfQuadratic(x []float64) float64 {
	n := c.L.R
	if len(x) != n {
		panic("stats: dim mismatch in HalfQuadratic")
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= c.L.At(i, k) * y[k]
		}
		y[i] = s / c.L.At(i, i)
	}
	return Dot(y, y)
}
