package stats

import (
	"fmt"
	"math"
	"testing"
)

func testPrior(t *testing.T, dim int) *NormalWishart {
	t.Helper()
	mu0 := make([]float64, dim)
	nw, err := NewNormalWishart(mu0, 1.0, float64(dim)+2, Identity(dim).Scale(0.5))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNWPosteriorCounts(t *testing.T) {
	nw := testPrior(t, 2)
	xs := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	post := nw.Posterior(xs)
	if post.Beta != nw.Beta+3 {
		t.Errorf("β' = %g, want %g", post.Beta, nw.Beta+3)
	}
	if post.Nu != nw.Nu+3 {
		t.Errorf("ν' = %g, want %g", post.Nu, nw.Nu+3)
	}
	// μ' = (β·μ0 + n·x̄)/(β+n) with μ0 = 0, x̄ = (2/3, 2/3)
	want := 3.0 * (2.0 / 3.0) / 4.0
	if math.Abs(post.Mu0[0]-want) > 1e-12 {
		t.Errorf("μ'[0] = %g, want %g", post.Mu0[0], want)
	}
}

func TestNWPosteriorEmptyIsPrior(t *testing.T) {
	nw := testPrior(t, 3)
	post := nw.Posterior(nil)
	if post.Beta != nw.Beta || post.Nu != nw.Nu {
		t.Error("empty posterior must equal prior")
	}
	if post.S.MaxAbsDiff(nw.S) > 1e-15 {
		t.Error("empty posterior scale must equal prior scale")
	}
	// And must not alias.
	post.S.Set(0, 0, 99)
	if nw.S.At(0, 0) == 99 {
		t.Error("posterior aliases prior scale matrix")
	}
}

func TestNWPosteriorConcentratesOnTruth(t *testing.T) {
	r := NewRNG(30, 1)
	trueMu := []float64{1.5, -0.5}
	trueCov := MatFromRows([][]float64{{0.2, 0.05}, {0.05, 0.1}})
	const n = 5000
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = r.MVNormal(trueMu, trueCov)
	}
	nw := testPrior(t, 2)
	post := nw.Posterior(xs)
	// Posterior mean of μ ≈ truth.
	for i := range trueMu {
		if math.Abs(post.Mu0[i]-trueMu[i]) > 0.03 {
			t.Errorf("posterior μ[%d] = %g, want ≈ %g", i, post.Mu0[i], trueMu[i])
		}
	}
	// E[Λ] = ν'·S' should approximate the true precision.
	_, lam := post.MeanParams()
	truePrec, err := Inverse(trueCov)
	if err != nil {
		t.Fatal(err)
	}
	if lam.MaxAbsDiff(truePrec) > 0.06*truePrec.At(0, 0) {
		t.Errorf("E[Λ] = %v, want ≈ %v", lam, truePrec)
	}
}

func TestNWSampleRoundTrip(t *testing.T) {
	r := NewRNG(31, 1)
	nw := testPrior(t, 2)
	for i := 0; i < 100; i++ {
		mu, lam := nw.Sample(r)
		if len(mu) != 2 {
			t.Fatal("bad μ dim")
		}
		if _, err := NewCholesky(lam); err != nil {
			t.Fatalf("sampled Λ not PD: %v", err)
		}
	}
}

func TestNWPredictiveTIsProper(t *testing.T) {
	nw := testPrior(t, 2)
	st, err := nw.PredictiveT()
	if err != nil {
		t.Fatal(err)
	}
	// 2D Riemann integration of the predictive density.
	const h = 0.1
	sum := 0.0
	for x := -12.0; x <= 12.0; x += h {
		for y := -12.0; y <= 12.0; y += h {
			sum += math.Exp(st.LogPdf([]float64{x, y})) * h * h
		}
	}
	if math.Abs(sum-1) > 0.03 {
		t.Errorf("predictive integrates to %g", sum)
	}
}

func TestNWLogMarginalLikelihoodPrefersMatchingData(t *testing.T) {
	r := NewRNG(32, 1)
	nw := testPrior(t, 2)
	near := make([][]float64, 50)
	far := make([][]float64, 50)
	for i := range near {
		near[i] = r.MVNormal([]float64{0, 0}, Identity(2).Scale(0.3))
		far[i] = r.MVNormal([]float64{25, 25}, Identity(2).Scale(0.3))
	}
	if nw.LogMarginalLikelihood(near) <= nw.LogMarginalLikelihood(far) {
		t.Error("marginal likelihood should prefer data near the prior mean")
	}
}

func TestNWLogMarginalDecomposesByChainRule(t *testing.T) {
	// p(x1,x2) = p(x1)·p(x2|x1): marginal of both = marginal of first +
	// predictive of second under the posterior after the first.
	nw := testPrior(t, 2)
	x1 := []float64{0.5, -0.3}
	x2 := []float64{-0.2, 0.4}
	joint := nw.LogMarginalLikelihood([][]float64{x1, x2})
	first := nw.LogMarginalLikelihood([][]float64{x1})
	post1 := nw.Posterior([][]float64{x1})
	st, err := post1.PredictiveT()
	if err != nil {
		t.Fatal(err)
	}
	chained := first + st.LogPdf(x2)
	if math.Abs(joint-chained) > 1e-6 {
		t.Errorf("chain rule violated: joint = %g, chained = %g", joint, chained)
	}
}

func TestNWValidation(t *testing.T) {
	if _, err := NewNormalWishart([]float64{0, 0}, 0, 4, Identity(2)); err == nil {
		t.Error("want error for β=0")
	}
	if _, err := NewNormalWishart([]float64{0, 0}, 1, 0.5, Identity(2)); err == nil {
		t.Error("want error for ν ≤ dim−1")
	}
	if _, err := NewNormalWishart([]float64{0, 0}, 1, 4, Identity(3)); err == nil {
		t.Error("want error for dim mismatch")
	}
	if _, err := NewNormalWishart([]float64{0, 0}, 1, 4, MatFromRows([][]float64{{1, 2}, {2, 1}})); err == nil {
		t.Error("want error for non-PD scale")
	}
}

// PredictiveT returns the posterior predictive distribution of a new
// observation, a multivariate Student-t:
//
//	t_{ν−d+1}( μ₀, (β+1)/(β·(ν−d+1)) · S⁻¹ ).
func (nw *NormalWishart) PredictiveT() (*StudentT, error) {
	d := float64(nw.Dim())
	dof := nw.Nu - d + 1
	if dof <= 0 {
		return nil, fmt.Errorf("stats: predictive dof %g ≤ 0", dof)
	}
	scale := nw.priorSInv().Scale((nw.Beta + 1) / (nw.Beta * dof))
	return NewStudentT(nw.Mu0, scale, dof)
}
