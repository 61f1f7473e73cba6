package stats

import (
	"math"
	"testing"
)

func accumFixture(t *testing.T) (*NormalWishart, [][]float64) {
	t.Helper()
	prior, err := NewNormalWishart([]float64{0, 0}, 0.5, 5, ScaledIdentity(2, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(60, 1)
	xs := make([][]float64, 40)
	for i := range xs {
		xs[i] = []float64{r.Normal(1, 0.5), r.Normal(-2, 0.8)}
	}
	return prior, xs
}

func TestNWAccumMatchesBatchPosterior(t *testing.T) {
	prior, xs := accumFixture(t)
	acc := NewNWAccum(prior)
	for _, x := range xs {
		acc.Add(x)
	}
	// The accumulator's posterior is seen through its predictive and
	// its marginal likelihood.
	st, err := prior.Posterior(xs).PredictiveT()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		if d := math.Abs(acc.PredictiveLogPdf(x) - st.LogPdf(x)); d > 1e-7 {
			t.Errorf("predictive at %v off by %g", x, d)
		}
	}
	if d := math.Abs(acc.LogMarginalLikelihood() - prior.LogMarginalLikelihood(xs)); d > 1e-7 {
		t.Errorf("marginal off by %g", d)
	}
}

func TestNWAccumRemoveRestoresState(t *testing.T) {
	prior, xs := accumFixture(t)
	acc := NewNWAccum(prior)
	for _, x := range xs[:20] {
		acc.Add(x)
	}
	n0, sum0, outer0 := acc.State()
	for _, x := range xs[20:] {
		acc.Add(x)
	}
	for _, x := range xs[20:] {
		acc.Remove(x)
	}
	n1, sum1, outer1 := acc.State()
	if n0 != n1 {
		t.Errorf("n not restored: %g vs %g", n1, n0)
	}
	for i := range sum0 {
		if math.Abs(sum0[i]-sum1[i]) > 1e-8 {
			t.Errorf("sum not restored at %d", i)
		}
	}
	if maxAbsDiff(outer0, outer1) > 1e-7 {
		t.Error("outer products not restored")
	}
}

func TestNWAccumEmptyIsPrior(t *testing.T) {
	prior, xs := accumFixture(t)
	acc := NewNWAccum(prior)
	// Predictive matches the prior predictive.
	st, err := prior.PredictiveT()
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(acc.PredictiveLogPdf(xs[0]) - st.LogPdf(xs[0])); d > 1e-9 {
		t.Errorf("empty predictive off by %g", d)
	}
}

func TestNWAccumPredictiveMatchesBatch(t *testing.T) {
	prior, xs := accumFixture(t)
	acc := NewNWAccum(prior)
	for _, x := range xs[:15] {
		acc.Add(x)
	}
	st, err := prior.Posterior(xs[:15]).PredictiveT()
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.5, -1}
	if d := math.Abs(acc.PredictiveLogPdf(probe) - st.LogPdf(probe)); d > 1e-7 {
		t.Errorf("predictive off by %g", d)
	}
	// Cache invalidation on mutation.
	acc.Add(xs[15])
	st2, err := prior.Posterior(xs[:16]).PredictiveT()
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(acc.PredictiveLogPdf(probe) - st2.LogPdf(probe)); d > 1e-7 {
		t.Errorf("stale cache: off by %g", d)
	}
}

func TestNWAccumLogMarginalMatchesBatch(t *testing.T) {
	prior, xs := accumFixture(t)
	acc := NewNWAccum(prior)
	for _, x := range xs[:10] {
		acc.Add(x)
	}
	want := prior.LogMarginalLikelihood(xs[:10])
	if d := math.Abs(acc.LogMarginalLikelihood() - want); d > 1e-7 {
		t.Errorf("marginal off by %g", d)
	}
}

func TestNWAccumRemoveEmptyPanics(t *testing.T) {
	prior, _ := accumFixture(t)
	acc := NewNWAccum(prior)
	defer func() {
		if recover() == nil {
			t.Error("Remove on empty should panic")
		}
	}()
	acc.Remove([]float64{0, 0})
}

func TestNWAccumDegenerateAxisStaysFinite(t *testing.T) {
	// All observations identical on one axis (the absent-gel case):
	// the predictive must stay finite.
	prior, _ := accumFixture(t)
	acc := NewNWAccum(prior)
	for i := 0; i < 50; i++ {
		acc.Add([]float64{9.21, float64(i) * 0.01})
	}
	lp := acc.PredictiveLogPdf([]float64{9.21, 0.2})
	if math.IsNaN(lp) || math.IsInf(lp, 0) {
		t.Errorf("predictive log pdf = %g", lp)
	}
}
