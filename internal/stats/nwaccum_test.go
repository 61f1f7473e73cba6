package stats

import (
	"math"
	"testing"
)

func accumFixture(t *testing.T) (*NormalWishart, [][]float64) {
	t.Helper()
	prior, err := NewNormalWishart([]float64{0, 0}, 0.5, 5, Identity(2).Scale(0.4))
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
	batch := prior.Posterior(xs)
	inc := acc.Posterior()
	if math.Abs(batch.Beta-inc.Beta) > 1e-9 || math.Abs(batch.Nu-inc.Nu) > 1e-9 {
		t.Errorf("β/ν mismatch: %g/%g vs %g/%g", inc.Beta, inc.Nu, batch.Beta, batch.Nu)
	}
	for i := range batch.Mu0 {
		if math.Abs(batch.Mu0[i]-inc.Mu0[i]) > 1e-9 {
			t.Errorf("μ mismatch at %d: %g vs %g", i, inc.Mu0[i], batch.Mu0[i])
		}
	}
	if batch.S.MaxAbsDiff(inc.S) > 1e-8 {
		t.Errorf("S mismatch:\n%v\nvs\n%v", inc.S, batch.S)
	}
}

func TestNWAccumRemoveRestoresState(t *testing.T) {
	prior, xs := accumFixture(t)
	acc := NewNWAccum(prior)
	for _, x := range xs[:20] {
		acc.Add(x)
	}
	before := acc.Posterior()
	for _, x := range xs[20:] {
		acc.Add(x)
	}
	for _, x := range xs[20:] {
		acc.Remove(x)
	}
	after := acc.Posterior()
	for i := range before.Mu0 {
		if math.Abs(before.Mu0[i]-after.Mu0[i]) > 1e-8 {
			t.Errorf("μ not restored at %d", i)
		}
	}
	if before.S.MaxAbsDiff(after.S) > 1e-7 {
		t.Error("S not restored")
	}
}

func TestNWAccumEmptyIsPrior(t *testing.T) {
	prior, xs := accumFixture(t)
	acc := NewNWAccum(prior)
	post := acc.Posterior()
	if post.Beta != prior.Beta || post.Nu != prior.Nu || post.S.MaxAbsDiff(prior.S) > 1e-15 {
		t.Error("empty accumulator posterior must equal prior")
	}
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
	// posterior and predictive must stay finite and positive definite.
	prior, _ := accumFixture(t)
	acc := NewNWAccum(prior)
	for i := 0; i < 50; i++ {
		acc.Add([]float64{9.21, float64(i) * 0.01})
	}
	post := acc.Posterior()
	if _, err := NewCholesky(post.S); err != nil {
		t.Fatalf("posterior scale not PD: %v", err)
	}
	lp := acc.PredictiveLogPdf([]float64{9.21, 0.2})
	if math.IsNaN(lp) || math.IsInf(lp, 0) {
		t.Errorf("predictive log pdf = %g", lp)
	}
}
