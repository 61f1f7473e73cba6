package core

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestGewekeZConvergedChain(t *testing.T) {
	rng := stats.NewRNG(90, 1)
	trace := make([]float64, 200)
	for i := range trace {
		trace[i] = rng.Normal(0, 1)
	}
	z, err := GewekeZ(trace, 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z) > 3 {
		t.Errorf("stationary chain z = %g", z)
	}
}

func TestGewekeZDriftingChain(t *testing.T) {
	trace := make([]float64, 200)
	rng := stats.NewRNG(91, 1)
	for i := range trace {
		trace[i] = float64(i)*0.5 + rng.Normal(0, 1)
	}
	z, err := GewekeZ(trace, 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z) < 5 {
		t.Errorf("drifting chain z = %g, want large", z)
	}
}

func TestGewekeZValidation(t *testing.T) {
	if _, err := GewekeZ([]float64{1, 2}, 0.1, 0.5); err == nil {
		t.Error("short trace should fail")
	}
	trace := make([]float64, 50)
	if _, err := GewekeZ(trace, 0.6, 0.6); err == nil {
		t.Error("overlapping windows should fail")
	}
	// Constant trace converges trivially.
	for i := range trace {
		trace[i] = 7
	}
	z, err := GewekeZ(trace, 0.1, 0.5)
	if err != nil || z != 0 {
		t.Errorf("constant trace: z=%g err=%v", z, err)
	}
}

func TestESS(t *testing.T) {
	rng := stats.NewRNG(92, 1)
	iid := make([]float64, 400)
	for i := range iid {
		iid[i] = rng.Normal(0, 1)
	}
	if ess := ESS(iid); ess < 200 {
		t.Errorf("iid ESS = %g, want near n", ess)
	}
	// AR(1) with strong correlation has much lower ESS.
	ar := make([]float64, 400)
	for i := 1; i < len(ar); i++ {
		ar[i] = 0.95*ar[i-1] + rng.Normal(0, 0.1)
	}
	if ess := ESS(ar); ess > 100 {
		t.Errorf("correlated ESS = %g, want small", ess)
	}
	if got := ESS([]float64{1, 2}); got != 2 {
		t.Errorf("tiny trace ESS = %g", got)
	}
}

func TestSplitData(t *testing.T) {
	data, _ := synthData(93, 100)
	train, test, err := SplitData(data, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if test.NumDocs() != 20 || train.NumDocs() != 80 {
		t.Errorf("split %d/%d", train.NumDocs(), test.NumDocs())
	}
	if train.V != data.V || test.V != data.V {
		t.Error("vocab size lost")
	}
	// Deterministic.
	train2, _, err := SplitData(data, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range train.Gel {
		if train.Gel[i][0] != train2.Gel[i][0] {
			t.Fatal("split not deterministic")
		}
	}
	// Validation.
	if _, _, err := SplitData(data, 0, 1); err == nil {
		t.Error("zero fraction should fail")
	}
	if _, _, err := SplitData(data, 1, 1); err == nil {
		t.Error("full fraction should fail")
	}
}

func TestEvaluateHeldOut(t *testing.T) {
	data, _ := synthData(94, 400)
	train, test, err := SplitData(data, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(train, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	ho, err := res.Evaluate(test, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ho.Docs != test.NumDocs() || ho.Tokens == 0 {
		t.Fatalf("held-out counts: %+v", ho)
	}
	// The true model has 9 words with ~3 probable per topic; a fitted
	// model must beat the uniform baseline (V=9) clearly.
	if ho.Perplexity >= 8 {
		t.Errorf("held-out perplexity = %g, want < 8", ho.Perplexity)
	}
	if math.IsNaN(ho.ConcLogLik) || ho.ConcLogLik > 10 {
		t.Errorf("concentration loglik = %g", ho.ConcLogLik)
	}

	// A deliberately wrong-K model should not beat the right-K model's
	// word perplexity by any margin (sanity of the selection criterion).
	cfgBad := smallCfg()
	cfgBad.K = 2
	resBad, err := Fit(train, cfgBad)
	if err != nil {
		t.Fatal(err)
	}
	hoBad, err := resBad.Evaluate(test, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hoBad.Perplexity < ho.Perplexity*0.95 {
		t.Errorf("K=2 perplexity %g should not beat K=3's %g", hoBad.Perplexity, ho.Perplexity)
	}
}

func TestGibbsTraceConverges(t *testing.T) {
	data, _ := synthData(95, 200)
	s, err := NewSampler(data, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// After burn-in the trace should pass the Geweke check.
	post := s.LogLik[len(s.LogLik)/3:]
	z, err := GewekeZ(post, 0.2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z) > 4 {
		t.Errorf("post-burn-in Geweke z = %g", z)
	}
}
