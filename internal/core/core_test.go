package core

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// synthData draws documents from the model's own generative process
// with three well-separated topics, returning the data and true
// labels.
func synthData(seed uint64, docs int) (*Data, []int) {
	rng := stats.NewRNG(seed, 99)
	const v = 9
	// Topic word distributions: each topic owns three words.
	phi := [][]float64{
		{.30, .30, .30, .03, .03, .02, .01, .005, .005},
		{.01, .005, .005, .30, .30, .30, .03, .03, .02},
		{.03, .03, .02, .01, .005, .005, .30, .30, .30},
	}
	gelMeans := [][]float64{{3, 9}, {6, 9}, {9, 4}}
	emuMeans := [][]float64{{2, 8}, {8, 2}, {5, 5}}
	data := &Data{V: v}
	truth := make([]int, docs)
	for d := 0; d < docs; d++ {
		k := d % 3
		truth[d] = k
		n := 2 + rng.IntN(4)
		words := make([]int, n)
		for i := range words {
			words[i] = rng.Categorical(phi[k])
		}
		gel := []float64{rng.Normal(gelMeans[k][0], 0.25), rng.Normal(gelMeans[k][1], 0.25)}
		emu := []float64{rng.Normal(emuMeans[k][0], 0.3), rng.Normal(emuMeans[k][1], 0.3)}
		data.Words = append(data.Words, words)
		data.Gel = append(data.Gel, gel)
		data.Emu = append(data.Emu, emu)
	}
	return data, truth
}

func fitSynth(t *testing.T, cfg Config, docs int) (*Result, []int) {
	t.Helper()
	data, truth := synthData(11, docs)
	res, err := Fit(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, truth
}

// clusterAccuracy scores an assignment against truth under the best
// greedy label matching.
func clusterAccuracy(assign, truth []int, k int) float64 {
	// contingency[c][t]
	cont := make([][]int, k)
	for i := range cont {
		cont[i] = make([]int, k)
	}
	for i := range assign {
		cont[assign[i]][truth[i]]++
	}
	used := make([]bool, k)
	correct := 0
	for c := 0; c < k; c++ {
		best, bestT := -1, -1
		for tt := 0; tt < k; tt++ {
			if !used[tt] && cont[c][tt] > best {
				best, bestT = cont[c][tt], tt
			}
		}
		if bestT >= 0 {
			used[bestT] = true
			correct += cont[c][bestT]
		}
	}
	return float64(correct) / float64(len(assign))
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.K = 3
	cfg.Iterations = 120
	cfg.BurnIn = 40
	return cfg
}

func TestFitRecoversJointStructure(t *testing.T) {
	res, truth := fitSynth(t, smallCfg(), 300)
	acc := clusterAccuracy(res.Assign(), truth, 3)
	if acc < 0.9 {
		t.Errorf("joint model recovery accuracy = %.3f, want ≥ 0.9", acc)
	}
	// The Y assignments should agree too.
	accY := clusterAccuracy(res.Y, truth, 3)
	if accY < 0.9 {
		t.Errorf("y recovery accuracy = %.3f", accY)
	}
}

func TestFitRecoversComponents(t *testing.T) {
	res, truth := fitSynth(t, smallCfg(), 300)
	// For each true topic, the matched component mean must sit near the
	// generating gel mean.
	gelMeans := [][]float64{{3, 9}, {6, 9}, {9, 4}}
	assign := res.Assign()
	// map cluster → majority truth
	for k := 0; k < res.K; k++ {
		counts := make([]int, 3)
		n := 0
		for d, c := range assign {
			if c == k {
				counts[truth[d]]++
				n++
			}
		}
		if n < 10 {
			continue
		}
		tt := stats.ArgMax([]float64{float64(counts[0]), float64(counts[1]), float64(counts[2])})
		for j := range gelMeans[tt] {
			if math.Abs(res.Gel[k].Mean[j]-gelMeans[tt][j]) > 0.5 {
				t.Errorf("topic %d gel mean[%d] = %.2f, want ≈ %.2f", k, j, res.Gel[k].Mean[j], gelMeans[tt][j])
			}
		}
	}
}

func TestFitCollapsedRecovers(t *testing.T) {
	cfg := smallCfg()
	cfg.Collapsed = true
	cfg.Iterations = 60 // collapsed sweeps are costlier but mix faster
	res, truth := fitSynth(t, cfg, 180)
	if acc := clusterAccuracy(res.Y, truth, 3); acc < 0.9 {
		t.Errorf("collapsed recovery accuracy = %.3f", acc)
	}
}

func TestFitGelOnlyAblation(t *testing.T) {
	cfg := smallCfg()
	cfg.UseEmulsion = false
	res, truth := fitSynth(t, cfg, 300)
	if acc := clusterAccuracy(res.Y, truth, 3); acc < 0.85 {
		t.Errorf("gel-only recovery accuracy = %.3f", acc)
	}
}

func TestLogLikelihoodImproves(t *testing.T) {
	data, _ := synthData(12, 200)
	s, err := NewSampler(data, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	first := stats.Mean(s.LogLik[:10])
	last := stats.Mean(s.LogLik[len(s.LogLik)-10:])
	if last <= first {
		t.Errorf("log-likelihood did not improve: %.1f → %.1f", first, last)
	}
}

func TestFitDeterministic(t *testing.T) {
	data, _ := synthData(13, 120)
	cfg := smallCfg()
	cfg.Iterations = 30
	r1, err := Fit(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Fit(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for d := range r1.Y {
		if r1.Y[d] != r2.Y[d] {
			t.Fatal("same seed must give identical assignments")
		}
	}
	for k := range r1.Phi {
		for w := range r1.Phi[k] {
			if r1.Phi[k][w] != r2.Phi[k][w] {
				t.Fatal("same seed must give identical φ")
			}
		}
	}
}

func TestEstimateShapesAndNormalization(t *testing.T) {
	res, _ := fitSynth(t, smallCfg(), 120)
	if len(res.Phi) != 3 || len(res.Phi[0]) != 9 {
		t.Fatalf("φ shape wrong")
	}
	for k, row := range res.Phi {
		if s := stats.SumVec(row); math.Abs(s-1) > 1e-9 {
			t.Errorf("φ[%d] sums to %g", k, s)
		}
	}
	for d, row := range res.Theta {
		if s := stats.SumVec(row); math.Abs(s-1) > 1e-9 {
			t.Errorf("θ[%d] sums to %g", d, s)
		}
		if d > 5 {
			break
		}
	}
	// Top terms are sorted by probability.
	top := res.TopTerms(0, 5)
	for i := 1; i < len(top); i++ {
		if top[i].Prob > top[i-1].Prob {
			t.Error("TopTerms not sorted")
		}
	}
	if len(res.DocsPerTopic()) != 3 {
		t.Error("DocsPerTopic shape")
	}
	if _, err := res.GelGaussian(0); err != nil {
		t.Errorf("GelGaussian: %v", err)
	}
	if _, err := res.EmuGaussian(2); err != nil {
		t.Errorf("EmuGaussian: %v", err)
	}
}

func TestDataValidation(t *testing.T) {
	good, _ := synthData(14, 10)
	if _, _, err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Data{V: 5, Words: [][]int{{7}}, Gel: [][]float64{{1}}, Emu: [][]float64{{1}}}
	if _, _, err := bad.Validate(); err == nil {
		t.Error("out-of-range word should fail")
	}
	bad2 := &Data{V: 5, Words: [][]int{{1}, {2}}, Gel: [][]float64{{1}}, Emu: [][]float64{{1}, {2}}}
	if _, _, err := bad2.Validate(); err == nil {
		t.Error("mismatched lengths should fail")
	}
	bad3 := &Data{V: 5, Words: [][]int{{1}, {2}}, Gel: [][]float64{{1}, {1, 2}}, Emu: [][]float64{{1}, {1}}}
	if _, _, err := bad3.Validate(); err == nil {
		t.Error("ragged gel dims should fail")
	}
}

func TestNewSamplerValidation(t *testing.T) {
	data, _ := synthData(15, 20)
	for _, mut := range []func(*Config){
		func(c *Config) { c.K = 1 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Gamma = -1 },
		func(c *Config) { c.Iterations = 0 },
	} {
		cfg := smallCfg()
		mut(&cfg)
		if _, err := NewSampler(data, cfg); err == nil {
			t.Errorf("config %+v should fail", cfg)
		}
	}
	// Prior dim mismatch.
	cfg := smallCfg()
	wrong, err := stats.NewNormalWishart([]float64{0, 0, 0}, 1, 5, stats.ScaledIdentity(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg.GelPrior = wrong
	if _, err := NewSampler(data, cfg); err == nil {
		t.Error("gel prior dim mismatch should fail")
	}
}

func TestEmpiricalPriors(t *testing.T) {
	data, _ := synthData(16, 100)
	gp, ep, err := EmpiricalPriors(data)
	if err != nil {
		t.Fatal(err)
	}
	if gp.Dim() != 2 || ep.Dim() != 2 {
		t.Errorf("prior dims %d/%d", gp.Dim(), ep.Dim())
	}
	// Prior mean ≈ data mean.
	want := stats.MeanVec(data.Gel)
	for i := range want {
		if math.Abs(gp.Mu0[i]-want[i]) > 1e-9 {
			t.Error("gel prior mean should equal data mean")
		}
	}
}

func TestFitLDARecoversWordClusters(t *testing.T) {
	data, truth := synthData(17, 300)
	cfg := DefaultLDAConfig()
	cfg.K = 3
	cfg.Iterations = 150
	res, err := FitLDA(data.Words, data.V, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Words-only clustering is noisier but should beat chance solidly.
	if acc := clusterAccuracy(res.Assign(), truth, 3); acc < 0.7 {
		t.Errorf("LDA accuracy = %.3f", acc)
	}
	for k, row := range res.Phi {
		if s := stats.SumVec(row); math.Abs(s-1) > 1e-9 {
			t.Errorf("LDA φ[%d] sums to %g", k, s)
		}
	}
	if len(res.LogLik) != cfg.Iterations {
		t.Error("missing loglik trace")
	}
}

func TestFitLDAValidation(t *testing.T) {
	if _, err := FitLDA(nil, 5, DefaultLDAConfig()); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := FitLDA([][]int{{9}}, 5, DefaultLDAConfig()); err == nil {
		t.Error("out-of-range word should fail")
	}
	bad := DefaultLDAConfig()
	bad.K = 0
	if _, err := FitLDA([][]int{{1}}, 5, bad); err == nil {
		t.Error("bad config should fail")
	}
}

func TestFitGMMRecoversGaussians(t *testing.T) {
	data, truth := synthData(18, 300)
	res, err := FitGMM(data.Gel, GMMConfig{K: 3, Alpha: 1, Iterations: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if acc := clusterAccuracy(res.Y, truth, 3); acc < 0.9 {
		t.Errorf("GMM accuracy = %.3f", acc)
	}
	if s := stats.SumVec(res.Weights); math.Abs(s-1) > 1e-9 {
		t.Errorf("weights sum to %g", s)
	}
	if len(res.Components) != 3 {
		t.Error("component count")
	}
}

func TestFitGMMValidation(t *testing.T) {
	if _, err := FitGMM(nil, GMMConfig{K: 2, Alpha: 1, Iterations: 1}); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := FitGMM([][]float64{{1, 2}, {1}}, GMMConfig{K: 2, Alpha: 1, Iterations: 1}); err == nil {
		t.Error("ragged input should fail")
	}
	if _, err := FitGMM([][]float64{{1, 2}}, GMMConfig{K: 0, Alpha: 1, Iterations: 1}); err == nil {
		t.Error("bad config should fail")
	}
}

func TestLearnAlphaConverges(t *testing.T) {
	data, truth := synthData(201, 400)
	cfg := smallCfg()
	cfg.Alpha = 2.0 // deliberately far too smooth
	cfg.LearnAlpha = true
	cfg.Iterations = 150
	cfg.BurnIn = 30
	s, err := NewSampler(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The synthetic docs are single-topic: the learned α must shrink
	// well below the bad initial value.
	if got := s.cfg.Alpha; got >= 1.0 {
		t.Errorf("learned α = %g, want ≪ 2.0", got)
	}
	res := s.Estimate()
	if acc := clusterAccuracy(res.Y, truth, 3); acc < 0.9 {
		t.Errorf("recovery with learned α = %.3f", acc)
	}
	if res.Alpha != s.cfg.Alpha {
		t.Error("estimate should carry the learned α")
	}
}
