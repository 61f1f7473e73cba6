package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
)

func TestParallelRecoversStructure(t *testing.T) {
	cfg := smallCfg()
	cfg.Workers = 4
	res, truth := fitSynth(t, cfg, 300)
	if acc := clusterAccuracy(res.Y, truth, 3); acc < 0.9 {
		t.Errorf("parallel recovery accuracy = %.3f", acc)
	}
}

func TestParallelDeterministicForFixedWorkers(t *testing.T) {
	data, _ := synthData(96, 150)
	cfg := smallCfg()
	cfg.Workers = 3
	cfg.Iterations = 40
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
			t.Fatal("same seed and worker count must give identical chains")
		}
	}
}

func TestParallelCountInvariants(t *testing.T) {
	data, _ := synthData(97, 120)
	cfg := smallCfg()
	cfg.Workers = 4
	cfg.Iterations = 10
	s, err := NewSampler(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	// After merging deltas: nkw row sums equal nk, totals equal token
	// count, ndk consistent with Z.
	totalTokens := 0
	for _, w := range data.Words {
		totalTokens += len(w)
	}
	sumNk := 0
	for k := 0; k < cfg.K; k++ {
		rowSum := 0
		for v := 0; v < data.V; v++ {
			if s.nwk[v][k] < 0 {
				t.Fatalf("negative count nwk[%d][%d]", v, k)
			}
			rowSum += s.nwk[v][k]
		}
		if rowSum != s.nk[k] {
			t.Fatalf("topic %d: row sum %d != nk %d", k, rowSum, s.nk[k])
		}
		sumNk += s.nk[k]
	}
	if sumNk != totalTokens {
		t.Fatalf("Σnk = %d, tokens %d", sumNk, totalTokens)
	}
	for d := range data.Words {
		counts := make([]int, cfg.K)
		for _, z := range s.Z[d] {
			counts[z]++
		}
		for k := 0; k < cfg.K; k++ {
			if counts[k] != s.ndk[d][k] {
				t.Fatalf("doc %d topic %d: ndk %d != actual %d", d, k, s.ndk[d][k], counts[k])
			}
		}
	}
	// mk consistent with Y.
	mk := make([]int, cfg.K)
	for _, y := range s.Y {
		mk[y]++
	}
	for k := 0; k < cfg.K; k++ {
		if mk[k] != s.mk[k] {
			t.Fatalf("mk[%d] = %d, actual %d", k, s.mk[k], mk[k])
		}
	}
}

func TestParallelValidation(t *testing.T) {
	data, _ := synthData(98, 30)
	cfg := smallCfg()
	cfg.Workers = -1
	if _, err := NewSampler(data, cfg); err == nil {
		t.Error("negative workers should fail")
	}
	cfg = smallCfg()
	cfg.Workers = 4
	cfg.Collapsed = true
	if _, err := NewSampler(data, cfg); err == nil {
		t.Error("collapsed + workers should fail")
	}
}

func TestShardRanges(t *testing.T) {
	shards := ShardRanges(10, 3)
	if len(shards) != 3 {
		t.Fatalf("%d shards", len(shards))
	}
	covered := 0
	prev := 0
	for _, sh := range shards {
		if sh[0] != prev {
			t.Fatalf("gap at %d", sh[0])
		}
		covered += sh[1] - sh[0]
		prev = sh[1]
	}
	if covered != 10 || prev != 10 {
		t.Fatalf("covered %d", covered)
	}
	// More workers than items clamps.
	if got := ShardRanges(2, 8); len(got) != 2 {
		t.Errorf("clamped shards = %d", len(got))
	}
}

// TestShardRangesDegenerate is the regression test for the integer
// division by zero: n == 0 used to clamp w to 0 and panic on n / w.
func TestShardRangesDegenerate(t *testing.T) {
	if got := ShardRanges(0, 4); got != nil {
		t.Errorf("ShardRanges(0,4) = %v, want nil", got)
	}
	if got := ShardRanges(0, 0); got != nil {
		t.Errorf("ShardRanges(0,0) = %v, want nil", got)
	}
	// Non-positive worker counts degrade to a single shard instead of
	// dividing by zero.
	for _, w := range []int{0, -3} {
		got := ShardRanges(5, w)
		if len(got) != 1 || got[0] != [2]int{0, 5} {
			t.Errorf("ShardRanges(5,%d) = %v, want one full shard", w, got)
		}
	}
}

// TestParallelDeterministicState: same seed and worker count must give
// byte-identical Z and Y chains, not merely matching final clusters.
func TestParallelDeterministicState(t *testing.T) {
	data, _ := synthData(101, 120)
	run := func() *Sampler {
		cfg := smallCfg()
		cfg.Workers = 4
		cfg.Iterations = 25
		s, err := NewSampler(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := run(), run()
	for d := range s1.Z {
		if s1.Y[d] != s2.Y[d] {
			t.Fatalf("Y[%d] differs: %d vs %d", d, s1.Y[d], s2.Y[d])
		}
		for n := range s1.Z[d] {
			if s1.Z[d][n] != s2.Z[d][n] {
				t.Fatalf("Z[%d][%d] differs: %d vs %d", d, n, s1.Z[d][n], s2.Z[d][n])
			}
		}
	}
	if len(s1.LogLik) != len(s2.LogLik) {
		t.Fatalf("trace lengths differ")
	}
	for i := range s1.LogLik {
		if s1.LogLik[i] != s2.LogLik[i] {
			t.Fatalf("loglik[%d] differs: %g vs %g", i, s1.LogLik[i], s2.LogLik[i])
		}
	}
}

// TestParallelLogLikAgreesWithSequential: the parallel kernel samples
// the same posterior as the sequential chain — mean post-burn-in
// log-likelihoods within a small relative tolerance on a synthetic
// corpus.
func TestParallelLogLikAgreesWithSequential(t *testing.T) {
	data, _ := synthData(102, 300)
	tail := func(workers int) float64 {
		cfg := smallCfg()
		cfg.Workers = workers
		cfg.Iterations = 200
		res, err := Fit(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return meanTail(res.LogLik)
	}
	seq := tail(1)
	for _, workers := range []int{2, 4} {
		par := tail(workers)
		rel := (par - seq) / seq
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.02 {
			t.Errorf("workers=%d: mean tail loglik %.1f vs sequential %.1f (rel %.3f)",
				workers, par, seq, rel)
		}
	}
}

func TestParallelMatchesSequentialQuality(t *testing.T) {
	data, truth := synthData(99, 300)
	seqCfg := smallCfg()
	seq, err := Fit(data, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := smallCfg()
	parCfg.Workers = 4
	par, err := Fit(data, parCfg)
	if err != nil {
		t.Fatal(err)
	}
	accSeq := clusterAccuracy(seq.Y, truth, 3)
	accPar := clusterAccuracy(par.Y, truth, 3)
	if accPar < accSeq-0.05 {
		t.Errorf("parallel accuracy %.3f well below sequential %.3f", accPar, accSeq)
	}
}

// meanTail averages the last half of a trace.
func meanTail(trace []float64) float64 {
	if len(trace) == 0 {
		return 0
	}
	tail := trace[len(trace)/2:]
	s := 0.0
	for _, v := range tail {
		s += v
	}
	return s / float64(len(tail))
}

// runWorkers runs a chain of iters sweeps on the given worker count.
func runWorkers(t *testing.T, data *Data, workers, iters int) *Sampler {
	t.Helper()
	cfg := smallCfg()
	cfg.Workers = workers
	cfg.Iterations = iters
	s, err := NewSampler(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParallelWorkerCountInvariant: the parallel kernel's draws do not
// depend on how the recipes are split, so Z, Y and the log-likelihood
// trace are identical at 2, 3 and 4 workers.
func TestParallelWorkerCountInvariant(t *testing.T) {
	data, _ := synthData(103, 90)
	want := runWorkers(t, data, 2, 25)
	for _, workers := range []int{3, 4} {
		got := runWorkers(t, data, workers, 25)
		if !reflect.DeepEqual(got.Z, want.Z) || !reflect.DeepEqual(got.Y, want.Y) {
			t.Fatalf("%d workers: assignments differ from 2 workers", workers)
		}
		if !reflect.DeepEqual(got.LogLik, want.LogLik) {
			t.Fatalf("%d workers: log-likelihood trace differs from 2 workers", workers)
		}
	}
}

// TestParallelResumeAtOtherWorkerCount: the snapshot names the kernel,
// not the worker count, so a 2-worker chain's snapshot resumes at 4
// workers onto the uninterrupted 2-worker chain.
func TestParallelResumeAtOtherWorkerCount(t *testing.T) {
	data, _ := synthData(104, 80)
	want := runWorkers(t, data, 2, 30)
	snap := runWorkers(t, data, 2, 12).Snapshot()
	cfg := smallCfg()
	cfg.Workers = 4
	cfg.Iterations = 30
	s, err := ResumeSampler(data, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Z, want.Z) || !reflect.DeepEqual(s.Y, want.Y) || !reflect.DeepEqual(s.LogLik, want.LogLik) {
		t.Fatal("2-worker snapshot resumed at 4 workers left the uninterrupted chain")
	}
}

// TestParallelRecipeStepEnumeration checks the parallel kernel's
// per-recipe step against its target by exact enumeration. K=2, V=3,
// one recipe with two tokens; α, φ and the components are held fixed.
// Repeating the recipe's z-then-y update is then a Gibbs chain on
// (z_1, z_2, y) whose stationary law, with θ integrated out, is
//
//	p(z, y) ∝ ∏_k Γ(n_k + [y=k] + α) · ∏_n φ_{z_n,w_n} · N(g | y) · N(e | y)^λ
//
// where n_k counts the tokens with z_n = k. The thinned chain's state
// frequencies must match that law under Pearson's chi-square. Dropping
// the −1 self-count of eq. (2) from the z step fails this test.
func TestParallelRecipeStepEnumeration(t *testing.T) {
	const (
		seed  = 20261019
		steps = 400_000
		thin  = 10
		// χ² with 7 degrees of freedom (8 states): the 0.9999 quantile.
		bound = 29.88
		alpha = 0.5
		lam   = 0.5
	)
	prior, err := stats.NewNormalWishart([]float64{0}, 1, 3, stats.ScaledIdentity(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	words := []int{0, 2}
	gel, emu := []float64{0.4}, []float64{0.2}
	data := &Data{V: 3, Words: [][]int{words}, Gel: [][]float64{gel}, Emu: [][]float64{emu}}
	cfg := Config{K: 2, Alpha: alpha, Gamma: 0.1, GelPrior: prior, EmuPrior: prior, Iterations: 1,
		UseEmulsion: true, EmulsionWeight: lam, Workers: 2, RandomInit: true, Seed: seed}
	s, err := NewSampler(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, means := range [][2]float64{{0, 0}, {1, 0.5}} {
		if s.gelComp[k], err = newComponent([]float64{means[0]}, stats.ScaledIdentity(1, 1)); err != nil {
			t.Fatal(err)
		}
		if s.emuComp[k], err = newComponent([]float64{means[1]}, stats.ScaledIdentity(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.refreshBanks(); err != nil {
		t.Fatal(err)
	}
	s.ensureLogTab()
	// φ_k over the three words, stored vocab-major.
	s.scr.phi = [][]float64{{0.5, 0.2}, {0.3, 0.3}, {0.2, 0.5}}

	// The enumerated law over state = 4·z_1 + 2·z_2 + y.
	var want [8]float64
	total := 0.0
	for st := range want {
		z := []int{st >> 2, (st >> 1) & 1}
		y := st & 1
		var n [2]int
		lp := 0.0
		for i, k := range z {
			n[k]++
			lp += math.Log(s.scr.phi[words[i]][k])
		}
		for k := range n {
			m := 0.0
			if y == k {
				m = 1
			}
			g, _ := math.Lgamma(float64(n[k]) + m + alpha)
			lp += g
		}
		lp += s.gelComp[y].gauss.LogPdf(gel) + lam*s.emuComp[y].gauss.LogPdf(emu)
		want[st] = math.Exp(lp)
		total += want[st]
	}

	pw := newParWorker(data.V, cfg.K, 1, 1)
	var got [8]int
	for i := 0; i < steps; i++ {
		s.sampleRecipe(0, i, &pw)
		if (i+1)%thin == 0 {
			got[s.Z[0][0]<<2|s.Z[0][1]<<1|s.Y[0]]++
		}
	}
	chi2 := 0.0
	for st := range want {
		exp := float64(steps/thin) * want[st] / total
		chi2 += (float64(got[st]) - exp) * (float64(got[st]) - exp) / exp
	}
	t.Logf("chi-square %.2f over 8 states (bound %.2f); counts %v", chi2, bound, got)
	if chi2 > bound {
		t.Fatalf("per-recipe step misses its conditional posterior: chi-square %.2f > %.2f", chi2, bound)
	}
}
