package core

import (
	"testing"
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

// TestParallelLogLikAgreesWithSequential: the AD-LDA approximation
// must converge to the same posterior mass as the exact sequential
// chain — mean post-burn-in log-likelihoods within a small relative
// tolerance on a synthetic corpus.
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
