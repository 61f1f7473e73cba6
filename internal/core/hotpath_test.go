package core

// Equivalence suite for the hot-path overhaul: the kernel-cached
// fold-in and the scratch-reusing sweeps must reproduce the seed
// implementation bit for bit, and the steady-state fold-in path must
// not allocate.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// refFoldIn is the seed implementation of fold-in inference, kept
// verbatim (minus cancellation and telemetry, which draw nothing from
// the RNG) so the kernel-cached rewrite is provably bit-identical.
func refFoldIn(r *Result, words []int, gel, emu []float64, iters int, seed uint64) ([]float64, error) {
	gelG := make([]*stats.Gaussian, r.K)
	emuG := make([]*stats.Gaussian, r.K)
	for k := 0; k < r.K; k++ {
		g, err := r.GelGaussian(k)
		if err != nil {
			return nil, err
		}
		gelG[k] = g
		e, err := r.EmuGaussian(k)
		if err != nil {
			return nil, err
		}
		emuG[k] = e
	}
	conc := make([]float64, r.K)
	for k := 0; k < r.K; k++ {
		conc[k] = gelG[k].LogPdf(gel)
		if r.UseEmulsion {
			conc[k] += r.EmulsionWeight * emuG[k].LogPdf(emu)
		}
	}

	rng := stats.NewRNG(seed, 0xF01D)
	z := make([]int, len(words))
	ndk := make([]int, r.K)
	for n := range z {
		z[n] = rng.IntN(r.K)
		ndk[z[n]]++
	}
	y := rng.CategoricalLog(conc)

	thetaAcc := make([]float64, r.K)
	kept := 0
	weights := make([]float64, r.K)
	logw := make([]float64, r.K)
	for it := 0; it < iters; it++ {
		for n, w := range words {
			ndk[z[n]]--
			for k := 0; k < r.K; k++ {
				m := 0.0
				if y == k {
					m = 1
				}
				weights[k] = (float64(ndk[k]) + m + r.Alpha) * r.Phi[k][w]
			}
			z[n] = rng.Categorical(weights)
			ndk[z[n]]++
		}
		for k := 0; k < r.K; k++ {
			logw[k] = math.Log(float64(ndk[k])+r.Alpha) + conc[k]
		}
		y = rng.CategoricalLog(logw)

		if it >= iters/2 {
			kept++
			denom := float64(len(words)) + 1 + r.Alpha*float64(r.K)
			for k := 0; k < r.K; k++ {
				m := 0.0
				if y == k {
					m = 1
				}
				thetaAcc[k] += (float64(ndk[k]) + m + r.Alpha) / denom
			}
		}
	}
	for k := range thetaAcc {
		thetaAcc[k] /= float64(kept)
	}
	return thetaAcc, nil
}

// TestFoldInKernelBitIdenticalToSeed drives the kernel path and the
// seed implementation over the same requests — with and without
// texture words, across seeds and chain lengths — and requires exact
// equality, not tolerance.
func TestFoldInKernelBitIdenticalToSeed(t *testing.T) {
	data, _ := synthData(21, 150)
	cfg := smallCfg()
	cfg.Iterations = 40
	res, err := Fit(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		words []int
		doc   int
		iters int
		seed  uint64
	}{
		{[]int{0, 1, 2, 0}, 0, 60, 1},
		{[]int{3, 4, 5}, 1, 33, 2},
		{nil, 2, 40, 3},
		{[]int{6, 7, 8, 8, 6}, 3, 11, 99},
		{[]int{0, 4, 8}, 4, 100, 7},
	}
	for i, c := range cases {
		want, err := refFoldIn(res, c.words, data.Gel[c.doc], data.Emu[c.doc], c.iters, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.FoldIn(c.words, data.Gel[c.doc], data.Emu[c.doc], c.iters, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("case %d: θ[%d] = %v, seed implementation %v", i, k, got[k], want[k])
			}
		}
		// And again through the cached kernel's zero-alloc entry point.
		kn, err := res.BuildKernel()
		if err != nil {
			t.Fatal(err)
		}
		theta := make([]float64, kn.K())
		if err := kn.FoldInTo(context.Background(), theta, c.words, data.Gel[c.doc], data.Emu[c.doc], c.iters, c.seed); err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if theta[k] != want[k] {
				t.Fatalf("case %d: FoldInTo θ[%d] = %v, seed implementation %v", i, k, theta[k], want[k])
			}
		}
	}
}

// TestFoldInDegenerateModelTypedError: a Result with no topics or
// missing components used to panic on r.Gel[0]; it must now return an
// error matching ErrDegenerateModel.
func TestFoldInDegenerateModelTypedError(t *testing.T) {
	cases := map[string]*Result{
		"empty":          {},
		"no components":  {K: 3, V: 4, Phi: [][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}}, Alpha: 0.1},
		"phi rows":       {K: 2, V: 4, Gel: make([]Component, 2), Emu: make([]Component, 2), Phi: [][]float64{{1, 0, 0, 0}}, Alpha: 0.1},
		"phi row length": {K: 1, V: 4, Gel: make([]Component, 1), Emu: make([]Component, 1), Phi: [][]float64{{1, 0}}, Alpha: 0.1},
	}
	for name, res := range cases {
		_, err := res.FoldIn([]int{0}, []float64{1, 2}, []float64{1, 2}, 10, 1)
		if !errors.Is(err, ErrDegenerateModel) {
			t.Errorf("%s: err = %v, want ErrDegenerateModel", name, err)
		}
	}
}

// TestFoldInToAllocFree: with the kernel built and the scratch pool
// warm, a fold-in chain must not allocate at all.
func TestFoldInToAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	data, _ := synthData(22, 120)
	cfg := smallCfg()
	cfg.Iterations = 30
	res, err := Fit(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kn, err := res.BuildKernel()
	if err != nil {
		t.Fatal(err)
	}
	theta := make([]float64, kn.K())
	words := []int{0, 3, 6, 1}
	ctx := context.Background()
	if err := kn.FoldInTo(ctx, theta, words, data.Gel[0], data.Emu[0], 50, 9); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := kn.FoldInTo(ctx, theta, words, data.Gel[0], data.Emu[0], 50, 9); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state FoldInTo allocates %.1f/op, want 0", n)
	}
}

// TestCollapsedDeterministicState: the collapsed sampler (the one
// exercising NWAccum's factored predictive) must stay bit-reproducible
// across runs of the same seed.
func TestCollapsedDeterministicState(t *testing.T) {
	data, _ := synthData(23, 90)
	run := func() *Result {
		cfg := smallCfg()
		cfg.Collapsed = true
		cfg.Iterations = 25
		res, err := Fit(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	for d := range r1.Y {
		if r1.Y[d] != r2.Y[d] {
			t.Fatalf("Y[%d] differs", d)
		}
	}
	for i := range r1.LogLik {
		if r1.LogLik[i] != r2.LogLik[i] {
			t.Fatalf("loglik[%d] differs: %g vs %g", i, r1.LogLik[i], r2.LogLik[i])
		}
	}
}

// TestSweepScratchReuseKeepsChainsIndependent: two samplers sharing
// nothing must produce the same chain as a single sampler run twice —
// guarding against scratch state leaking between Sweep calls.
func TestSweepScratchReuseKeepsChainsIndependent(t *testing.T) {
	data, _ := synthData(24, 60)
	cfg := smallCfg()
	cfg.Iterations = 10
	mk := func() *Sampler {
		s, err := NewSampler(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	for i := 0; i < 10; i++ {
		if err := a.Sweep(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := b.Sweep(); err != nil {
			t.Fatal(err)
		}
	}
	for d := range a.Z {
		if a.Y[d] != b.Y[d] {
			t.Fatalf("Y[%d] differs", d)
		}
		for n := range a.Z[d] {
			if a.Z[d][n] != b.Z[d][n] {
				t.Fatalf("Z[%d][%d] differs", d, n)
			}
		}
	}
}

// TestFittingNeverRoutesThroughFloat32: the fitting sampler's entire
// state — counts, components, scratch, parallel worker buffers — and
// the fold-in kernel's working set must contain no float32 anywhere.
// A reflect walk over both types proves neither fitting nor serving
// can route through reduced precision.
func TestFittingNeverRoutesThroughFloat32(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Float32, reflect.Complex64:
			t.Errorf("state holds float32 at %s", path)
		case reflect.Ptr, reflect.Slice, reflect.Array, reflect.Chan:
			walk(ty.Elem(), path+"/*")
		case reflect.Map:
			walk(ty.Key(), path+"/key")
			walk(ty.Elem(), path+"/val")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(Sampler{}), "Sampler")
	walk(reflect.TypeOf(FoldInKernel{}), "FoldInKernel")
}
