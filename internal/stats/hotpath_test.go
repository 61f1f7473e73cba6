package stats

// Equivalence tests for the hot-path variants: every scratch/factored
// API must reproduce its allocating counterpart — bit-identical where
// the operation order is unchanged, ≤1e-10 where the linear algebra is
// reorganized (rank-one update/downdate vs. full refactorization).

import (
	"errors"
	"math"
	"testing"
)

func randSPD(r *RNG, d int) *Mat {
	a := NewMat(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			a.Set(i, j, r.Normal(0, 1))
		}
	}
	spd := a.Mul(a.T())
	for i := 0; i < d; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(d))
	}
	spd.Symmetrize()
	return spd
}

func TestCholeskyIntoMatchesNewCholesky(t *testing.T) {
	r := NewRNG(11, 0)
	for _, d := range []int{1, 2, 3, 6} {
		a := randSPD(r, d)
		want := MustCholesky(a)
		got := NewMat(d, d)
		// Poison the buffer: CholeskyInto must fully overwrite it.
		for i := range got.Data {
			got.Data[i] = math.NaN()
		}
		if err := CholeskyInto(got, a); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if maxAbsDiff(got, want.L) != 0 {
			t.Errorf("d=%d: CholeskyInto differs from NewCholesky by %g", d, maxAbsDiff(got, want.L))
		}
	}
	if err := CholeskyInto(NewMat(2, 2), ScaledIdentity(2, -1)); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("negative matrix: err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestRank1UpdateMatchesRefactorization(t *testing.T) {
	r := NewRNG(12, 0)
	for _, d := range []int{2, 3, 6} {
		a := randSPD(r, d)
		x := make([]float64, d)
		for i := range x {
			x[i] = r.Normal(0, 2)
		}
		l := MustCholesky(a).L
		Rank1Update(l, x, make([]float64, d))
		updated := a.Clone()
		updated.AddOuterScaled(1, x, x)
		want := MustCholesky(updated)
		if diff := maxAbsDiff(l, want.L); diff > 1e-10 {
			t.Errorf("d=%d: rank-1 update off by %g", d, diff)
		}
	}
}

func TestRank1DowndateMatchesRefactorization(t *testing.T) {
	r := NewRNG(13, 0)
	for _, d := range []int{2, 3, 6} {
		a := randSPD(r, d)
		x := make([]float64, d)
		for i := range x {
			x[i] = r.Normal(0, 0.3) // small enough that A − xxᵀ stays PD
		}
		l := MustCholesky(a).L
		if err := Rank1Downdate(l, x, make([]float64, d)); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		downdated := a.Clone()
		downdated.AddOuterScaled(-1, x, x)
		want := MustCholesky(downdated)
		if diff := maxAbsDiff(l, want.L); diff > 1e-10 {
			t.Errorf("d=%d: rank-1 downdate off by %g", d, diff)
		}
	}
	// Update followed by downdate with the same vector round-trips.
	a := randSPD(r, 3)
	x := []float64{1.5, -0.7, 2.2}
	l := MustCholesky(a).L
	work := make([]float64, 3)
	Rank1Update(l, x, work)
	if err := Rank1Downdate(l, x, work); err != nil {
		t.Fatal(err)
	}
	if diff := maxAbsDiff(l, MustCholesky(a).L); diff > 1e-10 {
		t.Errorf("update/downdate round trip off by %g", diff)
	}
}

func TestRank1DowndateRejectsIndefinite(t *testing.T) {
	l := MustCholesky(ScaledIdentity(2, 1)).L
	// I − xxᵀ with ‖x‖ > 1 is indefinite.
	err := Rank1Downdate(l, []float64{2, 0}, make([]float64, 2))
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestGaussianLogPdfScratchBitIdentical(t *testing.T) {
	r := NewRNG(14, 0)
	for _, d := range []int{1, 3, 6} {
		mean := make([]float64, d)
		for i := range mean {
			mean[i] = r.Normal(0, 3)
		}
		g, err := NewGaussian(mean, randSPD(r, d))
		if err != nil {
			t.Fatal(err)
		}
		scratch := make([]float64, d)
		for trial := 0; trial < 50; trial++ {
			x := make([]float64, d)
			for i := range x {
				x[i] = r.Normal(0, 3)
			}
			if trial%5 == 0 {
				x[0] = mean[0] // exercise the di==0 skip
			}
			if got, want := g.LogPdfScratch(x, scratch), g.LogPdf(x); got != want {
				t.Fatalf("d=%d trial %d: scratch %v != plain %v", d, trial, got, want)
			}
		}
	}
}

func TestCategoricalLogScratchBitIdentical(t *testing.T) {
	gen := NewRNG(15, 0)
	a, b := NewRNG(16, 1), NewRNG(16, 1)
	scratch := make([]float64, 12)
	for trial := 0; trial < 200; trial++ {
		k := 2 + gen.IntN(10)
		logw := make([]float64, k)
		for i := range logw {
			logw[i] = gen.Normal(-400, 300) // deep underflow territory
		}
		if got, want := a.CategoricalLogScratch(logw, scratch), b.CategoricalLog(logw); got != want {
			t.Fatalf("trial %d: scratch draw %d != plain draw %d", trial, got, want)
		}
	}
}

// refPosterior is the seed implementation of NormalWishart.Posterior,
// kept verbatim so the scratch rewrite is provably bit-identical.
func refPosterior(nw *NormalWishart, xs [][]float64) *NormalWishart {
	d := nw.Dim()
	n := len(xs)
	if n == 0 {
		return &NormalWishart{Mu0: CloneVec(nw.Mu0), Beta: nw.Beta, Nu: nw.Nu, S: nw.S.Clone()}
	}
	mean := make([]float64, d)
	for _, x := range xs {
		for i, v := range x {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(n)
	}
	scatter := NewMat(d, d)
	for _, x := range xs {
		diff := SubVec(x, mean)
		scatter.AddOuterScaled(1, diff, diff)
	}
	fn := float64(n)
	betaC := nw.Beta + fn
	nuC := nw.Nu + fn
	muC := make([]float64, d)
	for i := range muC {
		muC[i] = (nw.Beta*nw.Mu0[i] + fn*mean[i]) / betaC
	}
	sInv, err := Inverse(RegularizeSPD(nw.S, 1e-12))
	if err != nil {
		panic(err)
	}
	diff0 := SubVec(mean, nw.Mu0)
	sInv.AddInPlace(scatter)
	sInv.AddOuterScaled(nw.Beta*fn/betaC, diff0, diff0)
	sC, err := Inverse(RegularizeSPD(sInv, 1e-12))
	if err != nil {
		panic(err)
	}
	return &NormalWishart{Mu0: muC, Beta: betaC, Nu: nuC, S: sC}
}

func TestPosteriorWithBitIdenticalToSeed(t *testing.T) {
	r := NewRNG(17, 0)
	for _, d := range []int{2, 3, 6} {
		mu0 := make([]float64, d)
		for i := range mu0 {
			mu0[i] = r.Normal(0, 1)
		}
		prior, err := NewNormalWishart(mu0, 0.8, float64(d)+2.5, randSPD(r, d).Scale(0.1))
		if err != nil {
			t.Fatal(err)
		}
		scr := prior.NewPosteriorScratch()
		for _, n := range []int{0, 1, 5, 40} {
			xs := make([][]float64, n)
			for i := range xs {
				xs[i] = make([]float64, d)
				for j := range xs[i] {
					xs[i][j] = r.Normal(2, 1.5)
				}
			}
			want := refPosterior(prior, xs)
			got := prior.PosteriorWith(xs, scr)
			if got.Beta != want.Beta || got.Nu != want.Nu {
				t.Fatalf("d=%d n=%d: β/ν differ", d, n)
			}
			for i := range want.Mu0 {
				if got.Mu0[i] != want.Mu0[i] {
					t.Fatalf("d=%d n=%d: μ'[%d] %v != %v", d, n, i, got.Mu0[i], want.Mu0[i])
				}
			}
			if diff := maxAbsDiff(got.S, want.S); diff != 0 {
				t.Fatalf("d=%d n=%d: S' differs by %g", d, n, diff)
			}
		}
	}
}

func TestNWAccumPredictiveMatchesFullRefactorization(t *testing.T) {
	prior, xs := accumFixture(t)
	acc := NewNWAccum(prior)
	probes := [][]float64{{0.5, -1}, {3, 2}, {-2, -4}, {0, 0}}
	for i, x := range xs {
		acc.Add(x)
		st, err := prior.Posterior(xs[:i+1]).PredictiveT()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range probes {
			if d := math.Abs(acc.PredictiveLogPdf(p) - st.LogPdf(p)); d > 1e-10 {
				t.Fatalf("n=%d probe %v: factored predictive off by %g", i+1, p, d)
			}
		}
	}
	// And back down through Remove.
	for i := len(xs) - 1; i > 0; i-- {
		acc.Remove(xs[i])
		st, err := prior.Posterior(xs[:i]).PredictiveT()
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(acc.PredictiveLogPdf(probes[0]) - st.LogPdf(probes[0])); d > 1e-10 {
			t.Fatalf("after remove to n=%d: off by %g", i, d)
		}
	}
}

func TestNWAccumPredictiveAllocFree(t *testing.T) {
	prior, xs := accumFixture(t)
	acc := NewNWAccum(prior)
	for _, x := range xs {
		acc.Add(x)
	}
	probe := []float64{0.3, -1.2}
	acc.PredictiveLogPdf(probe) // build the cache once
	if n := testing.AllocsPerRun(100, func() {
		acc.PredictiveLogPdf(probe)
	}); n != 0 {
		t.Errorf("cached PredictiveLogPdf allocates %.1f/op, want 0", n)
	}
	// The Remove/eval×K/Add cycle of a collapsed sweep step: the lazy
	// rebuild itself must also be allocation-free.
	if n := testing.AllocsPerRun(100, func() {
		acc.Remove(xs[0])
		acc.PredictiveLogPdf(probe)
		acc.Add(xs[0])
		acc.PredictiveLogPdf(probe)
	}); n != 0 {
		t.Errorf("sweep-step cycle allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		acc.LogMarginalLikelihood()
	}); n != 0 {
		t.Errorf("LogMarginalLikelihood allocates %.1f/op, want 0", n)
	}
}

// Rank1Update rewrites the lower-triangular factor l of A in place into
// the factor of A + x·xᵀ using Givens rotations — O(d²) instead of the
// O(d³) refactorization. work is caller-provided scratch of length d
// (clobbered); x itself is not mutated.
func Rank1Update(l *Mat, x, work []float64) {
	l.assertSquare()
	n := l.R
	if len(x) != n || len(work) < n {
		panic("stats: dim mismatch in Rank1Update")
	}
	w := work[:n]
	copy(w, x)
	for k := 0; k < n; k++ {
		lkk := l.At(k, k)
		r := math.Hypot(lkk, w[k])
		c := r / lkk
		s := w[k] / lkk
		l.Set(k, k, r)
		for i := k + 1; i < n; i++ {
			v := (l.At(i, k) + s*w[i]) / c
			l.Set(i, k, v)
			w[i] = c*w[i] - s*v
		}
	}
}
