package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, 0)
	b := NewRNG(42, 0)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43, 0)
	same := true
	a = NewRNG(42, 0)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical streams")
	}
}

func TestGammaMoments(t *testing.T) {
	r := NewRNG(1, 1)
	const n = 40000
	for _, tc := range []struct{ shape, scale float64 }{
		{0.5, 2.0}, {1.0, 1.0}, {3.5, 0.5}, {10, 2},
	} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Gamma(tc.shape, tc.scale)
		}
		wantMean := tc.shape * tc.scale
		wantVar := tc.shape * tc.scale * tc.scale
		if m := Mean(xs); math.Abs(m-wantMean) > 0.05*wantMean+0.02 {
			t.Errorf("Gamma(%g,%g) mean = %g, want ≈ %g", tc.shape, tc.scale, m, wantMean)
		}
		if v := Variance(xs); math.Abs(v-wantVar) > 0.1*wantVar+0.05 {
			t.Errorf("Gamma(%g,%g) var = %g, want ≈ %g", tc.shape, tc.scale, v, wantVar)
		}
	}
}

func TestChiSquaredMean(t *testing.T) {
	r := NewRNG(2, 1)
	const n, df = 20000, 7.0
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.ChiSquared(df)
	}
	if m := Mean(xs); math.Abs(m-df) > 0.15 {
		t.Errorf("χ²(%g) mean = %g", df, m)
	}
}

func TestBetaMoments(t *testing.T) {
	r := NewRNG(3, 1)
	const n = 20000
	a, b := 2.0, 5.0
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Beta(a, b)
	}
	want := a / (a + b)
	if m := Mean(xs); math.Abs(m-want) > 0.01 {
		t.Errorf("Beta(2,5) mean = %g, want %g", m, want)
	}
}

func TestDirichletProperties(t *testing.T) {
	r := NewRNG(4, 1)
	alpha := []float64{1, 2, 3}
	sums := make([]float64, 3)
	const n = 10000
	for i := 0; i < n; i++ {
		d := r.Dirichlet(alpha)
		s := SumVec(d)
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("Dirichlet sample sums to %g", s)
		}
		for j, v := range d {
			if v < 0 {
				t.Fatal("Dirichlet component negative")
			}
			sums[j] += v
		}
	}
	for j, want := range []float64{1.0 / 6, 2.0 / 6, 3.0 / 6} {
		if got := sums[j] / n; math.Abs(got-want) > 0.01 {
			t.Errorf("Dirichlet mean[%d] = %g, want %g", j, got, want)
		}
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	r := NewRNG(5, 1)
	w := []float64{1, 2, 7}
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.012 {
			t.Errorf("Categorical freq[%d] = %g, want %g", i, got, want)
		}
	}
}

func TestCategoricalLogAgreesWithLinear(t *testing.T) {
	r1 := NewRNG(6, 1)
	r2 := NewRNG(6, 1)
	w := []float64{0.5, 1.5, 3.0}
	logw := make([]float64, len(w))
	for i, x := range w {
		logw[i] = math.Log(x) - 500 // extreme offset must not matter
	}
	for i := 0; i < 1000; i++ {
		if r1.Categorical(w) != r2.CategoricalLog(logw) {
			t.Fatal("CategoricalLog diverges from Categorical under shared stream")
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	r := NewRNG(7, 1)
	for _, w := range [][]float64{{0, 0}, {-1, 2}, {math.NaN(), 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) should panic", w)
				}
			}()
			r.Categorical(w)
		}()
	}
}

func TestMVNormalMoments(t *testing.T) {
	r := NewRNG(8, 1)
	mu := []float64{1, -2}
	cov := MatFromRows([][]float64{{2, 0.5}, {0.5, 1}})
	const n = 30000
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = r.MVNormal(mu, cov)
	}
	m := MeanVec(xs)
	for i := range mu {
		if math.Abs(m[i]-mu[i]) > 0.05 {
			t.Errorf("MVNormal mean[%d] = %g, want %g", i, m[i], mu[i])
		}
	}
	c := CovMat(xs)
	if c.MaxAbsDiff(cov) > 0.08 {
		t.Errorf("MVNormal cov = %v, want %v", c, cov)
	}
}

func TestWishartMean(t *testing.T) {
	r := NewRNG(9, 1)
	scale := MatFromRows([][]float64{{0.5, 0.1}, {0.1, 0.3}})
	df := 6.0
	const n = 8000
	acc := NewMat(2, 2)
	for i := 0; i < n; i++ {
		acc.AddInPlace(r.Wishart(df, scale))
	}
	mean := acc.Scale(1.0 / n)
	want := scale.Scale(df)
	if mean.MaxAbsDiff(want) > 0.12 {
		t.Errorf("Wishart mean = %v, want %v", mean, want)
	}
}

func TestWishartSamplesArePD(t *testing.T) {
	r := NewRNG(10, 1)
	scale := Identity(3).Scale(0.2)
	for i := 0; i < 200; i++ {
		w := r.Wishart(5, scale)
		if _, err := NewCholesky(w); err != nil {
			t.Fatalf("Wishart sample %d not PD: %v", i, err)
		}
	}
}

// Dirichlet returns a sample from Dir(alpha).
func (r *RNG) Dirichlet(alpha []float64) []float64 {
	out := make([]float64, len(alpha))
	s := 0.0
	for i, a := range alpha {
		out[i] = r.Gamma(a, 1)
		s += out[i]
	}
	if s == 0 {
		// Extremely sparse draw underflowed; fall back to uniform.
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= s
	}
	return out
}

// DirichletSym returns a sample from a symmetric Dirichlet with
// concentration a in k dimensions.
func (r *RNG) DirichletSym(a float64, k int) []float64 {
	alpha := make([]float64, k)
	for i := range alpha {
		alpha[i] = a
	}
	return r.Dirichlet(alpha)
}
