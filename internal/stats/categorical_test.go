package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	p := Normalize([]float64{1, 3})
	if p[0] != 0.25 || p[1] != 0.75 {
		t.Errorf("Normalize = %v", p)
	}
	defer func() {
		if recover() == nil {
			t.Error("Normalize of zeros should panic")
		}
	}()
	Normalize([]float64{0, 0})
}

func TestNormalizeSmoothed(t *testing.T) {
	p := NormalizeSmoothed([]float64{0, 0, 0}, 1)
	for _, x := range p {
		if math.Abs(x-1.0/3) > 1e-12 {
			t.Errorf("NormalizeSmoothed = %v", p)
		}
	}
	if s := SumVec(NormalizeSmoothed([]float64{0.2, 0, 0.8}, 1e-6)); math.Abs(s-1) > 1e-12 {
		t.Errorf("sum = %g", s)
	}
}

func TestKLCategoricalProperties(t *testing.T) {
	r := NewRNG(50, 1)
	f := func(seed uint8) bool {
		_ = seed
		p := r.DirichletSym(1, 4)
		q := r.DirichletSym(1, 4)
		kl := KLCategorical(p, q)
		return kl >= -1e-12 && math.Abs(KLCategorical(p, p)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKLCategoricalEdgeCases(t *testing.T) {
	// p has support where q doesn't → +Inf.
	if !math.IsInf(KLCategorical([]float64{0.5, 0.5}, []float64{1, 0}), 1) {
		t.Error("want +Inf when q lacks support")
	}
	// p_i = 0 contributes nothing.
	got := KLCategorical([]float64{0, 1}, []float64{0.5, 0.5})
	if want := math.Log(2); math.Abs(got-want) > 1e-12 {
		t.Errorf("KL = %g, want %g", got, want)
	}
}

func TestArgMaxMin(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5}
	if ArgMax(v) != 4 {
		t.Error("ArgMax wrong")
	}
}

func TestTopK(t *testing.T) {
	v := []float64{0.1, 0.5, 0.3, 0.5}
	top := TopK(v, 3)
	if len(top) != 3 || top[0] != 1 || top[1] != 3 || top[2] != 2 {
		t.Errorf("TopK = %v", top)
	}
	if got := TopK(v, 10); len(got) != 4 {
		t.Errorf("TopK should clamp k, got %v", got)
	}
}
