package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestCholeskyKnown(t *testing.T) {
	a := MatFromRows([][]float64{{4, 2}, {2, 3}})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// L = [[2,0],[1,sqrt(2)]]
	if math.Abs(c.L.At(0, 0)-2) > 1e-12 ||
		math.Abs(c.L.At(1, 0)-1) > 1e-12 ||
		math.Abs(c.L.At(1, 1)-math.Sqrt2) > 1e-12 {
		t.Errorf("L = %v", c.L)
	}
	if got, want := c.LogDet(), math.Log(8); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogDet = %g, want %g", got, want)
	}
}

func TestCholeskyReconstructionProperty(t *testing.T) {
	r := NewRNG(11, 1)
	f := func(seed uint8) bool {
		_ = seed
		a := randomSPD(r, 4)
		c, err := NewCholesky(a)
		if err != nil {
			return false
		}
		recon := c.L.Mul(c.L.T())
		return maxAbsDiff(recon, a) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCholeskySolveProperty(t *testing.T) {
	r := NewRNG(12, 1)
	f := func(seed uint8) bool {
		_ = seed
		a := randomSPD(r, 3)
		b := randomVec(r, 3)
		c := MustCholesky(a)
		x := c.SolveVec(b)
		ax := a.MulVec(x)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyInverse(t *testing.T) {
	r := NewRNG(13, 1)
	a := randomSPD(r, 3)
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := a.Mul(inv)
	if maxAbsDiff(prod, ScaledIdentity(3, 1)) > 1e-9 {
		t.Errorf("A·A⁻¹ = %v", prod)
	}
}

func TestCholeskyHalfQuadratic(t *testing.T) {
	r := NewRNG(14, 1)
	a := randomSPD(r, 3)
	x := randomVec(r, 3)
	c := MustCholesky(a)
	got := c.HalfQuadratic(x)
	want := Dot(x, c.Inverse().MulVec(x))
	if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
		t.Errorf("HalfQuadratic = %g, want %g", got, want)
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	_, err := NewCholesky(a)
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestRegularizeSPD(t *testing.T) {
	a := MatFromRows([][]float64{{1, 1}, {1, 1}}) // singular
	fixed := RegularizeSPD(a, 1e-8)
	if _, err := NewCholesky(fixed); err != nil {
		t.Errorf("RegularizeSPD output not PD: %v", err)
	}
	// Input must be untouched.
	if a.At(0, 0) != 1 {
		t.Error("RegularizeSPD mutated its input")
	}
}

func TestLogDetSPD(t *testing.T) {
	got, err := LogDetSPD(Diag([]float64{2, 3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Log(24); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogDetSPD = %g, want %g", got, want)
	}
}
