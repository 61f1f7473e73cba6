package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// maxAbsDiff returns max |a−b| elementwise.
func maxAbsDiff(a, b *Mat) float64 {
	a.assertSameShape(b)
	d := 0.0
	for i := range a.Data {
		d = math.Max(d, math.Abs(a.Data[i]-b.Data[i]))
	}
	return d
}

func TestMatBasicOps(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {3, 4}})
	b := MatFromRows([][]float64{{5, 6}, {7, 8}})

	prod := a.Mul(b)
	want := MatFromRows([][]float64{{19, 22}, {43, 50}})
	if maxAbsDiff(prod, want) != 0 {
		t.Errorf("Mul = %v, want %v", prod, want)
	}

	if got := a.Scale(2).At(1, 1); got != 8 {
		t.Errorf("Scale(2)[1][1] = %g, want 8", got)
	}
	if got := a.Trace(); got != 5 {
		t.Errorf("Trace = %g, want 5", got)
	}
}

func TestMatTranspose(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.R != 3 || at.C != 2 {
		t.Fatalf("T dims = %d×%d, want 3×2", at.R, at.C)
	}
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatMulVec(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	v := a.MulVec([]float64{1, -1})
	want := []float64{-1, -1, -1}
	for i := range want {
		if v[i] != want[i] {
			t.Errorf("MulVec[%d] = %g, want %g", i, v[i], want[i])
		}
	}
}

func TestIdentityAndDiag(t *testing.T) {
	id := ScaledIdentity(3, 1)
	d := Diag([]float64{1, 1, 1})
	if maxAbsDiff(id, d) != 0 {
		t.Error("ScaledIdentity(3, 1) != Diag(ones)")
	}
	si := ScaledIdentity(2, 2.5)
	if si.At(0, 0) != 2.5 || si.At(0, 1) != 0 {
		t.Error("ScaledIdentity wrong")
	}
}

func TestOuterProduct(t *testing.T) {
	m := NewMat(2, 2)
	m.AddOuterScaled(2, []float64{1, 1}, []float64{1, 1})
	if m.At(0, 0) != 2 || m.At(1, 1) != 2 {
		t.Errorf("AddOuterScaled = %v", m)
	}
}

func TestVecHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
	if got := SumVec(a); got != 6 {
		t.Errorf("SumVec = %g, want 6", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %g, want 5", got)
	}
	s := SubVec(b, a)
	for _, x := range s {
		if x != 3 {
			t.Errorf("SubVec = %v", s)
		}
	}
	cl := CloneVec(a)
	cl[0] = 99
	if a[0] != 1 {
		t.Error("CloneVec aliases input")
	}
}

func TestSymmetrize(t *testing.T) {
	m := MatFromRows([][]float64{{1, 2}, {4, 1}})
	m.Symmetrize()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Errorf("Symmetrize = %v", m)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random small matrices.
func TestMulTransposeProperty(t *testing.T) {
	r := NewRNG(7, 1)
	f := func(seed uint8) bool {
		_ = seed
		a := randomMat(r, 3, 4)
		b := randomMat(r, 4, 2)
		lhs := a.Mul(b).T()
		rhs := b.T().Mul(a.T())
		return maxAbsDiff(lhs, rhs) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mul with mismatched dims should panic")
		}
	}()
	a := NewMat(2, 3)
	b := NewMat(2, 3)
	a.Mul(b)
}

func randomMat(r *RNG, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Normal(0, 1)
	}
	return m
}

func randomVec(r *RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Normal(0, 1)
	}
	return v
}

// randomSPD returns a random symmetric positive definite matrix.
func randomSPD(r *RNG, n int) *Mat {
	a := randomMat(r, n, n)
	spd := a.Mul(a.T())
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n))
	}
	return spd
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Mat {
	m := NewMat(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}
