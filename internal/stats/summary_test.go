package stats

import (
	"math"
	"testing"
)

func TestMeanVarianceStdDev(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(v); got != 5 {
		t.Errorf("Mean = %g", got)
	}
	// Sample variance with n-1: 32/7.
	if got, want := Variance(v), 32.0/7; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %g, want %g", got, want)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs")
	}
}

func TestMeanVecCovMat(t *testing.T) {
	xs := [][]float64{{1, 0}, {3, 4}}
	m := MeanVec(xs)
	if m[0] != 2 || m[1] != 2 {
		t.Errorf("MeanVec = %v", m)
	}
	c := CovMat(xs)
	// cov (n-1 denominator): [[2,4],[4,8]]
	want := MatFromRows([][]float64{{2, 4}, {4, 8}})
	if maxAbsDiff(c, want) > 1e-12 {
		t.Errorf("CovMat = %v, want %v", c, want)
	}
}

func TestPearsonSpearman(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := PearsonCorr(x, y); math.Abs(got-1) > 1e-12 {
		t.Errorf("Pearson = %g", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := PearsonCorr(x, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("Pearson = %g", got)
	}
	// Spearman is invariant to monotone transforms.
	ymono := []float64{1, 8, 27, 64, 125}
	if got := SpearmanCorr(x, ymono); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman = %g", got)
	}
	if !math.IsNaN(PearsonCorr(x, []float64{1, 1, 1, 1, 1})) {
		t.Error("constant series should give NaN")
	}
}

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("Ranks = %v, want %v", r, want)
			break
		}
	}
}

// CovMat returns the unbiased sample covariance matrix of the rows xs.
func CovMat(xs [][]float64) *Mat {
	n := len(xs)
	if n == 0 {
		return nil
	}
	d := len(xs[0])
	m := MeanVec(xs)
	cov := NewMat(d, d)
	for _, x := range xs {
		diff := SubVec(x, m)
		cov.AddOuterScaled(1, diff, diff)
	}
	if n > 1 {
		for i := range cov.Data {
			cov.Data[i] /= float64(n - 1)
		}
	}
	return cov
}
