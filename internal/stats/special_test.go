package stats

import (
	"math"
	"testing"
)

func TestLGamma(t *testing.T) {
	// Γ(5) = 24.
	if got := LGamma(5); math.Abs(got-math.Log(24)) > 1e-12 {
		t.Errorf("LGamma(5) = %g", got)
	}
	// Γ(0.5) = √π.
	if got := LGamma(0.5); math.Abs(got-0.5*math.Log(math.Pi)) > 1e-12 {
		t.Errorf("LGamma(0.5) = %g", got)
	}
}

func TestMvLGammaReducesTo1D(t *testing.T) {
	for _, x := range []float64{0.7, 1.5, 4.2} {
		if got, want := MvLGamma(1, x), LGamma(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("MvLGamma(1,%g) = %g, want %g", x, got, want)
		}
	}
}

func TestMvLGammaRecurrence(t *testing.T) {
	// Γ_2(x) = √π · Γ(x) · Γ(x − 1/2)
	x := 3.0
	got := MvLGamma(2, x)
	want := 0.5*math.Log(math.Pi) + LGamma(x) + LGamma(x-0.5)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("MvLGamma(2,3) = %g, want %g", got, want)
	}
}

func TestDigamma(t *testing.T) {
	const gamma = 0.5772156649015329 // Euler–Mascheroni
	if got := Digamma(1); math.Abs(got+gamma) > 1e-10 {
		t.Errorf("ψ(1) = %g, want %g", got, -gamma)
	}
	// Recurrence ψ(x+1) = ψ(x) + 1/x.
	for _, x := range []float64{0.3, 1.7, 5.5} {
		if d := Digamma(x+1) - Digamma(x) - 1/x; math.Abs(d) > 1e-9 {
			t.Errorf("ψ recurrence at %g off by %g", x, d)
		}
	}
	if !math.IsNaN(Digamma(-1)) {
		t.Error("ψ of non-positive should be NaN")
	}
}

func TestSigmoidAndLog1pExp(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Errorf("Sigmoid(0) = %g", got)
	}
	if got := Sigmoid(100); got < 0.999999 {
		t.Errorf("Sigmoid(100) = %g", got)
	}
	if got := Sigmoid(-100); got > 1e-6 {
		t.Errorf("Sigmoid(-100) = %g", got)
	}
}
