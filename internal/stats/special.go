package stats

import "math"

// LGamma returns log Γ(x) for x > 0.
func LGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// MvLGamma returns the log multivariate gamma function log Γ_p(x),
// defined for x > (p−1)/2.
func MvLGamma(p int, x float64) float64 {
	out := float64(p*(p-1)) / 4 * math.Log(math.Pi)
	for j := 1; j <= p; j++ {
		out += LGamma(x + float64(1-j)/2)
	}
	return out
}

// Digamma returns ψ(x), the derivative of log Γ, for x > 0.
func Digamma(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	out := 0.0
	for x < 12 {
		out -= 1 / x
		x++
	}
	// Asymptotic expansion.
	inv := 1 / x
	inv2 := inv * inv
	out += math.Log(x) - 0.5*inv -
		inv2*(1.0/12-inv2*(1.0/120-inv2*(1.0/252-inv2/240)))
	return out
}

// Sigmoid returns 1/(1+exp(−x)).
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
