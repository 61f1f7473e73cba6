package core

import "repro/internal/stats"

// updateAlpha performs one Minka fixed-point update of the symmetric
// Dirichlet concentration α given the current topic-count statistics
// (Minka 2000, "Estimating a Dirichlet distribution", eq. 55):
//
//	α ← α · Σ_d Σ_k [ψ(n_dk + α) − ψ(α)] / (K · Σ_d [ψ(n_d + Kα) − ψ(Kα)])
//
// where n_dk includes the concentration observation (M_dk) exactly as
// in the sampler's kernels, and n_d = N_d + 1 accordingly.
func (s *Sampler) updateAlpha() {
	k := float64(s.cfg.K)
	alpha := s.cfg.Alpha
	num, den := 0.0, 0.0
	for d := range s.data.Words {
		for t := 0; t < s.cfg.K; t++ {
			n := float64(s.ndk[d][t])
			if s.Y[d] == t {
				n++
			}
			if n > 0 {
				num += stats.Digamma(n+alpha) - stats.Digamma(alpha)
			}
		}
		nd := float64(s.nd[d]) + 1
		den += stats.Digamma(nd+k*alpha) - stats.Digamma(k*alpha)
	}
	if den <= 0 || num <= 0 {
		return
	}
	next := alpha * num / (k * den)
	// Clamp to a sane range; the fixed point can oscillate early in the
	// chain when counts are still random.
	if next < 1e-3 {
		next = 1e-3
	}
	if next > 10 {
		next = 10
	}
	s.cfg.Alpha = next
}
