package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/stats"
)

// Component is a fitted topic's Gaussian over a concentration space.
type Component struct {
	Mean      []float64
	Precision *stats.Mat
}

// Gaussian materializes the component density.
func (c Component) Gaussian() (*stats.Gaussian, error) {
	return stats.NewGaussian(c.Mean, stats.RegularizeSPD(c.Precision, 1e-10))
}

// Result is the fitted model: the point estimates of equation (5) plus
// the concentration components and per-recipe assignments.
type Result struct {
	K, V  int
	Phi   [][]float64 // K×V texture-term distributions
	Theta [][]float64 // D×K per-recipe topic distributions
	Y     []int       // concentration-topic assignment per recipe
	Gel   []Component // per-topic gel components
	Emu   []Component // per-topic emulsion components

	// Inference hyperparameters, retained so fold-in inference on new
	// recipes uses the same kernel.
	Alpha          float64
	Gamma          float64
	UseEmulsion    bool
	EmulsionWeight float64

	LogLik []float64 // per-sweep joint log-likelihood trace

	// TopicDocs holds the per-topic recipe counts of a model loaded
	// without its fit record (θ and Y), which DocsPerTopic reports in
	// place of counting θ. Nil for a fitted or fully loaded model.
	TopicDocs []int

	// FoldInHook, when non-nil, receives one FoldInStats per FoldInCtx
	// chain (completed or canceled). Install it before sharing the
	// Result across goroutines; concurrent fold-ins invoke it
	// concurrently, so the sink must be safe for concurrent use. It is
	// telemetry only and is not serialized.
	FoldInHook func(FoldInStats)

	// kernel caches the fold-in working set (per-topic Gaussians,
	// vocab-major φ). Built lazily by BuildKernel; never serialized.
	kernel atomic.Pointer[FoldInKernel]
}

// Estimate computes the point estimates of equation (5) from the
// current sampler state:
//
//	φ_kv = (N_kv + γ)/(N_k + γV)
//	θ_dk = (N_dk + M_dk + α)/(N_d + M_d + Σα)
//
// In collapsed mode the components are the posterior means given the
// current assignment; otherwise they are the current sampled values.
func (s *Sampler) Estimate() *Result {
	res := &Result{
		K:              s.cfg.K,
		V:              s.data.V,
		Alpha:          s.cfg.Alpha,
		Gamma:          s.cfg.Gamma,
		UseEmulsion:    s.cfg.UseEmulsion,
		EmulsionWeight: s.cfg.EmulsionWeight,
		LogLik:         append([]float64(nil), s.LogLik...),
		Y:              append([]int(nil), s.Y...),
	}
	res.Phi = make([][]float64, s.cfg.K)
	gv := s.cfg.Gamma * float64(s.data.V)
	for k := 0; k < s.cfg.K; k++ {
		res.Phi[k] = make([]float64, s.data.V)
	}
	// The counts are stored vocab-major; each φ_kv depends only on its
	// own count, so the traversal order is immaterial to the values.
	for w := 0; w < s.data.V; w++ {
		row := s.nwk[w]
		for k := 0; k < s.cfg.K; k++ {
			res.Phi[k][w] = (float64(row[k]) + s.cfg.Gamma) / (float64(s.nk[k]) + gv)
		}
	}
	res.Theta = make([][]float64, s.data.NumDocs())
	sumAlpha := s.cfg.Alpha * float64(s.cfg.K)
	for d := range s.data.Words {
		row := make([]float64, s.cfg.K)
		denom := float64(s.nd[d]) + 1 + sumAlpha // M_d = 1 concentration observation
		for k := 0; k < s.cfg.K; k++ {
			m := 0.0
			if s.Y[d] == k {
				m = 1
			}
			row[k] = (float64(s.ndk[d][k]) + m + s.cfg.Alpha) / denom
		}
		res.Theta[d] = row
	}

	// Components are reported as posterior means given the final
	// assignment, not the last random draw: a topic that happens to be
	// empty at the final sweep would otherwise report an arbitrary prior
	// sample (with β ≪ 1 its mean wanders far outside the data range),
	// which would poison the KL linkage downstream.
	members := s.membersByTopic()
	res.Gel = make([]Component, s.cfg.K)
	res.Emu = make([]Component, s.cfg.K)
	for k := 0; k < s.cfg.K; k++ {
		gxs := make([][]float64, len(members[k]))
		exs := make([][]float64, len(members[k]))
		for i, d := range members[k] {
			gxs[i] = s.data.Gel[d]
			exs[i] = s.data.Emu[d]
		}
		mu, lam := s.cfg.GelPrior.Posterior(gxs).MeanParams()
		res.Gel[k] = Component{Mean: mu, Precision: lam}
		m, l := s.cfg.EmuPrior.Posterior(exs).MeanParams()
		res.Emu[k] = Component{Mean: m, Precision: l}
	}
	return res
}

// Fit is the one-call API: build a sampler, run it, and return the
// estimates.
func Fit(data *Data, cfg Config) (*Result, error) {
	s, err := NewSampler(data, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Run(nil); err != nil {
		return nil, err
	}
	return s.Estimate(), nil
}

// Assign returns the topic of each recipe by maximum θ probability —
// the paper's rule for the "# Recipes" column of Table II(a).
func (r *Result) Assign() []int {
	out := make([]int, len(r.Theta))
	for d, row := range r.Theta {
		out[d] = stats.ArgMax(row)
	}
	return out
}

// DocsPerTopic counts recipes per topic under Assign, or returns a
// copy of TopicDocs for a model-only Result. A recipe whose arg-max is
// no topic (θ wider than K, in a malformed model) is not counted.
func (r *Result) DocsPerTopic() []int {
	if r.ModelOnly() {
		return slices.Clone(r.TopicDocs)
	}
	counts := make([]int, max(r.K, 0))
	for _, row := range r.Theta {
		if k := stats.ArgMax(row); k < len(counts) {
			counts[k]++
		}
	}
	return counts
}

// ModelOnly reports whether r was loaded without its fit record: it
// has no θ, and TopicDocs holds its per-topic recipe counts.
func (r *Result) ModelOnly() bool {
	return r.Theta == nil && r.TopicDocs != nil
}

// TermProb pairs a vocabulary index with its probability in a topic.
type TermProb struct {
	ID   int
	Prob float64
}

// TopTerms returns topic k's n most probable terms in decreasing
// probability.
func (r *Result) TopTerms(k, n int) []TermProb {
	if k < 0 || k >= r.K {
		panic(fmt.Sprintf("core: topic %d out of range", k))
	}
	idx := stats.TopK(r.Phi[k], n)
	out := make([]TermProb, len(idx))
	for i, id := range idx {
		out[i] = TermProb{ID: id, Prob: r.Phi[k][id]}
	}
	return out
}

// GelGaussian returns topic k's gel component as a density, for KL
// linkage against empirical settings.
func (r *Result) GelGaussian(k int) (*stats.Gaussian, error) {
	return r.Gel[k].Gaussian()
}

// EmuGaussian returns topic k's emulsion component as a density.
func (r *Result) EmuGaussian(k int) (*stats.Gaussian, error) {
	return r.Emu[k].Gaussian()
}
