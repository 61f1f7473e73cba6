// Package core implements the paper's contribution: a joint topic
// model that couples a categorical distribution over sensory texture
// terms with Gaussian distributions over gel and emulsion ingredient
// concentrations, inferred by Gibbs sampling.
//
// Generative process (the paper's Figure 1 / equation (1)):
//
//	for each topic k ∈ 1..K:
//	    φ_k               ~ Dir(γ)                  texture-term distribution
//	    (μ_k, Λ_k)        ~ NW(μ₀ᵍ, βᵍ, νᵍ, Sᵍ)     gel-concentration component
//	    (m_k, L_k)        ~ NW(m₀ᵉ, βᵉ, νᵉ, Sᵉ)     emulsion component
//	for each recipe d ∈ 1..D:
//	    θ_d ~ Dir(α)
//	    for each texture token n ∈ 1..N_d:
//	        z_dn ~ Mult(θ_d);  w_dn ~ Mult(φ_{z_dn})
//	    y_d ~ Mult(θ_d)
//	    g_d ~ N(μ_{y_d}, Λ_{y_d}⁻¹)
//	    e_d ~ N(m_{y_d}, L_{y_d}⁻¹)
//
// θ is collapsed; z, y and the component parameters are sampled by the
// kernels of equations (2), (3) and (4). The concentration vectors g, e
// live in the paper's −log(x) information-quantity space.
package core

import (
	"fmt"

	"repro/internal/stats"
)

// Data is the model input: one entry per recipe.
type Data struct {
	V     int         // texture-term vocabulary size
	Words [][]int     // texture-term token IDs per recipe, values in [0,V)
	Gel   [][]float64 // gel features per recipe (−log space), equal dims
	Emu   [][]float64 // emulsion features per recipe (−log space), equal dims
}

// Validate checks structural consistency and returns the gel and
// emulsion dimensionalities.
func (d *Data) Validate() (gelDim, emuDim int, err error) {
	if d.V <= 0 {
		return 0, 0, fmt.Errorf("core: vocabulary size %d", d.V)
	}
	n := len(d.Words)
	if n == 0 {
		return 0, 0, fmt.Errorf("core: no documents")
	}
	if len(d.Gel) != n || len(d.Emu) != n {
		return 0, 0, fmt.Errorf("core: have %d docs but %d gel and %d emulsion vectors", n, len(d.Gel), len(d.Emu))
	}
	gelDim = len(d.Gel[0])
	emuDim = len(d.Emu[0])
	if gelDim == 0 || emuDim == 0 {
		return 0, 0, fmt.Errorf("core: zero-dimensional features")
	}
	for i := 0; i < n; i++ {
		if len(d.Gel[i]) != gelDim {
			return 0, 0, fmt.Errorf("core: doc %d gel dim %d, want %d", i, len(d.Gel[i]), gelDim)
		}
		if len(d.Emu[i]) != emuDim {
			return 0, 0, fmt.Errorf("core: doc %d emulsion dim %d, want %d", i, len(d.Emu[i]), emuDim)
		}
		for _, w := range d.Words[i] {
			if w < 0 || w >= d.V {
				return 0, 0, fmt.Errorf("core: doc %d has word ID %d outside [0,%d)", i, w, d.V)
			}
		}
	}
	return gelDim, emuDim, nil
}

// NumDocs returns the number of recipes.
func (d *Data) NumDocs() int { return len(d.Words) }

// Config controls inference.
type Config struct {
	K     int     // number of topics
	Alpha float64 // symmetric Dirichlet concentration of θ
	Gamma float64 // symmetric Dirichlet concentration of φ

	GelPrior *stats.NormalWishart // NW(μ₀ᵍ, βᵍ, νᵍ, Sᵍ)
	EmuPrior *stats.NormalWishart // NW(m₀ᵉ, βᵉ, νᵉ, Sᵉ)

	Iterations int // Gibbs sweeps
	BurnIn     int // sweeps before LearnAlpha starts re-estimating α

	// UseEmulsion includes the emulsion likelihood in the y kernel
	// (equation (3)). The paper's generative model includes it; turning
	// it off is the "gel-only" ablation.
	UseEmulsion bool

	// EmulsionWeight tempers the emulsion likelihood in the y kernel
	// (power posterior, exponent λ ∈ (0,1]). λ = 1 is the paper's exact
	// model. The paper notes gel concentrations "principally affect the
	// resulting texture with subordinate effects" of emulsions; recipes
	// in one texture population use several distinct emulsion styles, so
	// an untempered 6-dimensional emulsion Gaussian can out-vote the gel
	// and term channels and split topics by style. λ < 1 encodes the
	// subordinate role; BenchmarkAblationEmulsionWeight sweeps it.
	EmulsionWeight float64

	// Workers > 1 runs the exact parallel kernel (sweepParallel) on
	// this many goroutines: φ is drawn explicitly once per sweep, so the
	// recipes are sampled independently and the chain does not depend
	// on the worker count. 0 or 1 runs the sequential kernel, which
	// integrates φ out. Incompatible with Collapsed (whose sufficient
	// statistics are inherently sequential).
	Workers int

	// LearnAlpha re-estimates the symmetric Dirichlet concentration α
	// by Minka's fixed point after each post-burn-in sweep, instead of
	// keeping the configured value.
	LearnAlpha bool

	// RandomInit disables the default k-means++ seeding of the
	// concentration topics y and uses uniform random assignment instead
	// (the initialization ablation).
	RandomInit bool

	// Collapsed integrates the component parameters out of the y kernel
	// (Student-t predictive) instead of sampling them explicitly via
	// equation (4) — the collapsed-sampler ablation.
	Collapsed bool

	// Hooks is the sampler's telemetry sink (per-sweep timings,
	// log-likelihood, topic occupancy). The zero value disables it.
	Hooks SweepHooks

	// Health configures per-sweep numerical-health monitoring. The zero
	// value keeps only the always-on NaN/±Inf log-likelihood check; see
	// HealthPolicy for the opt-in classifiers. A violation aborts the
	// chain with a typed *HealthError instead of sampling onward from a
	// diverged state.
	Health HealthPolicy

	// CheckpointEvery, when positive together with a non-nil
	// CheckpointFunc, emits a Snapshot of the full sampler state every
	// that many completed sweeps. The snapshot is a deep copy taken
	// between sweeps — the chain's state never escapes mid-mutation —
	// so the func may hand it to a background writer and return
	// immediately; only a returned error stops the chain.
	CheckpointEvery int
	CheckpointFunc  func(*Snapshot) error

	Seed uint64
}

// DefaultConfig mirrors the paper's setup: K = 10 topics.
func DefaultConfig() Config {
	return Config{
		K:              10,
		Alpha:          0.5,
		Gamma:          0.1,
		Iterations:     300,
		BurnIn:         100,
		UseEmulsion:    true,
		EmulsionWeight: 1,
		Seed:           1,
	}
}

// EmpiricalPriors builds weakly-informative data-driven Normal-Wishart
// priors: the prior mean is the data mean, β is small so topic means
// move freely, ν = dim+2, and S is set so the prior expected precision
// E[Λ] = ν·S matches the inverse of the per-axis data variance. This
// is the standard empirical-Bayes initialization for Gaussian mixture
// components.
func EmpiricalPriors(data *Data) (gel, emu *stats.NormalWishart, err error) {
	gelDim, emuDim, err := data.Validate()
	if err != nil {
		return nil, nil, err
	}
	gel, err = empiricalPrior(data.Gel, gelDim)
	if err != nil {
		return nil, nil, fmt.Errorf("core: gel prior: %w", err)
	}
	emu, err = empiricalPrior(data.Emu, emuDim)
	if err != nil {
		return nil, nil, fmt.Errorf("core: emulsion prior: %w", err)
	}
	return gel, emu, nil
}

func empiricalPrior(xs [][]float64, dim int) (*stats.NormalWishart, error) {
	mean := stats.MeanVec(xs)
	nu := float64(dim) + 2
	s := stats.NewMat(dim, dim)
	for j := 0; j < dim; j++ {
		var v float64
		for _, x := range xs {
			d := x[j] - mean[j]
			v += d * d
		}
		v /= float64(len(xs))
		if v < 1e-4 {
			v = 1e-4 // constant axes (gel absent everywhere) still need spread
		}
		s.Set(j, j, 1/(v*nu))
	}
	return stats.NewNormalWishart(mean, 0.05, nu, s)
}
