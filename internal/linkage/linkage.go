// Package linkage connects fitted topics to empirical rheology: it
// assigns each food-science measurement to its most similar topic by
// KL divergence over gel concentrations (the paper's Section III.C.4),
// validates the resulting term↔attribute linkages against the
// dictionary's category annotations, and builds the paper's Figure 3
// histograms and Figure 4 scatter for the emulsion-mixture case study.
package linkage

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/lexicon"
	"repro/internal/rheology"
	"repro/internal/stats"
)

// Config controls topic assignment.
type Config struct {
	// SettingSigma is the standard deviation (in −log concentration
	// space) of the narrow Gaussian that represents a point empirical
	// setting when computing KL against a topic's gel component. The
	// paper applies KL between the setting and the topic but leaves the
	// point-vs-distribution detail open; a fixed small σ is the natural
	// reading and BenchmarkAblationEpsilon sweeps it.
	SettingSigma float64

	// MinTopicFraction excludes topics holding fewer than this fraction
	// of the recipes (by argmax θ) from assignment: the paper's Table
	// II(a) only lists acquired topics, and a residual near-empty
	// component's wide posterior would otherwise attract outlying
	// settings.
	MinTopicFraction float64
}

// DefaultConfig mirrors the reproduction's standard settings.
func DefaultConfig() Config { return Config{SettingSigma: 0.15, MinTopicFraction: 0.01} }

// Assignment links one measurement to its most similar topic.
type Assignment struct {
	Measurement rheology.Measurement
	Topic       int
	Divergence  float64   // KL(setting ‖ topic)
	PerTopic    []float64 // divergence against every topic
}

// AssignMeasurements finds, for each empirical measurement, the topic
// whose gel component is closest in KL divergence.
func AssignMeasurements(res *core.Result, ms []rheology.Measurement, cfg Config) ([]Assignment, error) {
	if cfg.SettingSigma <= 0 {
		return nil, fmt.Errorf("linkage: setting σ must be positive")
	}
	counts := res.DocsPerTopic()
	total := 0
	for _, c := range counts {
		total += c
	}
	topics := make([]*stats.Gaussian, res.K)
	for k := 0; k < res.K; k++ {
		if total > 0 && float64(counts[k]) < cfg.MinTopicFraction*float64(total) {
			continue // near-empty topic: not part of the acquired table
		}
		g, err := res.GelGaussian(k)
		if err != nil {
			return nil, fmt.Errorf("linkage: topic %d: %w", k, err)
		}
		topics[k] = g
	}
	out := make([]Assignment, 0, len(ms))
	for _, m := range ms {
		feat := m.GelFeatures()
		prec := stats.ScaledIdentity(len(feat), 1/(cfg.SettingSigma*cfg.SettingSigma))
		setting, err := stats.NewGaussian(feat, prec)
		if err != nil {
			return nil, fmt.Errorf("linkage: measurement %s: %w", m.ID, err)
		}
		a := Assignment{Measurement: m, Topic: -1, PerTopic: make([]float64, res.K)}
		for k, tg := range topics {
			if tg == nil {
				a.PerTopic[k] = math.Inf(1)
				continue
			}
			d := stats.KLGaussian(setting, tg)
			a.PerTopic[k] = d
			if a.Topic < 0 || d < a.Divergence {
				a.Topic = k
				a.Divergence = d
			}
		}
		if a.Topic < 0 {
			return nil, fmt.Errorf("linkage: no eligible topics (min fraction %g)", cfg.MinTopicFraction)
		}
		out = append(out, a)
	}
	return out, nil
}

// TopicAxisScore is the φ-weighted mean annotation score of a topic's
// terms on one rheological axis, using the dictionary annotations. The
// model vocabulary must be dictionary term IDs.
func TopicAxisScore(res *core.Result, dict *lexicon.Dictionary, k int, axis lexicon.Axis) float64 {
	s := 0.0
	for v, p := range res.Phi[k] {
		s += p * dict.Term(v).Score(axis)
	}
	return s
}

// Validation reports how well the linked topics' term annotations
// track the measured attributes — the paper's Texture Profile check.
type Validation struct {
	Assignments []Assignment
	// Spearman rank correlation, across assignments, between the
	// measured attribute and the linked topic's term-annotation score on
	// that axis.
	Spearman map[lexicon.Axis]float64
}

// Validate computes the Texture Profile consistency of a set of
// assignments.
func Validate(res *core.Result, dict *lexicon.Dictionary, assignments []Assignment) Validation {
	val := Validation{Assignments: assignments, Spearman: make(map[lexicon.Axis]float64)}
	for _, axis := range []lexicon.Axis{lexicon.Hardness, lexicon.Cohesiveness, lexicon.Adhesiveness} {
		measured := make([]float64, len(assignments))
		scored := make([]float64, len(assignments))
		for i, a := range assignments {
			switch axis {
			case lexicon.Hardness:
				measured[i] = a.Measurement.Attr.Hardness
			case lexicon.Cohesiveness:
				measured[i] = a.Measurement.Attr.Cohesiveness
			default:
				measured[i] = a.Measurement.Attr.Adhesiveness
			}
			scored[i] = TopicAxisScore(res, dict, a.Topic, axis)
		}
		val.Spearman[axis] = stats.SpearmanCorr(measured, scored)
	}
	return val
}

// TopicMeanConcentrations converts topic k's gel component mean back
// from −log feature space to concentration ratios, reporting only the
// gels whose mean concentration exceeds the floor (absent gels sit at
// the ε feature).
func TopicMeanConcentrations(res *core.Result, k int, floor float64) map[int]float64 {
	out := make(map[int]float64)
	for i, f := range res.Gel[k].Mean {
		c := concFromFeature(f)
		if c >= floor {
			out[i] = c
		}
	}
	return out
}

func concFromFeature(f float64) float64 {
	// Inverse of the −log transform.
	return exp(-f)
}
