// Package rheology provides the quantitative-texture side of the
// reproduction: the empirical measurements the paper collected from six
// food-science studies (Table I) and from the Bavarois / Milk jelly
// studies (Table II(b)), a texture predictor calibrated to those
// measurements, and a simulator of the two-compression texture profile
// analysis (TPA) curve a rheometer records (the paper's Figure 2),
// together with extraction of hardness, cohesiveness and adhesiveness
// from such curves.
//
// The paper's measurements come from physical rheometers; this package
// substitutes a calibrated simulator so that every downstream code path
// (linkage, case study, benches) can run without laboratory hardware,
// and so benches can sweep compositions the cited studies never
// measured.
package rheology

import (
	"fmt"

	"repro/internal/recipe"
)

// Attributes are the three quantitative texture attributes of the
// paper, in rheological units (RU).
type Attributes struct {
	Hardness     float64 `json:"hardness"`
	Cohesiveness float64 `json:"cohesiveness"`
	Adhesiveness float64 `json:"adhesiveness"`
}

// Measurement is one empirical setting: gel (and possibly emulsion)
// concentrations with the texture attributes measured for them.
type Measurement struct {
	ID        string                       `json:"id"`
	Source    string                       `json:"source"`
	Gels      [recipe.NumGels]float64      `json:"gels"`      // weight ratios
	Emulsions [recipe.NumEmulsions]float64 `json:"emulsions"` // weight ratios
	Attr      Attributes                   `json:"attr"`
}

// GelFeatures returns the gel setting in −log feature space, the space
// the topic model's Gaussians live in.
func (m Measurement) GelFeatures() []float64 {
	return recipe.FeatureVector(m.Gels[:])
}

// EmulsionFeatures returns the emulsion setting in −log feature space.
func (m Measurement) EmulsionFeatures() []float64 {
	return recipe.FeatureVector(m.Emulsions[:])
}

// String renders the measurement compactly.
func (m Measurement) String() string {
	return fmt.Sprintf("%s: gelatin=%.3f kanten=%.3f agar=%.3f → H=%.2f C=%.2f A=%.2f",
		m.ID, m.Gels[recipe.Gelatin], m.Gels[recipe.Kanten], m.Gels[recipe.Agar],
		m.Attr.Hardness, m.Attr.Cohesiveness, m.Attr.Adhesiveness)
}

// TableI reproduces the paper's Table I verbatim: 13 empirical gel
// settings from the six cited studies ([3]-[5],[15]-[17]) with their
// rheometer-measured attributes in RU. Note the paper's table numbers
// two consecutive rows "8"; we keep the conventional 1..13 numbering.
var TableI = []Measurement{
	{ID: "1", Source: "Kawamura & Takayanagi 1980", Gels: gels(0.018, 0, 0), Attr: Attributes{0.20, 0.6, 0.1}},
	{ID: "2", Source: "Kawamura & Takayanagi 1980", Gels: gels(0.02, 0, 0), Attr: Attributes{0.3, 0.59, 0.04}},
	{ID: "3", Source: "Kawamura, Nakajima & Kouno 1978", Gels: gels(0.025, 0, 0), Attr: Attributes{0.72, 0.17, 0.57}},
	{ID: "4", Source: "Kawamura, Nakajima & Kouno 1978", Gels: gels(0.03, 0, 0), Attr: Attributes{2.78, 0.31, 0.42}},
	{ID: "5", Source: "Kurimoto et al. 1997", Gels: gels(0.03, 0, 0.03), Attr: Attributes{3.01, 0.35, 12.6}},
	{ID: "6", Source: "Okuma, Akabane & Nakahama 1978", Gels: gels(0, 0.008, 0), Attr: Attributes{2.2, 0.12, 0}},
	{ID: "7", Source: "Okuma, Akabane & Nakahama 1978", Gels: gels(0, 0.01, 0), Attr: Attributes{3.5, 0.1, 0}},
	{ID: "8", Source: "Okuma, Akabane & Nakahama 1978", Gels: gels(0, 0.012, 0), Attr: Attributes{5.0, 0.8, 0}},
	{ID: "9", Source: "Okuma, Akabane & Nakahama 1978", Gels: gels(0, 0.02, 0), Attr: Attributes{5.67, 0.03, 0}},
	{ID: "10", Source: "Suzuno, Sawayama & Kawabata 1992", Gels: gels(0, 0, 0.008), Attr: Attributes{1.0, 0.48, 0}},
	{ID: "11", Source: "Suzuno, Sawayama & Kawabata 1992", Gels: gels(0, 0, 0.01), Attr: Attributes{1.5, 0.33, 0.01}},
	{ID: "12", Source: "Suzuno, Sawayama & Kawabata 1992", Gels: gels(0, 0, 0.012), Attr: Attributes{2.7, 0.28, 0.02}},
	{ID: "13", Source: "Murayama 1992", Gels: gels(0, 0, 0.03), Attr: Attributes{2.21, 0.20, 1.95}},
}

// Bavarois is the first dish of the paper's Table II(b) (Kawabata &
// Sawayama 1974): 2.5% gelatin with egg yolk, raw cream and milk.
var Bavarois = Measurement{
	ID:        "Bavarois",
	Source:    "Kawabata & Sawayama 1974",
	Gels:      gels(0.025, 0, 0),
	Emulsions: emulsions(0, 0, 0.08, 0.2, 0.4, 0),
	Attr:      Attributes{3.860, 0.809, 0.095},
}

// MilkJelly is the second dish of Table II(b) (Motegi 1975): 2.5%
// gelatin with sugar and milk.
var MilkJelly = Measurement{
	ID:        "Milk jelly",
	Source:    "Motegi 1975",
	Gels:      gels(0.025, 0, 0),
	Emulsions: emulsions(0.032, 0, 0, 0, 0.787, 0),
	Attr:      Attributes{1.83, 0.27, 0.44},
}

// PureGelatin25 is Table I data 3, the pure-gelatin reference the paper
// compares both dishes against (third row of Table II(b)).
var PureGelatin25 = TableI[2]

func gels(gelatin, kanten, agar float64) [recipe.NumGels]float64 {
	return [recipe.NumGels]float64{gelatin, kanten, agar}
}

func emulsions(sugar, albumen, yolk, cream, milk, yogurt float64) [recipe.NumEmulsions]float64 {
	return [recipe.NumEmulsions]float64{sugar, albumen, yolk, cream, milk, yogurt}
}
