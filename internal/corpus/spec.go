// Package corpus generates a synthetic recipe-sharing-site corpus that
// substitutes for the paper's Cookpad crawl.
//
// The generator is calibrated to everything the paper reports about its
// data: ten latent dish populations whose gel types, concentrations,
// texture-term distributions and sizes follow Table II(a); quantities
// written in the heterogeneous units of real recipe posts; emulsion
// profiles whose effect on texture follows the calibrated rheology
// model (so the Bavarois / Milk jelly case study has signal to find);
// and nut/granola topping confounds that attach non-gel texture terms
// to gel recipes — the targets of the paper's word2vec filter.
//
// Because the corpus is generated, each recipe carries its hidden topic
// label, letting the evaluation score topic recovery, which the paper
// could not do.
package corpus

import "repro/internal/recipe"

// WeightedTerm is a texture term (romaji key into the lexicon) with
// its probability inside a topic.
type WeightedTerm struct {
	Romaji string
	Prob   float64
}

// EmulsionStyle is one emulsion usage pattern with mean concentrations
// (weight ratios) per emulsion axis.
type EmulsionStyle struct {
	Name string
	Conc [recipe.NumEmulsions]float64
	Prob float64
}

// TopicSpec is the ground truth for one latent dish population.
type TopicSpec struct {
	ID   int
	Name string
	Gels [recipe.NumGels]float64 // mean concentration per gel
	// JitterScale multiplies the corpus-level gel jitter σ for this
	// topic; 0 means 1. The firm-dessert population doses its gelatin
	// widely (roughly 2.5%-8%), matching the paper's assignment of the
	// 2.5% and 3% empirical rows to the 5.4% topic.
	JitterScale float64
	Terms       []WeightedTerm  // base term distribution (sums to ~1)
	Recipes     int             // population size at Scale=1
	Styles      []EmulsionStyle // emulsion usage patterns
	TableIRef   []string        // Table I rows the paper assigns (documentation)
}

// plainStyle has no emulsions.
func plainStyle(p float64) EmulsionStyle { return EmulsionStyle{Name: "plain", Prob: p} }

func emu(sugar, albumen, yolk, cream, milk, yogurt float64) [recipe.NumEmulsions]float64 {
	return [recipe.NumEmulsions]float64{sugar, albumen, yolk, cream, milk, yogurt}
}

// Topics is the ground-truth topic table, Table II(a) of the paper.
// Texture terms and probabilities are the paper's own for topics
// 8,3,5,2,6,1,9; the term cells of topics 7,4,0 and the recipe counts
// of topics 8,2,9 are unreadable in our source and filled with
// plausible values flagged in EXPERIMENTS.md.
var Topics = []TopicSpec{
	{
		ID: 7, Name: "melting gelatin dessert",
		Gels:    [recipe.NumGels]float64{0.005, 0, 0},
		Terms:   []WeightedTerm{{"torotoro", 0.60}, {"toron", 0.25}, {"tokeru", 0.15}},
		Recipes: 73,
		Styles: []EmulsionStyle{
			plainStyle(0.4),
			{Name: "milk", Conc: emu(0.05, 0, 0, 0, 0.4, 0), Prob: 0.4},
			{Name: "cream", Conc: emu(0.06, 0, 0, 0.15, 0.2, 0), Prob: 0.2},
		},
	},
	{
		ID: 4, Name: "barely-set gelatin jelly",
		Gels:    [recipe.NumGels]float64{0.007, 0, 0},
		Terms:   []WeightedTerm{{"purun", 0.50}, {"tsurun", 0.30}, {"nameraka", 0.20}},
		Recipes: 74,
		Styles: []EmulsionStyle{
			plainStyle(0.5),
			{Name: "juice-sweet", Conc: emu(0.08, 0, 0, 0, 0, 0), Prob: 0.3},
			{Name: "milk", Conc: emu(0.05, 0, 0, 0, 0.3, 0), Prob: 0.2},
		},
	},
	{
		ID: 0, Name: "smooth gelatin jelly",
		Gels:    [recipe.NumGels]float64{0.012, 0, 0},
		Terms:   []WeightedTerm{{"tsurutsuru", 0.45}, {"nodogoshi-ga-yoi", 0.30}, {"nameraka", 0.25}},
		Recipes: 152,
		Styles: []EmulsionStyle{
			plainStyle(0.45),
			{Name: "sweet", Conc: emu(0.09, 0, 0, 0, 0, 0), Prob: 0.35},
			{Name: "yogurt", Conc: emu(0.06, 0, 0, 0, 0.1, 0.2), Prob: 0.2},
		},
	},
	{
		ID: 8, Name: "soft wobbly gelatin jelly",
		Gels:      [recipe.NumGels]float64{0.014, 0, 0},
		Terms:     []WeightedTerm{{"furufuru", 1.0}},
		Recipes:   120, // unreadable in source; fills the ~3,000 total
		TableIRef: []string{"1", "2"},
		Styles: []EmulsionStyle{
			plainStyle(0.5),
			{Name: "sweet", Conc: emu(0.08, 0, 0, 0, 0, 0), Prob: 0.3},
			{Name: "milk", Conc: emu(0.05, 0, 0, 0, 0.35, 0), Prob: 0.2},
		},
	},
	{
		ID: 3, Name: "firm rich gelatin dessert",
		Gels:        [recipe.NumGels]float64{0.054, 0, 0},
		JitterScale: 3,
		Terms: []WeightedTerm{
			{"katai", 0.307}, {"muchimuchi", 0.245}, {"guchat", 0.129},
			{"potteri", 0.089}, {"burunburun", 0.062}, {"bosoboso", 0.060},
			{"botet", 0.055}, {"shakushaku", 0.029}, {"buruburu", 0.022},
		},
		Recipes:   38,
		TableIRef: []string{"3", "4"},
		Styles: []EmulsionStyle{
			plainStyle(0.25),
			// Bavarois-like: yolk + cream + milk.
			{Name: "bavarois", Conc: emu(0, 0, 0.08, 0.2, 0.4, 0), Prob: 0.3},
			// Milk-jelly-like: sugar + lots of milk.
			{Name: "milkjelly", Conc: emu(0.032, 0, 0, 0, 0.787, 0), Prob: 0.3},
			{Name: "mousse", Conc: emu(0.05, 0.1, 0, 0.25, 0.1, 0), Prob: 0.15},
		},
	},
	{
		ID: 5, Name: "standard purupuru jelly (agar+gelatin)",
		Gels:      [recipe.NumGels]float64{0.009, 0, 0.009},
		Terms:     []WeightedTerm{{"purupuru", 1.0}},
		Recipes:   1046,
		TableIRef: []string{"5"},
		Styles: []EmulsionStyle{
			plainStyle(0.4),
			{Name: "sweet", Conc: emu(0.1, 0, 0, 0, 0, 0), Prob: 0.35},
			{Name: "milk", Conc: emu(0.06, 0, 0, 0, 0.3, 0), Prob: 0.25},
		},
	},
	{
		ID: 2, Name: "dense agar sweets",
		Gels: [recipe.NumGels]float64{0, 0, 0.016},
		Terms: []WeightedTerm{
			{"nettori", 0.445}, {"purit", 0.255}, {"mottari", 0.210},
			{"horohoro", 0.080}, {"necchiri", 0.010},
		},
		Recipes:   130, // unreadable in source
		TableIRef: []string{"10", "11", "12", "13"},
		Styles: []EmulsionStyle{
			plainStyle(0.35),
			{Name: "anmitsu-sweet", Conc: emu(0.12, 0, 0, 0, 0, 0), Prob: 0.45},
			{Name: "milk", Conc: emu(0.08, 0, 0, 0, 0.25, 0), Prob: 0.2},
		},
	},
	{
		ID: 6, Name: "airy mousse with a touch of gel",
		Gels:    [recipe.NumGels]float64{0.003, 0.002, 0},
		Terms:   []WeightedTerm{{"fuwafuwa", 1.0}},
		Recipes: 1200,
		Styles: []EmulsionStyle{
			{Name: "mousse", Conc: emu(0.08, 0.12, 0, 0.2, 0.1, 0), Prob: 0.5},
			{Name: "yogurt-mousse", Conc: emu(0.07, 0, 0, 0.1, 0.1, 0.25), Prob: 0.3},
			{Name: "milk", Conc: emu(0.06, 0, 0, 0, 0.4, 0), Prob: 0.2},
		},
	},
	{
		ID: 1, Name: "loose kanten",
		Gels: [recipe.NumGels]float64{0, 0.004, 0},
		Terms: []WeightedTerm{
			{"yuruyuru", 0.487}, {"bechat", 0.432}, {"fukafuka", 0.027}, {"burit", 0.027},
		},
		Recipes: 60,
		Styles: []EmulsionStyle{
			plainStyle(0.5),
			{Name: "sweet", Conc: emu(0.07, 0, 0, 0, 0, 0), Prob: 0.3},
			{Name: "milk-kanten", Conc: emu(0.06, 0, 0, 0, 0.3, 0), Prob: 0.2},
		},
	},
	{
		ID: 9, Name: "firm dense kanten",
		Gels: [recipe.NumGels]float64{0, 0.021, 0},
		Terms: []WeightedTerm{
			{"dossiri", 0.270}, {"churuchuru", 0.165}, {"punipuni", 0.100},
			{"kutat", 0.074}, {"burinburin", 0.069}, {"korit", 0.064},
			{"daradara", 0.057}, {"karat", 0.055}, {"hajikeru", 0.055}, {"omoi", 0.054},
		},
		Recipes:   110, // unreadable in source
		TableIRef: []string{"6", "7", "8", "9"},
		Styles: []EmulsionStyle{
			plainStyle(0.45),
			{Name: "anko-sweet", Conc: emu(0.1, 0, 0, 0, 0, 0), Prob: 0.35},
			{Name: "milk-kanten", Conc: emu(0.07, 0, 0, 0, 0.3, 0), Prob: 0.2},
		},
	},
}

// TotalRecipes is the corpus size at Scale=1, ≈3,000 as in the paper.
func TotalRecipes() int {
	n := 0
	for _, t := range Topics {
		n += t.Recipes
	}
	return n
}
