package recipe

// FilterConfig holds the dataset inclusion rules of the paper's
// Section IV.A.
type FilterConfig struct {
	// MaxUnrelatedFraction excludes recipes whose solid, gel-unrelated
	// ingredients exceed this weight share. The paper uses 0.10.
	MaxUnrelatedFraction float64
	// RequireGel excludes recipes without any gel ingredient.
	RequireGel bool
	// RequireTexture excludes recipes whose description carries no
	// dictionary texture term. The check is delegated: HasTexture is
	// called with the recipe and must report whether terms were found,
	// keeping this package independent of the lexicon.
	RequireTexture bool
	HasTexture     func(*Recipe) bool
}

// FilterStats reports why recipes were dropped.
type FilterStats struct {
	Input        int
	Kept         int
	NoGel        int
	NoTexture    int
	TooUnrelated int
}

// Admit applies the config to one resolved recipe, tallying the drop
// reason (and Input) into stats. The record-at-a-time form of Filter,
// for streaming ingestion that never holds the corpus in memory.
func (cfg FilterConfig) Admit(r *Recipe, stats *FilterStats) bool {
	stats.Input++
	switch {
	case cfg.RequireGel && !r.HasGel():
		stats.NoGel++
	case cfg.RequireTexture && cfg.HasTexture != nil && !cfg.HasTexture(r):
		stats.NoTexture++
	case cfg.MaxUnrelatedFraction > 0 && r.UnrelatedFraction() > cfg.MaxUnrelatedFraction:
		stats.TooUnrelated++
	default:
		stats.Kept++
		return true
	}
	return false
}

// Filter applies the config and returns the surviving recipes along
// with drop statistics. Recipes must be resolved first.
func Filter(recipes []*Recipe, cfg FilterConfig) ([]*Recipe, FilterStats) {
	var stats FilterStats
	var kept []*Recipe
	for _, r := range recipes {
		if cfg.Admit(r, &stats) {
			kept = append(kept, r)
		}
	}
	return kept, stats
}
