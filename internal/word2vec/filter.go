package word2vec

// FilterResult reports the outcome of the gel-relatedness filter for
// one texture term.
type FilterResult struct {
	Term      string
	Excluded  bool
	Offending []string // unrelated ingredient words found among neighbours
}

// Filter applies the paper's exclusion rule: for each texture term,
// inspect its topK nearest neighbours in the embedding space; if any
// neighbour (with similarity at least minSim) is an ingredient word
// unrelated to gels, the term is excluded. A mousse recipe topped with
// nuts may say さくさく, but that describes the nuts — and in the
// embedding, さくさく sits next to ナッツ.
//
// Terms missing from the vocabulary are kept (no evidence against
// them).
func Filter(m *Model, terms []string, unrelatedIngredients []string, topK int, minSim float64) []FilterResult {
	unrelated := make(map[string]bool, len(unrelatedIngredients))
	for _, w := range unrelatedIngredients {
		unrelated[w] = true
	}
	out := make([]FilterResult, 0, len(terms))
	for _, term := range terms {
		res := FilterResult{Term: term}
		if neighbours, err := m.MostSimilar(term, topK); err == nil {
			for _, n := range neighbours {
				if n.Score >= minSim && unrelated[n.Word] {
					res.Offending = append(res.Offending, n.Word)
				}
			}
			res.Excluded = len(res.Offending) > 0
		}
		out = append(out, res)
	}
	return out
}

// FilterContrastive applies the exclusion rule with a contrastive
// margin: a texture term is excluded only when (a) an unrelated
// ingredient word appears among its topK nearest neighbours with
// similarity at least minSim, and (b) the term's best similarity to an
// unrelated ingredient exceeds its best similarity to any gel
// ingredient word by at least margin. The margin protects genuine gel
// terms that merely co-occur with fruit decorations: ぷるぷる sits
// closer to ゼラチン than to いちご, さくさく closer to ナッツ.
func FilterContrastive(m *Model, terms []string, unrelatedIngredients, gelIngredients []string,
	topK int, minSim, margin float64) []FilterResult {
	base := Filter(m, terms, unrelatedIngredients, topK, minSim)
	bestSim := func(term string, words []string) float64 {
		best := -1.0
		for _, w := range words {
			if s, err := m.Similarity(term, w); err == nil && s > best {
				best = s
			}
		}
		return best
	}
	for i := range base {
		if !base[i].Excluded {
			continue
		}
		u := bestSim(base[i].Term, unrelatedIngredients)
		g := bestSim(base[i].Term, gelIngredients)
		if g >= 0 && u-g < margin {
			base[i].Excluded = false
			base[i].Offending = nil
		}
	}
	return base
}
