// Package eval scores fitted models against the synthetic corpus's
// ground-truth labels (purity, NMI, V-measure) and provides intrinsic
// quality measures (topic coherence, held-out perplexity). The paper
// could only validate qualitatively against the Texture Profile; the
// generated corpus lets this reproduction also score recovery exactly.
package eval

import (
	"fmt"
	"math"
)

// Contingency is the co-occurrence table of predicted cluster ×
// true label.
type Contingency struct {
	counts map[[2]int]int
	rowSum map[int]int
	colSum map[int]int
	n      int
}

// NewContingency tabulates predictions against truth.
func NewContingency(pred, truth []int) (*Contingency, error) {
	if len(pred) != len(truth) {
		return nil, fmt.Errorf("eval: %d predictions vs %d labels", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return nil, fmt.Errorf("eval: empty input")
	}
	c := &Contingency{
		counts: make(map[[2]int]int),
		rowSum: make(map[int]int),
		colSum: make(map[int]int),
		n:      len(pred),
	}
	for i := range pred {
		c.counts[[2]int{pred[i], truth[i]}]++
		c.rowSum[pred[i]]++
		c.colSum[truth[i]]++
	}
	return c, nil
}

// Purity is the fraction of items whose cluster's majority label
// matches their own.
func (c *Contingency) Purity() float64 {
	total := 0
	for row := range c.rowSum {
		best := 0
		for key, n := range c.counts {
			if key[0] == row && n > best {
				best = n
			}
		}
		total += best
	}
	return float64(total) / float64(c.n)
}

// MutualInformation returns I(pred; truth) in nats.
func (c *Contingency) MutualInformation() float64 {
	mi := 0.0
	n := float64(c.n)
	for key, nij := range c.counts {
		pij := float64(nij) / n
		pi := float64(c.rowSum[key[0]]) / n
		pj := float64(c.colSum[key[1]]) / n
		mi += pij * math.Log(pij/(pi*pj))
	}
	return mi
}

func entropy(sums map[int]int, n int) float64 {
	h := 0.0
	for _, s := range sums {
		p := float64(s) / float64(n)
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// NMI is the normalized mutual information with arithmetic-mean
// normalization; 1 for a perfect (up to relabeling) clustering.
func (c *Contingency) NMI() float64 {
	hp := entropy(c.rowSum, c.n)
	ht := entropy(c.colSum, c.n)
	if hp == 0 && ht == 0 {
		return 1
	}
	denom := (hp + ht) / 2
	if denom == 0 {
		return 0
	}
	return c.MutualInformation() / denom
}

// VMeasure returns the harmonic mean of homogeneity and completeness.
func (c *Contingency) VMeasure() float64 {
	hp := entropy(c.rowSum, c.n) // H(pred)
	ht := entropy(c.colSum, c.n) // H(truth)
	mi := c.MutualInformation()
	homogeneity, completeness := 1.0, 1.0
	if ht > 0 {
		homogeneity = mi / ht
	}
	if hp > 0 {
		completeness = mi / hp
	}
	if homogeneity+completeness == 0 {
		return 0
	}
	return 2 * homogeneity * completeness / (homogeneity + completeness)
}

// Perplexity computes held-out word perplexity given per-document
// topic mixtures θ and topic-word distributions φ: exp(−Σ log p(w)/N).
func Perplexity(docs [][]int, theta, phi [][]float64) (float64, error) {
	if len(docs) != len(theta) {
		return 0, fmt.Errorf("eval: %d docs vs %d mixtures", len(docs), len(theta))
	}
	ll := 0.0
	n := 0
	for d, words := range docs {
		for _, w := range words {
			p := 0.0
			for k := range theta[d] {
				p += theta[d][k] * phi[k][w]
			}
			if p <= 0 {
				return 0, fmt.Errorf("eval: zero probability for word %d in doc %d", w, d)
			}
			ll += math.Log(p)
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("eval: no words")
	}
	return math.Exp(-ll / float64(n)), nil
}
