// Package annotate is the user-facing layer the paper motivates:
// posted recipes rarely say what texture they produce, so given a
// fitted model this package attaches a "texture card" to any recipe —
// the texture words it is expected to carry, the quantitative
// rheology, and the nearest empirical measurement from the
// food-science literature.
package annotate

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lexicon"
	"repro/internal/pipeline"
	"repro/internal/recipe"
	"repro/internal/rheology"
	"repro/internal/stats"
)

// ErrRecipe marks annotation failures caused by the recipe itself —
// unparseable amounts, no gel ingredient — as opposed to model or
// infrastructure failures. HTTP layers map it to a 4xx; everything
// else is the server's fault.
var ErrRecipe = errors.New("recipe not annotatable")

// TermEstimate is one expected texture term with its probability under
// the recipe's dominant topic.
type TermEstimate struct {
	Term lexicon.Term
	Prob float64
}

// Card is the texture annotation of one recipe.
type Card struct {
	RecipeID string
	Title    string

	// Topic placement.
	Topic      int
	TopicProb  float64
	Theta      []float64
	MinedTerms []lexicon.Term // texture terms already present in the description

	// Expected texture vocabulary from the topic.
	Expected []TermEstimate

	// Quantitative texture from the calibrated simulator.
	Attr rheology.Attributes

	// NearestMeasurement is the Table I / Table II(b) measurement whose
	// gel setting is closest to the recipe, with its distance in the
	// −log concentration space.
	NearestMeasurement rheology.Measurement
	MeasurementDist    float64
}

// FoldInStats is the telemetry of one fold-in chain: its length, the
// recipe's texture-word count, its wall time, and whether its context
// ended it. A canceled chain reports the sweeps it completed.
type FoldInStats struct {
	Sweeps   int
	Words    int
	Total    time.Duration
	Canceled bool
}

// Annotator folds recipes into a fitted model.
type Annotator struct {
	model *core.Result
	dict  *lexicon.Dictionary

	// FoldInIters is the number of Gibbs sweeps per annotation.
	FoldInIters int
	// TopTerms is the number of expected terms reported.
	TopTerms int
	// Seed drives the fold-in chain.
	Seed uint64
	// OnFoldIn, when non-nil, receives one FoldInStats per fold-in
	// chain that completed or was canceled. Concurrent Annotate calls
	// invoke it concurrently, so it must be safe for concurrent use.
	OnFoldIn func(FoldInStats)

	excluded map[string][]string
	refs     []rheology.Measurement
}

// New builds an annotator from a pipeline run. The word2vec term
// exclusions of the run carry over: excluded terms are not counted as
// mined texture terms.
func New(out *pipeline.Output) (*Annotator, error) {
	if out == nil || out.Model == nil {
		return nil, fmt.Errorf("annotate: need a fitted pipeline output")
	}
	refs := append([]rheology.Measurement{}, rheology.TableI...)
	refs = append(refs, rheology.Bavarois, rheology.MilkJelly)
	return &Annotator{
		model:       out.Model,
		dict:        out.Dict,
		FoldInIters: 100,
		TopTerms:    5,
		Seed:        1,
		excluded:    out.ExcludedTerms,
		refs:        refs,
	}, nil
}

// Annotate resolves the recipe and builds its texture card. Resolve
// always runs (it is deterministic and cheap) because recipes loaded
// from JSON carry grams but not the derived category fields.
//
// The context bounds the fold-in chain: when ctx ends mid-inference
// the returned error matches core.ErrCanceled and the context error.
// Recipe-caused failures match ErrRecipe.
func (a *Annotator) Annotate(ctx context.Context, r *recipe.Recipe) (*Card, error) {
	if err := r.Resolve(); err != nil {
		return nil, fmt.Errorf("annotate: %w: %w", ErrRecipe, err)
	}
	if !r.HasGel() {
		return nil, fmt.Errorf("annotate: %w: recipe %s has no gel ingredient; the model covers gel dishes", ErrRecipe, r.ID)
	}

	var mined []lexicon.Term
	var wordIDs []int
	for _, id := range a.dict.ExtractTermIDs(r.Description) {
		term := a.dict.Term(id)
		if _, skip := a.excluded[term.Kana]; skip {
			continue
		}
		mined = append(mined, term)
		wordIDs = append(wordIDs, id)
	}

	start := time.Now()
	theta, err := a.model.FoldInCtx(ctx, wordIDs, r.GelFeatures(), r.EmulsionFeatures(), a.FoldInIters, a.Seed)
	if a.OnFoldIn != nil {
		st := FoldInStats{Sweeps: a.FoldInIters, Words: len(wordIDs), Total: time.Since(start)}
		var ce *core.CanceledError
		switch {
		case err == nil:
			a.OnFoldIn(st)
		case errors.As(err, &ce):
			st.Sweeps, st.Canceled = ce.Sweeps, true
			a.OnFoldIn(st)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("annotate: %w", err)
	}
	topic := stats.ArgMax(theta)

	card := &Card{
		RecipeID:   r.ID,
		Title:      r.Title,
		Topic:      topic,
		TopicProb:  theta[topic],
		Theta:      theta,
		MinedTerms: mined,
		Attr:       rheology.Predict(r.GelConcentrations(), r.EmulsionConcentrations()),
	}
	for _, tp := range a.model.TopTerms(topic, a.TopTerms) {
		if tp.Prob < 0.01 {
			break
		}
		card.Expected = append(card.Expected, TermEstimate{Term: a.dict.Term(tp.ID), Prob: tp.Prob})
	}

	// Nearest empirical measurement by gel-feature distance.
	gf := r.GelFeatures()
	bestD := -1.0
	for _, m := range a.refs {
		d := stats.Norm2(stats.SubVec(gf, m.GelFeatures()))
		if bestD < 0 || d < bestD {
			bestD = d
			card.NearestMeasurement = m
			card.MeasurementDist = d
		}
	}
	return card, nil
}

// AnnotateAll builds cards for a batch, skipping recipes the model
// cannot cover and reporting them in errs (index-aligned with the
// input; nil for successes). A dead context fails the remaining
// recipes with the cancellation error rather than burning sweeps on
// work nobody will read.
func (a *Annotator) AnnotateAll(ctx context.Context, rs []*recipe.Recipe) (cards []*Card, errs []error) {
	cards = make([]*Card, len(rs))
	errs = make([]error, len(rs))
	for i, r := range rs {
		cards[i], errs[i] = a.Annotate(ctx, r)
	}
	return cards, errs
}

// SenseSummary classifies the expected terms into sense categories,
// weighted by probability — a compact "reads hard / reads elastic"
// verdict.
func (c *Card) SenseSummary() map[lexicon.SenseClass]float64 {
	out := make(map[lexicon.SenseClass]float64)
	for _, te := range c.Expected {
		if s := te.Term.HardnessSense(); s != lexicon.SenseNone {
			out[s] += te.Prob
		}
		if s := te.Term.CohesivenessSense(); s != lexicon.SenseNone {
			out[s] += te.Prob
		}
		if s := te.Term.AdhesivenessSense(); s != lexicon.SenseNone {
			out[s] += te.Prob
		}
	}
	return out
}

// String renders the card for terminal display.
func (c *Card) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "texture card — %s (%s)\n", c.Title, c.RecipeID)
	fmt.Fprintf(&sb, "  topic %d (p=%.2f)\n", c.Topic, c.TopicProb)
	if len(c.MinedTerms) > 0 {
		names := make([]string, len(c.MinedTerms))
		for i, t := range c.MinedTerms {
			names[i] = t.Romaji
		}
		fmt.Fprintf(&sb, "  poster's own words: %s\n", strings.Join(names, ", "))
	}
	fmt.Fprintf(&sb, "  expected texture:\n")
	for _, te := range c.Expected {
		fmt.Fprintf(&sb, "    %-16s %.3f  %s\n", te.Term.Romaji, te.Prob, te.Term.Gloss)
	}
	fmt.Fprintf(&sb, "  rheology: H=%.2f C=%.2f A=%.2f (RU)\n", c.Attr.Hardness, c.Attr.Cohesiveness, c.Attr.Adhesiveness)
	fmt.Fprintf(&sb, "  nearest study: %s (Δ=%.2f)\n", c.NearestMeasurement.ID, c.MeasurementDist)
	senses := c.SenseSummary()
	if len(senses) > 0 {
		keys := make([]string, 0, len(senses))
		for s := range senses {
			keys = append(keys, s.String())
		}
		sort.Strings(keys)
		fmt.Fprintf(&sb, "  reads: %s\n", strings.Join(keys, ", "))
	}
	return sb.String()
}

// WireCard is the JSON projection of a Card used by cmd/annotate.
type WireCard struct {
	RecipeID string              `json:"recipe_id"`
	Title    string              `json:"title"`
	Topic    int                 `json:"topic"`
	Prob     float64             `json:"prob"`
	Expected []WireTerm          `json:"expected"`
	Attr     rheology.Attributes `json:"rheology"`
	Nearest  string              `json:"nearest_study"`
}

// WireTerm is one expected term on the wire.
type WireTerm struct {
	Romaji string  `json:"romaji"`
	Kana   string  `json:"kana"`
	Gloss  string  `json:"gloss"`
	Prob   float64 `json:"prob"`
}

// Wire projects the card to its JSON form.
func (c *Card) Wire() WireCard {
	w := WireCard{
		RecipeID: c.RecipeID,
		Title:    c.Title,
		Topic:    c.Topic,
		Prob:     c.TopicProb,
		Attr:     c.Attr,
		Nearest:  c.NearestMeasurement.ID,
	}
	for _, te := range c.Expected {
		w.Expected = append(w.Expected, WireTerm{
			Romaji: te.Term.Romaji, Kana: te.Term.Kana, Gloss: te.Term.Gloss, Prob: te.Prob,
		})
	}
	return w
}
