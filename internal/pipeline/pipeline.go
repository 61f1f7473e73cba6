// Package pipeline wires the full method end to end, in the order of
// the paper's Section III: corpus → tokenization → word2vec
// relatedness filter → dataset filters → feature construction → joint
// topic model.
package pipeline

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/lexicon"
	"repro/internal/obs"
	"repro/internal/recipe"
	"repro/internal/resilience"
	"repro/internal/textseg"
	"repro/internal/word2vec"
)

// Options configures a pipeline run.
type Options struct {
	Corpus corpus.Config
	Model  core.Config

	// UseW2VFilter enables the word2vec gel-relatedness term filter.
	UseW2VFilter bool
	W2V          word2vec.Config
	FilterTopK   int     // neighbours inspected per term
	FilterMinSim float64 // similarity floor for an offending neighbour
	FilterMargin float64 // contrastive margin over gel-ingredient similarity

	// MaxUnrelated is the unrelated-ingredient weight-share cutoff
	// (the paper's 10%).
	MaxUnrelated float64

	// Checkpoint enables durable crash recovery for the model-fit stage
	// (see CheckpointOptions).
	Checkpoint CheckpointOptions

	// Supervise gives every chain of the fit a restart budget
	// (MaxRestarts) and the health thresholds (MaxLLDrop, SweepTimeout,
	// at least one live topic); an unhealthy chain rolls back to its
	// last healthy checkpoint or restarts reseeded. It does not pick a
	// code path: every chain runs through RunChain.
	Supervise bool
	// MaxRestarts bounds supervised recovery attempts after the first
	// (3 in DefaultOptions; 0 means none). Ignored without Supervise.
	MaxRestarts int
	// SweepTimeout arms the supervised stall watchdog: a sweep taking
	// longer than this aborts the attempt. 0 disables the watchdog.
	SweepTimeout time.Duration
	// MaxLLDrop is the supervised divergence threshold: a sweep whose
	// log-likelihood falls more than this below the best seen so far
	// aborts the attempt. 0 disables the drop check (NaN/±Inf is always
	// fatal under supervision).
	MaxLLDrop float64

	// ShardCount > 1 runs the chain on that many workers: it sets
	// Model.Workers, which selects core's exact parallel kernel. The
	// fit is one chain whatever the count, checkpointed and resumed
	// like any other.
	ShardCount int

	// Metrics, when non-nil, receives stage timings
	// (pipeline_stage_seconds{stage=…}) and per-sweep sampler telemetry
	// (see SamplerMetrics). Stage timings are also always available on
	// Output.Timings.
	Metrics *obs.Registry
}

// DefaultOptions reproduces the paper's setup.
func DefaultOptions() Options {
	w := word2vec.DefaultConfig()
	// Frequent-word subsampling is counterproductive at recipe-corpus
	// size: it thins out exactly the topping-word co-occurrences the
	// relatedness filter needs.
	w.Subsample = 0
	m := core.DefaultConfig()
	// The paper calls emulsion effects subordinate to gel effects; λ=0.5
	// tempering encodes that and gives the best ground-truth recovery
	// (see BenchmarkAblationEmulsionWeight).
	m.EmulsionWeight = 0.5
	// A small α sharpens the word→y coupling of equation (3): with only
	// 1-4 texture tokens per recipe, α=0.5 lets the concentration channel
	// overrule the terms; α=0.1 recovers the ground-truth populations
	// markedly better.
	m.Alpha = 0.1
	return Options{
		Corpus:       corpus.DefaultConfig(),
		Model:        m,
		UseW2VFilter: true,
		W2V:          w,
		FilterTopK:   25,
		FilterMinSim: 0.25,
		FilterMargin: 0.15,
		MaxUnrelated: 0.10,
		MaxRestarts:  3,
	}
}

// Output is everything a run produces.
type Output struct {
	Dict        *lexicon.Dictionary
	AllRecipes  []*recipe.Recipe // the generated corpus
	Kept        []*recipe.Recipe // recipes surviving the dataset filters
	Docs        []recipe.Doc     // model input, index-aligned with Model.Theta
	Model       *core.Result
	FilterStats recipe.FilterStats
	// ExcludedTerms is the set of texture-term kana the word2vec filter
	// removed, with the offending ingredient words.
	ExcludedTerms map[string][]string
	W2V           *word2vec.Model
	// Timings holds per-stage wall times in execution order.
	Timings []StageTiming
	// FitIncidents is the fit's recovery history: empty unless a
	// supervised chain needed a rollback or restart (an unsupervised
	// chain has no restart budget, so any incident fails the fit). Not
	// persisted in bundles.
	FitIncidents []resilience.Incident
	// Ingest reports what the streaming decoder skipped (RunStream only).
	Ingest *recipe.DecodeReport
}

// ErrOptions marks an Options combination the pipeline refuses to run.
var ErrOptions = errors.New("pipeline: invalid options")

// validate rejects option combinations with no coherent semantics
// before any stage spends work.
func (o *Options) validate() error {
	if o.MaxRestarts < 0 {
		return fmt.Errorf("%w: MaxRestarts=%d negative", ErrOptions, o.MaxRestarts)
	}
	if o.SweepTimeout < 0 {
		return fmt.Errorf("%w: SweepTimeout=%v negative", ErrOptions, o.SweepTimeout)
	}
	if o.MaxLLDrop < 0 {
		return fmt.Errorf("%w: MaxLLDrop=%g negative", ErrOptions, o.MaxLLDrop)
	}
	if o.ShardCount < 0 {
		return fmt.Errorf("%w: ShardCount=%d negative", ErrOptions, o.ShardCount)
	}
	return nil
}

// Run executes the full pipeline.
func Run(opts Options) (*Output, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	recipes, err := corpus.Generate(opts.Corpus)
	if err != nil {
		return nil, fmt.Errorf("pipeline: corpus: %w", err)
	}
	corpusElapsed := time.Since(start)
	out, err := RunOnRecipes(recipes, opts)
	if err != nil {
		return nil, err
	}
	// Prepend so Timings reads in execution order.
	out.Timings = append([]StageTiming{{Stage: "corpus", Elapsed: corpusElapsed}}, out.Timings...)
	if opts.Metrics != nil {
		opts.Metrics.Gauge("pipeline_stage_seconds",
			"Wall time of each pipeline stage for the most recent run.",
			obs.Labels{"stage": "corpus"}).Set(corpusElapsed.Seconds())
	}
	return out, nil
}

// RunOnRecipes executes the pipeline on an existing (resolved) corpus,
// so callers can bring their own recipe collection.
func RunOnRecipes(recipes []*recipe.Recipe, opts Options) (*Output, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	out := &Output{Dict: lexicon.Default(), AllRecipes: recipes, ExcludedTerms: map[string][]string{}}

	// Word2vec relatedness filter, trained on all descriptions.
	if opts.UseW2VFilter {
		start := time.Now()
		if err := out.trainFilter(recipes, opts); err != nil {
			return nil, err
		}
		out.recordStage(opts.Metrics, "word2vec_filter", start)
	}

	filterStart := time.Now()
	out.Kept, out.FilterStats = recipe.Filter(recipes, out.filterConfig(opts))

	for _, r := range out.Kept {
		out.addDoc(r)
	}
	out.recordStage(opts.Metrics, "dataset_filter", filterStart)
	if err := out.fit(opts); err != nil {
		return nil, err
	}
	return out, nil
}

// filterConfig is the dataset filter: gel required, at most
// MaxUnrelated unrelated-ingredient share, and at least one texture
// term the word2vec filter kept.
func (o *Output) filterConfig(opts Options) recipe.FilterConfig {
	return recipe.FilterConfig{
		MaxUnrelatedFraction: opts.MaxUnrelated,
		RequireGel:           true,
		RequireTexture:       true,
		HasTexture: func(r *recipe.Recipe) bool {
			return len(o.termIDs(r)) > 0
		},
	}
}

// addDoc featurises a kept recipe into a model input document.
func (o *Output) addDoc(r *recipe.Recipe) {
	o.Docs = append(o.Docs, recipe.Doc{
		RecipeID: r.ID,
		TermIDs:  o.termIDs(r),
		Gel:      r.GelFeatures(),
		Emulsion: r.EmulsionFeatures(),
		Truth:    r.Truth,
	})
}

// fit is the model stage every entry point shares: it assembles the
// model input from Docs, fits it, and prebuilds the fold-in kernel.
func (o *Output) fit(opts Options) error {
	if len(o.Docs) == 0 {
		return fmt.Errorf("pipeline: no recipes survived the filters")
	}
	data := &core.Data{
		V:     o.Dict.Len(),
		Words: make([][]int, len(o.Docs)),
		Gel:   make([][]float64, len(o.Docs)),
		Emu:   make([][]float64, len(o.Docs)),
	}
	for i, d := range o.Docs {
		data.Words[i], data.Gel[i], data.Emu[i] = d.TermIDs, d.Gel, d.Emulsion
	}
	if opts.Metrics != nil {
		opts.Model.Hooks = opts.Model.Hooks.Then(SamplerMetrics(opts.Metrics))
	}
	start := time.Now()
	res, incidents, err := fitModel(data, opts)
	o.FitIncidents = incidents
	if err != nil {
		return fmt.Errorf("pipeline: model: %w", err)
	}
	o.recordStage(opts.Metrics, "model", start)
	o.Model = res
	// A freshly fitted model is structurally sound by construction;
	// prebuilding the fold-in kernel here moves its one-time cost off
	// the first annotation request.
	if _, err := res.BuildKernel(); err != nil {
		return fmt.Errorf("pipeline: fold-in kernel: %w", err)
	}
	return nil
}

// termIDs extracts the recipe's texture-term IDs, dropping terms the
// word2vec filter excluded.
func (o *Output) termIDs(r *recipe.Recipe) []int {
	ids := o.Dict.ExtractTermIDs(r.Description)
	if len(o.ExcludedTerms) == 0 {
		return ids
	}
	kept := ids[:0:0]
	for _, id := range ids {
		if _, excluded := o.ExcludedTerms[o.Dict.Term(id).Kana]; !excluded {
			kept = append(kept, id)
		}
	}
	return kept
}

// trainFilter trains word2vec on the tokenized descriptions and marks
// texture terms whose neighbourhoods contain gel-unrelated ingredient
// words.
//
// The word2vec tokenizer's dictionary holds the texture terms AND all
// registry ingredient names: without the latter, an ingredient mention
// glues onto the following particles (なっつをのせて as one token) and
// the filter can never see the ingredient as a neighbour.
func (o *Output) trainFilter(recipes []*recipe.Recipe, opts Options) error {
	tok := o.filterTokenizer()
	sentences := make([][]string, 0, len(recipes))
	observed := make(map[string]bool)
	for _, r := range recipes {
		o.observeDescription(tok, r.Description, observed, func(sent []string) {
			sentences = append(sentences, sent)
		})
	}
	return o.trainFilterFromSentences(sentences, observed, opts)
}

// filterTokenizer builds the word2vec tokenizer: the texture-term trie
// extended with all registry ingredient names, so ingredient mentions
// segment as their own tokens (see trainFilter).
func (o *Output) filterTokenizer() *textseg.Tokenizer {
	trie := o.Dict.Trie()
	next := o.Dict.Len()
	for _, info := range recipe.KnownIngredients() {
		trie.Insert(textseg.Normalize(info.Name), next)
		next++
		for _, a := range info.Aliases {
			trie.Insert(textseg.Normalize(a), next)
			next++
		}
	}
	return textseg.NewTokenizer(trie)
}

// observeDescription tokenizes one description, hands its sentence to
// emit (when it carries more than one token) and marks the texture
// terms it contains in observed.
func (o *Output) observeDescription(tok *textseg.Tokenizer, desc string, observed map[string]bool, emit func([]string)) {
	toks := tok.Tokenize(desc)
	sent := textseg.Surfaces(toks)
	if len(sent) > 1 {
		emit(sent)
	}
	for _, t := range toks {
		if !t.InDict {
			continue
		}
		// Only texture terms count as filter candidates; the combined
		// trie also matches ingredient names.
		if _, isTerm := o.Dict.ByKana(t.Surface); isTerm {
			observed[t.Surface] = true
		}
	}
}

// trainFilterFromSentences is trainFilter's training half, shared with
// the streaming ingestion path (which collects sentences by reservoir
// instead of holding every description).
func (o *Output) trainFilterFromSentences(sentences [][]string, observed map[string]bool, opts Options) error {
	model, err := word2vec.Train(sentences, opts.W2V)
	if err != nil {
		return fmt.Errorf("pipeline: word2vec: %w", err)
	}
	o.W2V = model

	terms := make([]string, 0, len(observed))
	for t := range observed {
		terms = append(terms, t)
	}
	results := word2vec.FilterContrastive(model, terms,
		UnrelatedIngredientWords(), GelIngredientWords(),
		opts.FilterTopK, opts.FilterMinSim, opts.FilterMargin)
	for _, res := range results {
		if res.Excluded {
			o.ExcludedTerms[res.Term] = res.Offending
		}
	}
	return nil
}

// GelIngredientWords returns the normalized surface forms of the gel
// ingredients, the contrast anchors of the relatedness filter.
func GelIngredientWords() []string {
	var out []string
	for _, info := range recipe.KnownIngredients() {
		if info.Category != recipe.CategoryGel {
			continue
		}
		out = append(out, textseg.Normalize(info.Name))
		for _, a := range info.Aliases {
			out = append(out, textseg.Normalize(a))
		}
	}
	return out
}

// UnrelatedIngredientWords returns the normalized surface forms of all
// gel-unrelated (CategoryOther) ingredients in the registry — the
// offending-neighbour vocabulary of the word2vec filter.
func UnrelatedIngredientWords() []string {
	var out []string
	for _, info := range recipe.KnownIngredients() {
		if info.Category != recipe.CategoryOther {
			continue
		}
		out = append(out, textseg.Normalize(info.Name))
		for _, a := range info.Aliases {
			out = append(out, textseg.Normalize(a))
		}
	}
	return out
}
