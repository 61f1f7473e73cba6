package annotate

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lexicon"
	"repro/internal/pipeline"
	"repro/internal/recipe"
)

var (
	fixOnce sync.Once
	fixOut  *pipeline.Output
	fixErr  error
)

func fixture(t *testing.T) *pipeline.Output {
	t.Helper()
	fixOnce.Do(func() {
		// Full scale: the soft-vs-hard test needs the 38-recipe firm
		// gelatin population recovered as its own topic.
		fixOut, fixErr = pipeline.Run(pipeline.DefaultOptions())
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixOut
}

func newAnnotator(t *testing.T) *Annotator {
	t.Helper()
	a, err := New(fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func jelly(t *testing.T, gelatinGrams string, desc string) *recipe.Recipe {
	t.Helper()
	r := &recipe.Recipe{
		ID:          "test-jelly",
		Title:       "テストゼリー",
		Description: desc,
		Ingredients: []recipe.Ingredient{
			{Name: "ゼラチン", Amount: gelatinGrams},
			{Name: "砂糖", Amount: "30g"},
			{Name: "水", Amount: "400ml"},
		},
	}
	if err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestAnnotateSoftVsHard(t *testing.T) {
	a := newAnnotator(t)
	// ~1% gelatin: expected soft vocabulary; ~5.5%: hard vocabulary.
	soft, err := a.Annotate(context.Background(), jelly(t, "4g", ""))
	if err != nil {
		t.Fatal(err)
	}
	hard, err := a.Annotate(context.Background(), jelly(t, "26g", ""))
	if err != nil {
		t.Fatal(err)
	}
	if soft.Topic == hard.Topic {
		t.Errorf("soft and hard recipes share topic %d", soft.Topic)
	}
	score := func(c *Card) float64 {
		s := 0.0
		for _, te := range c.Expected {
			s += te.Prob * te.Term.Hardness
		}
		return s
	}
	if !(score(soft) < score(hard)) {
		t.Errorf("expected-term hardness: soft %.3f vs hard %.3f", score(soft), score(hard))
	}
}

func TestAnnotateUsesMinedTerms(t *testing.T) {
	a := newAnnotator(t)
	card, err := a.Annotate(context.Background(), jelly(t, "4g", "ぷるぷるでとてもおいしい"))
	if err != nil {
		t.Fatal(err)
	}
	if len(card.MinedTerms) != 1 || card.MinedTerms[0].Romaji != "purupuru" {
		t.Errorf("mined = %v", card.MinedTerms)
	}
	if len(card.Expected) == 0 {
		t.Error("no expected terms")
	}
	if card.TopicProb <= 0 || card.TopicProb > 1 {
		t.Errorf("topic prob = %g", card.TopicProb)
	}
}

func TestAnnotateRejectsGelFree(t *testing.T) {
	a := newAnnotator(t)
	r := &recipe.Recipe{
		ID: "salad",
		Ingredients: []recipe.Ingredient{
			{Name: "水", Amount: "100ml"},
		},
	}
	if err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Annotate(context.Background(), r); err == nil {
		t.Error("gel-free recipe should be rejected")
	}
}

func TestAnnotateResolvesLazily(t *testing.T) {
	a := newAnnotator(t)
	r := &recipe.Recipe{
		ID:    "lazy",
		Title: "未解決レシピ",
		Ingredients: []recipe.Ingredient{
			{Name: "ゼラチン", Amount: "5g"},
			{Name: "水", Amount: "400ml"},
		},
	}
	card, err := a.Annotate(context.Background(), r) // not resolved by the caller
	if err != nil {
		t.Fatal(err)
	}
	if card.RecipeID != "lazy" {
		t.Error("card identity")
	}
	// And unparseable amounts surface as errors.
	bad := &recipe.Recipe{ID: "bad", Ingredients: []recipe.Ingredient{{Name: "ゼラチン", Amount: "たっぷり"}}}
	if _, err := a.Annotate(context.Background(), bad); err == nil {
		t.Error("unparseable amount should fail")
	}
}

func TestAnnotateNearestMeasurement(t *testing.T) {
	a := newAnnotator(t)
	// 2.5% gelatin, Bavarois-style emulsions → nearest study should be a
	// 2.5% gelatin measurement (Table I data 3, Bavarois or Milk jelly).
	r := &recipe.Recipe{
		ID: "bav",
		Ingredients: []recipe.Ingredient{
			{Name: "ゼラチン", Amount: "10g"},
			{Name: "卵黄", Amount: "2個"},
			{Name: "生クリーム", Amount: "80ml"},
			{Name: "牛乳", Amount: "160ml"},
			{Name: "水", Amount: "110ml"},
		},
	}
	if err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	card, err := a.Annotate(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	switch card.NearestMeasurement.ID {
	case "3", "Bavarois", "Milk jelly":
	default:
		t.Errorf("nearest study = %s, want a 2.5%% gelatin measurement", card.NearestMeasurement.ID)
	}
}

func TestAnnotateAll(t *testing.T) {
	a := newAnnotator(t)
	good := jelly(t, "5g", "")
	bad := &recipe.Recipe{ID: "nogel", Ingredients: []recipe.Ingredient{{Name: "水", Amount: "100ml"}}}
	if err := bad.Resolve(); err != nil {
		t.Fatal(err)
	}
	cards, errs := a.AnnotateAll(context.Background(), []*recipe.Recipe{good, bad})
	if cards[0] == nil || errs[0] != nil {
		t.Errorf("good recipe: %v", errs[0])
	}
	if cards[1] != nil || errs[1] == nil {
		t.Error("bad recipe should fail")
	}
}

func TestCardRenderAndWire(t *testing.T) {
	a := newAnnotator(t)
	card, err := a.Annotate(context.Background(), jelly(t, "5g", "ぷるぷる"))
	if err != nil {
		t.Fatal(err)
	}
	s := card.String()
	for _, want := range []string{"texture card", "topic", "rheology", "nearest study"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
	w := card.Wire()
	if w.RecipeID != card.RecipeID || len(w.Expected) != len(card.Expected) {
		t.Error("wire projection lost data")
	}
	senses := card.SenseSummary()
	if len(senses) == 0 {
		t.Error("no sense summary")
	}
	_ = lexicon.SenseHard
}

func TestAnnotateErrorClasses(t *testing.T) {
	a := newAnnotator(t)
	// Recipe-caused failures carry ErrRecipe so HTTP layers answer 4xx.
	nogel := &recipe.Recipe{ID: "salad", Ingredients: []recipe.Ingredient{{Name: "水", Amount: "100ml"}}}
	if _, err := a.Annotate(context.Background(), nogel); !errors.Is(err, ErrRecipe) {
		t.Errorf("gel-free recipe error = %v, want ErrRecipe", err)
	}
	unparseable := &recipe.Recipe{ID: "bad", Ingredients: []recipe.Ingredient{{Name: "ゼラチン", Amount: "たっぷり"}}}
	if _, err := a.Annotate(context.Background(), unparseable); !errors.Is(err, ErrRecipe) {
		t.Errorf("unparseable amount error = %v, want ErrRecipe", err)
	}
	// A dead context surfaces as cancellation, not a recipe fault.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := a.Annotate(ctx, jelly(t, "5g", ""))
	if !errors.Is(err, core.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled annotate = %v, want core.ErrCanceled", err)
	}
	if errors.Is(err, ErrRecipe) {
		t.Error("cancellation must not read as a recipe fault")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil output should fail")
	}
	if _, err := New(&pipeline.Output{}); err == nil {
		t.Error("unfitted output should fail")
	}
}

// TestModelLoadAnnotatesLikeFullLoad: annotators built on a bundle's
// LoadModel and LoadBundle results return byte-identical responses:
// the model part is everything annotation reads.
func TestModelLoadAnnotatesLikeFullLoad(t *testing.T) {
	out := fixture(t)
	b, _, err := out.EncodeBundle()
	if err != nil {
		t.Fatal(err)
	}
	responses := func(load func(io.Reader) (*pipeline.Output, error)) string {
		t.Helper()
		loaded, err := load(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		a, err := New(loaded)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		enc := json.NewEncoder(h)
		served := 0
		for _, r := range out.Kept[:200] {
			card, err := a.Annotate(context.Background(), r)
			if err != nil {
				fmt.Fprintf(h, "error %v\n", err)
				continue
			}
			if err := enc.Encode(card.Wire()); err != nil {
				t.Fatal(err)
			}
			served++
		}
		if served == 0 {
			t.Fatal("no recipe annotated")
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	full, model := responses(pipeline.LoadBundle), responses(pipeline.LoadModel)
	if full != model {
		t.Fatalf("response hash: full load %s, model load %s", full, model)
	}
}

// TestAnnotateFoldInStats checks fold-in telemetry on the completed and
// the canceled path; a recipe refused before the fold-in reports
// nothing.
func TestAnnotateFoldInStats(t *testing.T) {
	a := newAnnotator(t)
	a.FoldInIters = 40
	var got []FoldInStats
	a.OnFoldIn = func(st FoldInStats) { got = append(got, st) }

	r := jelly(t, "5g", "ぷるぷるでとてもおいしい")
	card, err := a.Annotate(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	words := len(card.MinedTerms)
	if len(got) != 1 {
		t.Fatalf("sink called %d times, want 1", len(got))
	}
	if got[0].Sweeps != 40 || got[0].Words != words || words == 0 || got[0].Canceled || got[0].Total <= 0 {
		t.Fatalf("completed stats %+v (words %d)", got[0], words)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Annotate(ctx, r); err == nil {
		t.Fatal("canceled annotation should fail")
	}
	if len(got) != 2 || !got[1].Canceled || got[1].Sweeps != 0 {
		t.Fatalf("canceled stats %+v", got[1:])
	}

	nogel := &recipe.Recipe{ID: "salad", Ingredients: []recipe.Ingredient{{Name: "水", Amount: "100ml"}}}
	if _, err := a.Annotate(context.Background(), nogel); err == nil {
		t.Fatal("gel-free recipe annotated")
	}
	if len(got) != 2 {
		t.Fatalf("a refused recipe reached the sink: %+v", got[2:])
	}
}
