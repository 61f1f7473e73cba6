package corpus

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/lexicon"
	"repro/internal/recipe"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.1
	return cfg
}

func TestSpecTableConsistency(t *testing.T) {
	if len(Topics) != 10 {
		t.Fatalf("have %d topics, want 10 (Table II(a))", len(Topics))
	}
	seen := make(map[int]bool)
	dict := lexicon.Default()
	for _, spec := range Topics {
		if seen[spec.ID] {
			t.Errorf("duplicate topic ID %d", spec.ID)
		}
		seen[spec.ID] = true
		// Terms must exist in the lexicon and be gel-related.
		sum := 0.0
		for _, wt := range spec.Terms {
			term, ok := dict.ByRomaji(wt.Romaji)
			if !ok {
				t.Errorf("topic %d term %q missing from lexicon", spec.ID, wt.Romaji)
				continue
			}
			if !term.GelRelated {
				t.Errorf("topic %d term %q is flagged non-gel", spec.ID, wt.Romaji)
			}
			sum += wt.Prob
		}
		// The paper's own term lists are truncated and sum to ≈0.96-1.0.
		if math.Abs(sum-1) > 0.05 {
			t.Errorf("topic %d term probs sum to %g", spec.ID, sum)
		}
		// Style probabilities sum to 1.
		ps := 0.0
		for _, st := range spec.Styles {
			ps += st.Prob
		}
		if math.Abs(ps-1) > 1e-9 {
			t.Errorf("topic %d style probs sum to %g", spec.ID, ps)
		}
		if spec.Recipes <= 0 {
			t.Errorf("topic %d has no recipes", spec.ID)
		}
	}
	// Total ≈ 3,000 as in the paper.
	if n := TotalRecipes(); n < 2800 || n > 3200 {
		t.Errorf("total recipes = %d, want ≈3000", n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Description != b[i].Description {
			t.Fatal("same seed must give identical corpora")
		}
	}
}

func TestGenerateScaleAndTruth(t *testing.T) {
	rs, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, spec := range Topics {
		want += int(math.Round(float64(spec.Recipes) * 0.1))
	}
	if len(rs) != want {
		t.Errorf("generated %d, want %d", len(rs), want)
	}
	byTruth := make(map[int]int)
	for _, r := range rs {
		byTruth[r.Truth]++
	}
	for _, spec := range Topics {
		if byTruth[spec.ID] == 0 {
			t.Errorf("topic %d generated no recipes", spec.ID)
		}
	}
}

func TestGenerateRecipesAreValid(t *testing.T) {
	rs, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dict := lexicon.Default()
	for _, r := range rs {
		if !r.HasGel() {
			t.Errorf("%s has no gel", r.ID)
		}
		if r.TotalGrams() < 100 {
			t.Errorf("%s total %g g is implausible", r.ID, r.TotalGrams())
		}
		if len(dict.ExtractTermIDs(r.Description)) == 0 {
			t.Errorf("%s description has no texture terms: %q", r.ID, r.Description)
		}
		// All ingredients must be known to the registry.
		for _, ing := range r.Ingredients {
			if !ing.Known {
				t.Errorf("%s has unknown ingredient %q", r.ID, ing.Name)
			}
		}
	}
}

func TestGenerateConcentrationsNearSpec(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.3
	cfg.ConfoundRate = 0
	cfg.FruitHeavyRate = 0
	rs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Group by truth and compare mean gel concentration to the spec.
	sums := make(map[int]*[recipe.NumGels]float64)
	counts := make(map[int]int)
	for _, r := range rs {
		c := r.GelConcentrations()
		if sums[r.Truth] == nil {
			sums[r.Truth] = &[recipe.NumGels]float64{}
		}
		for i, v := range c {
			sums[r.Truth][i] += v
		}
		counts[r.Truth]++
	}
	for _, spec := range Topics {
		n := counts[spec.ID]
		if n < 3 {
			continue
		}
		for gel, want := range spec.Gels {
			got := sums[spec.ID][gel] / float64(n)
			if want == 0 {
				if got > 0.002 {
					t.Errorf("topic %d %v = %g, want ≈0", spec.ID, recipe.Gel(gel), got)
				}
				continue
			}
			if math.Abs(got-want)/want > 0.35 {
				t.Errorf("topic %d %v = %g, want ≈%g", spec.ID, recipe.Gel(gel), got, want)
			}
		}
	}
}

func TestGenerateConfounds(t *testing.T) {
	cfg := smallConfig()
	cfg.ConfoundRate = 1 // force confounds
	cfg.FruitHeavyRate = 0
	rs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dict := lexicon.Default()
	withCrispy := 0
	for _, r := range rs {
		hasTopping := false
		for _, ing := range r.Ingredients {
			if ing.Category == recipe.CategoryOther {
				hasTopping = true
			}
		}
		if !hasTopping {
			t.Errorf("%s should have a topping", r.ID)
		}
		for _, id := range dict.ExtractTermIDs(r.Description) {
			if !dict.Term(id).GelRelated {
				withCrispy++
				break
			}
		}
		// Toppings stay under the 10% filter threshold.
		if f := r.UnrelatedFraction(); f > 0.10 {
			t.Errorf("%s topping share %g breaches the filter", r.ID, f)
		}
	}
	if withCrispy < len(rs)*9/10 {
		t.Errorf("only %d/%d confound recipes carry crispy terms", withCrispy, len(rs))
	}
}

func TestGenerateFruitHeavyFailFilter(t *testing.T) {
	cfg := smallConfig()
	cfg.ConfoundRate = 0
	cfg.FruitHeavyRate = 1
	rs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	breaching := 0
	for _, r := range rs {
		if r.UnrelatedFraction() > 0.10 {
			breaching++
		}
	}
	if breaching < len(rs)*9/10 {
		t.Errorf("only %d/%d fruit-heavy recipes breach the filter", breaching, len(rs))
	}
}

func TestGenerateFunnel(t *testing.T) {
	rs, err := Generate(FunnelConfig(0.02))
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(rs, lexicon.Default())
	if s.Tagged >= s.Total {
		t.Errorf("funnel config should include untagged recipes: %+v", s)
	}
	// Untagged ≈ 5.3× tagged.
	ratio := float64(s.Total-s.Tagged) / float64(s.Tagged)
	if ratio < 3.5 || ratio > 7.5 {
		t.Errorf("untagged/tagged = %g, want ≈5.3", ratio)
	}
}

func TestSummarize(t *testing.T) {
	rs, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(rs, lexicon.Default())
	if s.Total != len(rs) || s.Tagged != len(rs) {
		t.Errorf("summary totals: %+v", s)
	}
	if s.ByGel["gelatin"] == 0 || s.ByGel["kanten"] == 0 || s.ByGel["agar"] == 0 {
		t.Errorf("gel split: %v", s.ByGel)
	}
	if s.DistinctTerms < 20 {
		t.Errorf("distinct terms = %d, suspiciously few", s.DistinctTerms)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestGenerateRejectsBadScale(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("scale 0 should fail")
	}
}

func TestToKatakana(t *testing.T) {
	if got := toKatakana("ぷるぷる"); got != "プルプル" {
		t.Errorf("toKatakana = %q", got)
	}
	// Non-hiragana passes through.
	if got := toKatakana("abcー"); got != "abcー" {
		t.Errorf("toKatakana = %q", got)
	}
}

func TestGenerateStepsMatchComposition(t *testing.T) {
	rs, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if len(r.Steps) < 3 {
			t.Fatalf("%s has %d steps", r.ID, len(r.Steps))
		}
		// Steps are chosen from the generator's target doses; realized
		// concentrations shift slightly under unit rounding, so only
		// clearly dominant compositions are asserted (2× margin).
		gels := r.GelConcentrations()
		joined := strings.Join(r.Steps, " ")
		switch {
		case gels[recipe.Kanten] > 2*gels[recipe.Gelatin] && gels[recipe.Kanten] > 2*gels[recipe.Agar]:
			if !strings.Contains(joined, "沸騰") {
				t.Errorf("%s: kanten recipe without a boil step: %v", r.ID, r.Steps)
			}
			if !strings.Contains(joined, "常温でかため") {
				t.Errorf("%s: kanten recipe should set at room temperature", r.ID)
			}
		case gels[recipe.Gelatin] > 2*gels[recipe.Kanten] && gels[recipe.Gelatin] > 2*gels[recipe.Agar]:
			if !strings.Contains(joined, "ふやかし") {
				t.Errorf("%s: gelatin recipe without blooming: %v", r.ID, r.Steps)
			}
			if !strings.Contains(joined, "れいぞうこ") {
				t.Errorf("%s: gelatin recipe should chill", r.ID)
			}
		}
		// Whipping appears only with whippable emulsions.
		emus := r.EmulsionConcentrations()
		if strings.Contains(joined, "あわだて") &&
			emus[recipe.RawCream] == 0 && emus[recipe.EggAlbumen] == 0 {
			t.Errorf("%s: whip step without cream or albumen", r.ID)
		}
	}
}

func TestGenerateToStreamsValidJSONL(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UntaggedPerTagged = 2
	var buf bytes.Buffer
	const n = 400
	if err := GenerateTo(cfg, &buf, n); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(buf.Bytes(), []byte{'\n'}); got != n {
		t.Fatalf("emitted %d lines, want %d", got, n)
	}
	recipes, report, err := recipe.ReadJSONLenient(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Skipped) != 0 || len(recipes) != n {
		t.Fatalf("lenient decode: %d recipes, report %+v", len(recipes), report)
	}
	tagged, untagged := 0, 0
	for _, r := range recipes {
		if err := r.Resolve(); err != nil {
			t.Fatalf("streamed recipe %s does not resolve: %v", r.ID, err)
		}
		if r.Truth >= 0 {
			tagged++
		} else {
			untagged++
		}
	}
	// U = 2 → untagged fraction converges to 2/3.
	frac := float64(untagged) / float64(n)
	if frac < 0.55 || frac > 0.78 {
		t.Errorf("untagged fraction = %.2f (%d/%d), want ≈ 2/3", frac, untagged, n)
	}
}

func TestGenerateToDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	var a, b bytes.Buffer
	if err := GenerateTo(cfg, &a, 120); err != nil {
		t.Fatal(err)
	}
	if err := GenerateTo(cfg, &b, 120); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed, same n: streamed corpora differ")
	}
	var c bytes.Buffer
	cfg.Seed++
	if err := GenerateTo(cfg, &c, 120); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestGenerateToRejectsNegativeSize(t *testing.T) {
	if err := GenerateTo(DefaultConfig(), io.Discard, -1); err == nil {
		t.Fatal("negative size accepted")
	}
	if err := GenerateTo(DefaultConfig(), io.Discard, 0); err != nil {
		t.Fatalf("zero size should be a no-op, got %v", err)
	}
}
