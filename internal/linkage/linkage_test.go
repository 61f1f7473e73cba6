package linkage

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lexicon"
	"repro/internal/recipe"
	"repro/internal/rheology"
	"repro/internal/stats"
)

// fakeResult builds a Result with three gel components centered on
// chosen concentrations and φ rows concentrated on chosen terms.
func fakeResult(t *testing.T, concs [][3]float64, termSets [][]string, termProbs [][]float64) *core.Result {
	t.Helper()
	dict := lexicon.Default()
	k := len(concs)
	res := &core.Result{K: k, V: dict.Len()}
	for i := 0; i < k; i++ {
		mean := recipe.FeatureVector(concs[i][:])
		res.Gel = append(res.Gel, core.Component{Mean: mean, Precision: stats.ScaledIdentity(3, 50)})
		res.Emu = append(res.Emu, core.Component{
			Mean:      recipe.FeatureVector(make([]float64, recipe.NumEmulsions)),
			Precision: stats.ScaledIdentity(recipe.NumEmulsions, 10),
		})
		row := make([]float64, dict.Len())
		rest := 1.0
		for j, romaji := range termSets[i] {
			term, ok := dict.ByRomaji(romaji)
			if !ok {
				t.Fatalf("term %q missing", romaji)
			}
			row[term.ID] = termProbs[i][j]
			rest -= termProbs[i][j]
		}
		// Spread the remainder to keep φ a distribution.
		spread := rest / float64(dict.Len())
		for v := range row {
			row[v] += spread
		}
		res.Phi = append(res.Phi, row)
	}
	return res
}

// threeTopicResult: soft low-gelatin, hard high-gelatin, hard kanten.
func threeTopicResult(t *testing.T) *core.Result {
	return fakeResult(t,
		[][3]float64{{0.019, 0, 0}, {0.028, 0, 0}, {0, 0.012, 0}},
		[][]string{{"furufuru"}, {"katai", "muchimuchi"}, {"dossiri", "korit"}},
		[][]float64{{0.9}, {0.6, 0.3}, {0.6, 0.3}},
	)
}

func TestAssignMeasurementsMatchesGelBands(t *testing.T) {
	res := threeTopicResult(t)
	as, err := AssignMeasurements(res, rheology.TableI, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 13 {
		t.Fatalf("assigned %d rows", len(as))
	}
	byID := make(map[string]Assignment)
	for _, a := range as {
		byID[a.Measurement.ID] = a
	}
	// Rows 1-2 (gelatin .018/.02) → topic 0; rows 3-4 (.025/.03) → topic 1;
	// kanten rows 6-9 → topic 2.
	for _, id := range []string{"1", "2"} {
		if byID[id].Topic != 0 {
			t.Errorf("row %s → topic %d, want 0", id, byID[id].Topic)
		}
	}
	for _, id := range []string{"3", "4"} {
		if byID[id].Topic != 1 {
			t.Errorf("row %s → topic %d, want 1", id, byID[id].Topic)
		}
	}
	for _, id := range []string{"6", "7", "8", "9"} {
		if byID[id].Topic != 2 {
			t.Errorf("row %s → topic %d, want 2", id, byID[id].Topic)
		}
	}
	// Divergences are the per-topic minimum and non-negative.
	for _, a := range as {
		if a.Divergence < 0 {
			t.Errorf("row %s negative divergence", a.Measurement.ID)
		}
		for _, d := range a.PerTopic {
			if d < a.Divergence-1e-9 {
				t.Errorf("row %s divergence not minimal", a.Measurement.ID)
			}
		}
	}
}

func TestAssignMeasurementsConfig(t *testing.T) {
	res := threeTopicResult(t)
	if _, err := AssignMeasurements(res, rheology.TableI, Config{SettingSigma: 0}); err == nil {
		t.Error("zero σ should fail")
	}
}

func TestTopicAxisScore(t *testing.T) {
	res := threeTopicResult(t)
	dict := lexicon.Default()
	soft := TopicAxisScore(res, dict, 0, lexicon.Hardness)
	hard := TopicAxisScore(res, dict, 1, lexicon.Hardness)
	if soft >= 0 {
		t.Errorf("furufuru topic hardness score = %g, want negative", soft)
	}
	if hard <= 0.3 {
		t.Errorf("katai topic hardness score = %g, want strongly positive", hard)
	}
}

func TestValidateSpearman(t *testing.T) {
	res := threeTopicResult(t)
	as, err := AssignMeasurements(res, rheology.TableI, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	val := Validate(res, lexicon.Default(), as)
	// Hardness must correlate positively: soft rows land in the furufuru
	// topic, hard rows in katai/dossiri topics. Three topics give only
	// three distinct scores for thirteen rows (and the agar rows have no
	// dedicated topic here), so the rank correlation is muted; the
	// integration test in the bench suite checks the full-pipeline value.
	if r := val.Spearman[lexicon.Hardness]; r < 0.3 {
		t.Errorf("hardness Spearman = %.3f, want ≥ 0.3", r)
	}
}

func TestTopicMeanConcentrations(t *testing.T) {
	res := threeTopicResult(t)
	c := TopicMeanConcentrations(res, 0, 0.0005)
	if math.Abs(c[int(recipe.Gelatin)]-0.019) > 1e-6 {
		t.Errorf("gelatin conc = %g", c[int(recipe.Gelatin)])
	}
	if _, present := c[int(recipe.Kanten)]; present {
		t.Error("absent kanten should be filtered by the floor")
	}
}

// fig test fixtures: 40 docs in topic 0 with emulsion profiles either
// Bavarois-like or plain, and terms correlated with the profile.
func figFixture(t *testing.T) (*core.Result, []recipe.Doc, *lexicon.Dictionary) {
	t.Helper()
	dict := lexicon.Default()
	res := fakeResult(t,
		[][3]float64{{0.025, 0, 0}, {0, 0.01, 0}},
		[][]string{{"katai"}, {"dossiri"}},
		[][]float64{{0.9}, {0.9}},
	)
	// Theta assigns the first 40 docs to topic 0, the rest to topic 1.
	var docs []recipe.Doc
	termID := func(r string) int {
		term, ok := dict.ByRomaji(r)
		if !ok {
			t.Fatalf("missing %s", r)
		}
		return term.ID
	}
	bavaroisEmu := rheology.Bavarois.EmulsionFeatures()
	plainEmu := recipe.FeatureVector(make([]float64, recipe.NumEmulsions))
	for i := 0; i < 40; i++ {
		var doc recipe.Doc
		if i%2 == 0 {
			// Bavarois-like: hard + elastic terms.
			doc = recipe.Doc{RecipeID: "b", TermIDs: []int{termID("katai"), termID("burunburun")}, Emulsion: bavaroisEmu}
		} else {
			doc = recipe.Doc{RecipeID: "p", TermIDs: []int{termID("furufuru"), termID("horohoro")}, Emulsion: plainEmu}
		}
		doc.Gel = recipe.FeatureVector([]float64{0.025, 0, 0})
		docs = append(docs, doc)
		res.Theta = append(res.Theta, []float64{0.9, 0.1})
	}
	for i := 0; i < 10; i++ {
		docs = append(docs, recipe.Doc{
			RecipeID: "k",
			TermIDs:  []int{termID("dossiri")},
			Gel:      recipe.FeatureVector([]float64{0, 0.01, 0}),
			Emulsion: plainEmu,
		})
		res.Theta = append(res.Theta, []float64{0.1, 0.9})
	}
	return res, docs, dict
}

func TestBuildFigure3(t *testing.T) {
	res, docs, dict := figFixture(t)
	fig, err := BuildFigure3(res, docs, dict, 0, "Bavarois", rheology.Bavarois.EmulsionFeatures(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Bins) != 4 {
		t.Fatalf("bins = %d", len(fig.Bins))
	}
	total := 0
	for _, b := range fig.Bins {
		total += b.Recipes
	}
	if total != 40 {
		t.Errorf("binned %d recipes, want 40 (topic members only)", total)
	}
	// KL order: bins must be non-decreasing in mean KL.
	for i := 1; i < len(fig.Bins); i++ {
		if fig.Bins[i].MeanKL < fig.Bins[i-1].MeanKL-1e-9 {
			t.Error("bins not ordered by KL")
		}
	}
	// Low-KL bins are the Bavarois-like recipes: hard and elastic.
	first, last := fig.Bins[0], fig.Bins[3]
	if !(first.HardFraction() > last.HardFraction()) {
		t.Errorf("hard fraction should fall with KL: %.2f vs %.2f", first.HardFraction(), last.HardFraction())
	}
	if !(first.ElasticFraction() > last.ElasticFraction()) {
		t.Errorf("elastic fraction should fall with KL: %.2f vs %.2f", first.ElasticFraction(), last.ElasticFraction())
	}
}

func TestBuildFigure3Errors(t *testing.T) {
	res, docs, dict := figFixture(t)
	if _, err := BuildFigure3(res, docs, dict, 0, "x", rheology.Bavarois.EmulsionFeatures(), 1); err == nil {
		t.Error("1 bin should fail")
	}
	if _, err := BuildFigure3(res, docs, dict, 1, "x", rheology.Bavarois.EmulsionFeatures(), 100); err == nil {
		t.Error("more bins than members should fail")
	}
}

func TestBuildFigure4(t *testing.T) {
	res, docs, dict := figFixture(t)
	fig, err := BuildFigure4(res, docs, dict, 0, "Bavarois", rheology.Bavarois.EmulsionFeatures())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 40 {
		t.Fatalf("points = %d", len(fig.Points))
	}
	// Near-dish points (low KL = Bavarois-like) sit right (harder) and
	// up (more cohesive/elastic) of the topic star.
	h, c := fig.NearMeanKL(0.25)
	if h <= fig.StarX {
		t.Errorf("near-dish hardness %.3f should exceed star %.3f", h, fig.StarX)
	}
	if c <= fig.StarY {
		t.Errorf("near-dish cohesiveness %.3f should exceed star %.3f", c, fig.StarY)
	}
	// Empty topic errors.
	if _, err := BuildFigure4(res, docs, dict, 5, "x", rheology.Bavarois.EmulsionFeatures()); err == nil {
		t.Error("missing topic should fail")
	}
}

func TestEmulsionKLProperties(t *testing.T) {
	bav := rheology.Bavarois.EmulsionFeatures()
	plain := recipe.FeatureVector(make([]float64, recipe.NumEmulsions))
	if d := emulsionKL(bav, bav, smoothingEps); d > 1e-9 {
		t.Errorf("self KL = %g", d)
	}
	if d := emulsionKL(bav, plain, smoothingEps); d <= 0 {
		t.Errorf("cross KL = %g", d)
	}
	// Milk jelly emulsions are closer to milk-only than Bavarois is.
	milkOnly := recipe.FeatureVector([]float64{0, 0, 0, 0, 0.7, 0})
	mj := rheology.MilkJelly.EmulsionFeatures()
	if emulsionKL(mj, milkOnly, smoothingEps) >= emulsionKL(bav, milkOnly, smoothingEps) {
		t.Error("milk jelly should be nearer a milk-only recipe than Bavarois")
	}
}

func TestFig3BinFractions(t *testing.T) {
	b := Fig3Bin{Hard: 3, Soft: 1, Elastic: 0, Cohesive: 0}
	if b.HardFraction() != 0.75 {
		t.Errorf("hard fraction = %g", b.HardFraction())
	}
	if !math.IsNaN(b.ElasticFraction()) {
		t.Error("empty elastic fraction should be NaN")
	}
}
