package recipe

import (
	"bytes"
	"math"
	"testing"
)

// jellyRecipe is 5 g gelatin + 45 g sugar + 450 g water: a 1%
// gelatin, 9% sugar jelly with total weight 500 g.
func jellyRecipe() *Recipe {
	return &Recipe{
		ID:    "r1",
		Title: "ぷるぷるゼリー",
		Ingredients: []Ingredient{
			{Name: "ゼラチン", Amount: "5g"},
			{Name: "砂糖", Amount: "45g"},
			{Name: "水", Amount: "450ml"},
		},
	}
}

func TestResolveAndConcentrations(t *testing.T) {
	r := jellyRecipe()
	if err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	if got := r.TotalGrams(); math.Abs(got-500) > 1e-9 {
		t.Fatalf("total = %g, want 500", got)
	}
	gel := r.GelConcentrations()
	if math.Abs(gel[Gelatin]-0.01) > 1e-12 {
		t.Errorf("gelatin conc = %g, want 0.01", gel[Gelatin])
	}
	if gel[Kanten] != 0 || gel[Agar] != 0 {
		t.Error("kanten/agar should be zero")
	}
	emu := r.EmulsionConcentrations()
	if math.Abs(emu[Sugar]-0.09) > 1e-12 {
		t.Errorf("sugar conc = %g, want 0.09", emu[Sugar])
	}
	if !r.HasGel() {
		t.Error("HasGel should be true")
	}
}

func TestResolveUnits(t *testing.T) {
	r := &Recipe{
		ID: "r2",
		Ingredients: []Ingredient{
			{Name: "板ゼラチン", Amount: "4枚"},   // 4 × 1.5 g = 6 g
			{Name: "牛乳", Amount: "1カップ"},    // 200 mL × 1.03 = 206 g
			{Name: "砂糖", Amount: "大さじ2"},    // 2 × 15 × 0.6 = 18 g
			{Name: "生クリーム", Amount: "1パック"}, // 200 g
		},
	}
	if err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	want := []float64{6, 206, 18, 200}
	for i, w := range want {
		if math.Abs(r.Ingredients[i].Grams-w) > 1e-9 {
			t.Errorf("%s = %g g, want %g", r.Ingredients[i].Name, r.Ingredients[i].Grams, w)
		}
	}
}

func TestResolveAliasesAndScripts(t *testing.T) {
	r := &Recipe{ID: "r3", Ingredients: []Ingredient{
		{Name: "グラニュー糖", Amount: "10g"},
		{Name: "ミルク", Amount: "100ml"},
		{Name: "粉ゼラチン", Amount: "3g"},
	}}
	if err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	if r.Ingredients[0].Emulsion != Sugar || r.Ingredients[0].Category != CategoryEmulsion {
		t.Error("グラニュー糖 should resolve to sugar")
	}
	if r.Ingredients[1].Emulsion != Milk {
		t.Error("ミルク should resolve to milk")
	}
	if r.Ingredients[2].Gel != Gelatin {
		t.Error("粉ゼラチン should resolve to gelatin")
	}
}

func TestResolveUnknownIngredient(t *testing.T) {
	r := &Recipe{ID: "r4", Ingredients: []Ingredient{
		{Name: "謎の食材", Amount: "50g"},
		{Name: "ゼラチン", Amount: "5g"},
	}}
	if err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	if r.Ingredients[0].Known {
		t.Error("unknown ingredient marked known")
	}
	if r.Ingredients[0].Category != CategoryOther {
		t.Error("unknown ingredient should be CategoryOther")
	}
	if r.Ingredients[0].Grams != 50 {
		t.Error("grams should still resolve")
	}
}

func TestResolveBadAmount(t *testing.T) {
	r := &Recipe{ID: "r5", Ingredients: []Ingredient{{Name: "水", Amount: "たくさん"}}}
	if err := r.Resolve(); err == nil {
		t.Error("unparseable amount should error")
	}
}

func TestUnrelatedFraction(t *testing.T) {
	r := &Recipe{ID: "r6", Ingredients: []Ingredient{
		{Name: "ゼラチン", Amount: "5g"},
		{Name: "水", Amount: "415ml"},
		{Name: "いちご", Amount: "80g"}, // 16% of 500
	}}
	if err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	if got := r.UnrelatedFraction(); math.Abs(got-0.16) > 1e-9 {
		t.Errorf("unrelated = %g, want 0.16", got)
	}
	// Juice counts as base, not unrelated.
	r2 := &Recipe{ID: "r7", Ingredients: []Ingredient{
		{Name: "ゼラチン", Amount: "5g"},
		{Name: "ジュース", Amount: "495ml"},
	}}
	if err := r2.Resolve(); err != nil {
		t.Fatal(err)
	}
	if got := r2.UnrelatedFraction(); got != 0 {
		t.Errorf("juice-based recipe unrelated = %g, want 0", got)
	}
}

func TestInfoQuantity(t *testing.T) {
	if got := InfoQuantity(0.01); math.Abs(got-math.Log(100)) > 1e-12 {
		t.Errorf("InfoQuantity(0.01) = %g", got)
	}
	// Zero floors at epsilon.
	if got := InfoQuantity(0); math.Abs(got+math.Log(EpsilonConcentration)) > 1e-12 {
		t.Errorf("InfoQuantity(0) = %g", got)
	}
	// Monotone decreasing.
	if InfoQuantity(0.02) >= InfoQuantity(0.01) {
		t.Error("InfoQuantity should decrease with concentration")
	}
	// Values above 1 clamp.
	if got := InfoQuantity(2); got != 0 {
		t.Errorf("InfoQuantity(2) = %g, want 0", got)
	}
	// Round trip.
	for _, x := range []float64{0.001, 0.01, 0.3, 1} {
		if got := Concentration(InfoQuantity(x)); math.Abs(got-x) > 1e-12 {
			t.Errorf("round trip %g → %g", x, got)
		}
	}
}

func TestInfoQuantityEps(t *testing.T) {
	if got := InfoQuantityEps(0, 0.01); math.Abs(got-math.Log(100)) > 1e-12 {
		t.Errorf("InfoQuantityEps = %g", got)
	}
}

func TestFeatureVectors(t *testing.T) {
	r := jellyRecipe()
	if err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	gf := r.GelFeatures()
	if len(gf) != NumGels {
		t.Fatalf("gel features len %d", len(gf))
	}
	if math.Abs(gf[Gelatin]-InfoQuantity(0.01)) > 1e-12 {
		t.Errorf("gel feature = %g", gf[Gelatin])
	}
	if gf[Kanten] != InfoQuantity(0) {
		t.Error("absent gel should be at the epsilon feature")
	}
	ef := r.EmulsionFeatures()
	if len(ef) != NumEmulsions {
		t.Fatalf("emulsion features len %d", len(ef))
	}
	if math.Abs(ef[Sugar]-InfoQuantity(0.09)) > 1e-12 {
		t.Errorf("sugar feature = %g", ef[Sugar])
	}
	// Round-trip through ConcentrationVector.
	back := ConcentrationVector(gf)
	if math.Abs(back[Gelatin]-0.01) > 1e-12 {
		t.Errorf("round trip = %g", back[Gelatin])
	}
}

func TestFilter(t *testing.T) {
	mk := func(id string, ings ...Ingredient) *Recipe {
		r := &Recipe{ID: id, Ingredients: ings}
		if err := r.Resolve(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	good := mk("good",
		Ingredient{Name: "ゼラチン", Amount: "5g"},
		Ingredient{Name: "水", Amount: "495ml"})
	noGel := mk("nogel",
		Ingredient{Name: "砂糖", Amount: "50g"},
		Ingredient{Name: "水", Amount: "450ml"})
	fruity := mk("fruity",
		Ingredient{Name: "ゼラチン", Amount: "5g"},
		Ingredient{Name: "水", Amount: "295ml"},
		Ingredient{Name: "いちご", Amount: "200g"})

	paper := FilterConfig{MaxUnrelatedFraction: 0.10, RequireGel: true}
	kept, stats := Filter([]*Recipe{good, noGel, fruity}, paper)
	if len(kept) != 1 || kept[0].ID != "good" {
		t.Fatalf("kept = %v", kept)
	}
	if stats.NoGel != 1 || stats.TooUnrelated != 1 || stats.Kept != 1 || stats.Input != 3 {
		t.Errorf("stats = %+v", stats)
	}

	// Texture requirement delegated.
	cfg := paper
	cfg.RequireTexture = true
	cfg.HasTexture = func(r *Recipe) bool { return r.ID != "good" }
	kept, stats = Filter([]*Recipe{good, fruity}, cfg)
	if len(kept) != 0 || stats.NoTexture != 1 {
		t.Errorf("texture filter: kept=%d stats=%+v", len(kept), stats)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := jellyRecipe()
	r.Description = "ぷるぷるです"
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Recipe{r}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "r1" || got[0].Description != "ぷるぷるです" ||
		len(got[0].Ingredients) != 3 || got[0].Ingredients[0].Name != "ゼラチン" {
		t.Errorf("round trip = %+v", got)
	}
}

func TestEnumStrings(t *testing.T) {
	if Gelatin.String() != "gelatin" || Kanten.String() != "kanten" || Agar.String() != "agar" {
		t.Error("gel strings")
	}
	if Sugar.String() != "sugar" || Yogurt.String() != "yogurt" {
		t.Error("emulsion strings")
	}
	if CategoryGel.String() != "gel" || CategoryWater.String() != "water" {
		t.Error("category strings")
	}
}

func TestLookupIngredient(t *testing.T) {
	info, ok := LookupIngredient("ゼラチン")
	if !ok || info.Gel != Gelatin {
		t.Error("ゼラチン lookup failed")
	}
	// Katakana/hiragana/alias variants.
	if _, ok := LookupIngredient("あがー"); !ok {
		t.Error("alias lookup failed")
	}
	if _, ok := LookupIngredient("存在しない"); ok {
		t.Error("unexpected lookup hit")
	}
	if len(KnownIngredients()) < 20 {
		t.Error("registry suspiciously small")
	}
}

// Resolve is idempotent: resolving twice changes nothing.
func TestResolveIdempotent(t *testing.T) {
	r := jellyRecipe()
	if err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	first := make([]float64, len(r.Ingredients))
	for i, ing := range r.Ingredients {
		first[i] = ing.Grams
	}
	if err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	for i, ing := range r.Ingredients {
		if ing.Grams != first[i] {
			t.Fatalf("ingredient %d changed on re-resolve: %g vs %g", i, ing.Grams, first[i])
		}
	}
}

// Concentration vectors always sum to at most 1 and are non-negative.
func TestConcentrationInvariants(t *testing.T) {
	r := jellyRecipe()
	if err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	gels := r.GelConcentrations()
	emus := r.EmulsionConcentrations()
	sum := 0.0
	for _, c := range gels {
		if c < 0 {
			t.Fatal("negative gel concentration")
		}
		sum += c
	}
	for _, c := range emus {
		if c < 0 {
			t.Fatal("negative emulsion concentration")
		}
		sum += c
	}
	if sum > 1+1e-12 {
		t.Fatalf("concentrations sum to %g", sum)
	}
	// Zero-weight recipe: all zero, no NaN.
	empty := &Recipe{ID: "e"}
	for _, c := range empty.GelConcentrations() {
		if c != 0 {
			t.Fatal("empty recipe should have zero concentrations")
		}
	}
	if empty.UnrelatedFraction() != 0 {
		t.Fatal("empty recipe unrelated fraction")
	}
}
