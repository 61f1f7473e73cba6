package rheology

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/recipe"
)

func TestTableIShape(t *testing.T) {
	if len(TableI) != 13 {
		t.Fatalf("Table I has %d rows, want 13", len(TableI))
	}
	// All single-gel except data 5.
	for i, m := range TableI {
		n := 0
		for _, c := range m.Gels {
			if c > 0 {
				n++
			}
		}
		if i == 4 {
			if n != 2 {
				t.Errorf("data 5 should be a two-gel mixture")
			}
		} else if n != 1 {
			t.Errorf("data %s should be single-gel, has %d gels", m.ID, n)
		}
	}
	// Monotone hardness within each pure-gel series.
	check := func(rows []int) {
		for i := 1; i < len(rows); i++ {
			if TableI[rows[i]].Attr.Hardness <= TableI[rows[i-1]].Attr.Hardness {
				// Agar's last row (13) dips; only the first three must rise.
				t.Errorf("hardness not increasing at row %s", TableI[rows[i]].ID)
			}
		}
	}
	check([]int{0, 1, 2, 3}) // gelatin
	check([]int{5, 6, 7, 8}) // kanten
	check([]int{9, 10, 11})  // agar (first three)
}

func TestPredictReproducesSingleGelRows(t *testing.T) {
	for i, m := range TableI {
		if i == 4 {
			continue // mixture row tested separately
		}
		got := PredictMeasurement(m)
		if math.Abs(got.Hardness-m.Attr.Hardness) > 1e-9 ||
			math.Abs(got.Cohesiveness-m.Attr.Cohesiveness) > 1e-9 ||
			math.Abs(got.Adhesiveness-m.Attr.Adhesiveness) > 1e-9 {
			t.Errorf("data %s: predicted %+v, measured %+v", m.ID, got, m.Attr)
		}
	}
}

func TestPredictMixtureRow(t *testing.T) {
	m := TableI[4] // gelatin 0.03 + agar 0.03
	got := PredictMeasurement(m)
	relErr := func(a, b float64) float64 { return math.Abs(a-b) / b }
	if relErr(got.Hardness, m.Attr.Hardness) > 0.05 {
		t.Errorf("mixture hardness = %g, measured %g", got.Hardness, m.Attr.Hardness)
	}
	if relErr(got.Cohesiveness, m.Attr.Cohesiveness) > 0.05 {
		t.Errorf("mixture cohesiveness = %g, measured %g", got.Cohesiveness, m.Attr.Cohesiveness)
	}
	if relErr(got.Adhesiveness, m.Attr.Adhesiveness) > 0.1 {
		t.Errorf("mixture adhesiveness = %g, measured %g", got.Adhesiveness, m.Attr.Adhesiveness)
	}
}

func TestPredictReproducesDishes(t *testing.T) {
	// The calibration constants were fitted to these two dishes; verify
	// the fit holds to ~15%.
	for _, m := range []Measurement{Bavarois, MilkJelly} {
		got := PredictMeasurement(m)
		if math.Abs(got.Hardness-m.Attr.Hardness)/m.Attr.Hardness > 0.15 {
			t.Errorf("%s hardness = %g, measured %g", m.ID, got.Hardness, m.Attr.Hardness)
		}
		if math.Abs(got.Cohesiveness-m.Attr.Cohesiveness)/m.Attr.Cohesiveness > 0.15 {
			t.Errorf("%s cohesiveness = %g, measured %g", m.ID, got.Cohesiveness, m.Attr.Cohesiveness)
		}
	}
	// Ordering: Bavarois harder and more cohesive than Milk jelly; both
	// harder than the pure gel.
	b, mj := PredictMeasurement(Bavarois), PredictMeasurement(MilkJelly)
	pure := PredictMeasurement(PureGelatin25)
	if !(b.Hardness > mj.Hardness && mj.Hardness > pure.Hardness) {
		t.Errorf("hardness ordering violated: %g, %g, %g", b.Hardness, mj.Hardness, pure.Hardness)
	}
	if !(b.Cohesiveness > mj.Cohesiveness) {
		t.Errorf("cohesiveness ordering violated: %g vs %g", b.Cohesiveness, mj.Cohesiveness)
	}
}

func TestPredictMonotoneInGelatin(t *testing.T) {
	prev := -1.0
	for c := 0.005; c <= 0.05; c += 0.002 {
		a := Predict([recipe.NumGels]float64{c, 0, 0}, [recipe.NumEmulsions]float64{})
		if a.Hardness < prev {
			t.Fatalf("gelatin hardness not monotone at %g", c)
		}
		prev = a.Hardness
	}
}

func TestPredictZeroGelsIsZero(t *testing.T) {
	a := Predict([recipe.NumGels]float64{}, [recipe.NumEmulsions]float64{0.1, 0, 0, 0.2, 0.4, 0})
	if a.Hardness != 0 || a.Cohesiveness != 0 || a.Adhesiveness != 0 {
		t.Errorf("no gel should mean no gel texture: %+v", a)
	}
}

func TestPredictEmulsionDirections(t *testing.T) {
	gels := [recipe.NumGels]float64{0.025, 0, 0}
	base := Predict(gels, [recipe.NumEmulsions]float64{})
	withCream := Predict(gels, [recipe.NumEmulsions]float64{0, 0, 0, 0.2, 0, 0})
	withMilk := Predict(gels, [recipe.NumEmulsions]float64{0, 0, 0, 0, 0.5, 0})
	if withCream.Hardness <= base.Hardness || withMilk.Hardness <= base.Hardness {
		t.Error("emulsions should harden the gel")
	}
	if withCream.Cohesiveness <= base.Cohesiveness {
		t.Error("cream should raise cohesiveness")
	}
	if withCream.Adhesiveness >= base.Adhesiveness {
		t.Error("cream should suppress adhesiveness")
	}
	if withCream.Hardness <= withMilk.Hardness {
		t.Error("fat-phase emulsions should harden more than milk at comparable share")
	}
}

func TestMeasurementFeatureVectors(t *testing.T) {
	m := TableI[0]
	gf := m.GelFeatures()
	if len(gf) != recipe.NumGels {
		t.Fatal("bad dims")
	}
	if math.Abs(gf[recipe.Gelatin]-recipe.InfoQuantity(0.018)) > 1e-12 {
		t.Error("gel feature wrong")
	}
	if gf[recipe.Kanten] != recipe.InfoQuantity(0) {
		t.Error("absent gel should floor")
	}
	if len(m.EmulsionFeatures()) != recipe.NumEmulsions {
		t.Error("bad emulsion dims")
	}
	if m.String() == "" {
		t.Error("accessors")
	}
}

func TestSimulateExtractRoundTrip(t *testing.T) {
	f := func(h, c, a uint8) bool {
		attr := Attributes{
			Hardness:     0.2 + float64(h%50)/10,
			Cohesiveness: 0.05 + float64(c%90)/100,
			Adhesiveness: float64(a%30) / 10,
		}
		got, err := Simulate(attr).Extract()
		if err != nil {
			return false
		}
		return math.Abs(got.Hardness-attr.Hardness) < 0.02*attr.Hardness+1e-9 &&
			math.Abs(got.Cohesiveness-attr.Cohesiveness) < 0.03 &&
			math.Abs(got.Adhesiveness-attr.Adhesiveness) < 0.05*attr.Adhesiveness+0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSimulateCurveShape(t *testing.T) {
	attr := Attributes{Hardness: 2, Cohesiveness: 0.5, Adhesiveness: 1}
	c := Simulate(attr)
	if c.PeakForce() > 2.001 || c.PeakForce() < 1.9 {
		t.Errorf("peak = %g, want ≈ 2", c.PeakForce())
	}
	// Negative lobe must exist for a sticky sample.
	hasNeg := false
	for _, p := range c.Points {
		if p.F < 0 {
			hasNeg = true
			break
		}
	}
	if !hasNeg {
		t.Error("sticky sample should pull the probe (negative force)")
	}
	// Non-sticky sample shows no negative force.
	c2 := Simulate(Attributes{Hardness: 2, Cohesiveness: 0.5})
	for _, p := range c2.Points {
		if p.F < 0 {
			t.Fatal("non-sticky sample must not go negative")
		}
	}
	if c.Duration() <= 0 {
		t.Error("zero duration")
	}
}

func TestExtractRejectsDegenerateCurves(t *testing.T) {
	if _, err := (Curve{DT: 0.01}).Extract(); err == nil {
		t.Error("empty curve should error")
	}
	one := Curve{DT: 0.01, Points: []ForcePoint{{0, 1}, {0.01, 2}, {0.02, 1}}}
	if _, err := one.Extract(); err == nil {
		t.Error("single-lobe curve should error")
	}
}

func TestASCIIPlot(t *testing.T) {
	c := Simulate(Attributes{Hardness: 2, Cohesiveness: 0.5, Adhesiveness: 1})
	plot := c.ASCIIPlot(10, 60)
	if len(plot) == 0 {
		t.Fatal("empty plot")
	}
	if c.ASCIIPlot(1, 5) != "" {
		t.Error("degenerate dims should return empty")
	}
}

func TestDishesData(t *testing.T) {
	// Table II(b) invariants: both dishes share the 2.5% gelatin dose of
	// Table I data 3 and differ only in emulsions.
	if Bavarois.Gels != MilkJelly.Gels || Bavarois.Gels != PureGelatin25.Gels {
		t.Error("dish gel settings must match Table I data 3")
	}
	if Bavarois.Attr.Hardness <= MilkJelly.Attr.Hardness {
		t.Error("Bavarois is the harder dish in Table II(b)")
	}
	if Bavarois.Attr.Cohesiveness <= MilkJelly.Attr.Cohesiveness {
		t.Error("Bavarois is the more cohesive dish in Table II(b)")
	}
}

// PeakForce returns the maximum force over the whole curve.
func (c Curve) PeakForce() float64 {
	m := 0.0
	for _, p := range c.Points {
		if p.F > m {
			m = p.F
		}
	}
	return m
}
