package eval

import (
	"math"
	"testing"
)

func TestContingencyPerfect(t *testing.T) {
	pred := []int{0, 0, 1, 1, 2, 2}
	truth := []int{5, 5, 7, 7, 9, 9} // relabeled but identical partition
	c, err := NewContingency(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Purity(); got != 1 {
		t.Errorf("purity = %g", got)
	}
	if got := c.NMI(); math.Abs(got-1) > 1e-12 {
		t.Errorf("NMI = %g", got)
	}
	if got := c.VMeasure(); math.Abs(got-1) > 1e-12 {
		t.Errorf("V = %g", got)
	}
}

func TestContingencyRandom(t *testing.T) {
	// Independent labels: MI ≈ 0.
	pred := []int{0, 1, 0, 1, 0, 1, 0, 1}
	truth := []int{0, 0, 1, 1, 0, 0, 1, 1}
	c, err := NewContingency(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.MutualInformation(); math.Abs(got) > 1e-12 {
		t.Errorf("MI = %g, want 0", got)
	}
	if got := c.NMI(); math.Abs(got) > 1e-12 {
		t.Errorf("NMI = %g, want 0", got)
	}
	if got := c.Purity(); got != 0.5 {
		t.Errorf("purity = %g, want 0.5", got)
	}
}

func TestContingencyPartial(t *testing.T) {
	pred := []int{0, 0, 0, 1, 1, 1}
	truth := []int{0, 0, 1, 1, 1, 1}
	c, err := NewContingency(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Purity(); math.Abs(got-5.0/6) > 1e-12 {
		t.Errorf("purity = %g", got)
	}
	nmi := c.NMI()
	if nmi <= 0 || nmi >= 1 {
		t.Errorf("NMI = %g, want in (0,1)", nmi)
	}
	v := c.VMeasure()
	if v <= 0 || v >= 1 {
		t.Errorf("V = %g, want in (0,1)", v)
	}
}

func TestContingencyErrors(t *testing.T) {
	if _, err := NewContingency([]int{1}, []int{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewContingency(nil, nil); err == nil {
		t.Error("empty should fail")
	}
}

func TestPerplexity(t *testing.T) {
	// Uniform model over 4 words → perplexity 4.
	docs := [][]int{{0, 1}, {2, 3}}
	theta := [][]float64{{1}, {1}}
	phi := [][]float64{{0.25, 0.25, 0.25, 0.25}}
	p, err := Perplexity(docs, theta, phi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-4) > 1e-9 {
		t.Errorf("perplexity = %g, want 4", p)
	}
	// Better model → lower perplexity.
	phi2 := [][]float64{{0.4, 0.4, 0.1, 0.1}}
	docs2 := [][]int{{0, 1}, {0, 1}}
	p2, err := Perplexity(docs2, theta, phi2)
	if err != nil {
		t.Fatal(err)
	}
	if p2 >= 4 {
		t.Errorf("informed perplexity = %g, want < 4", p2)
	}
	// Errors.
	if _, err := Perplexity(docs, theta[:1], phi); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Perplexity([][]int{{}}, [][]float64{{1}}, phi); err == nil {
		t.Error("no words should fail")
	}
	zero := [][]float64{{0, 1, 0, 0}}
	if _, err := Perplexity([][]int{{0}}, theta[:1], zero); err == nil {
		t.Error("zero probability should fail")
	}
}

func TestBootstrapClusterMetric(t *testing.T) {
	// Mostly correct clustering with some noise.
	var pred, truth []int
	for i := 0; i < 300; i++ {
		k := i % 3
		truth = append(truth, k)
		if i%11 == 0 {
			pred = append(pred, (k+1)%3)
		} else {
			pred = append(pred, k)
		}
	}
	ci, err := BootstrapClusterMetric(pred, truth,
		func(c *Contingency) float64 { return c.Purity() }, 200, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(ci.Lo <= ci.Point && ci.Point <= ci.Hi) {
		t.Errorf("CI does not bracket the point: %+v", ci)
	}
	if ci.Hi-ci.Lo <= 0 || ci.Hi-ci.Lo > 0.2 {
		t.Errorf("implausible CI width: %+v", ci)
	}
	if math.Abs(ci.Point-float64(300-28)/300) > 0.01 {
		t.Errorf("point = %g", ci.Point)
	}
	// Deterministic for a seed.
	ci2, err := BootstrapClusterMetric(pred, truth,
		func(c *Contingency) float64 { return c.Purity() }, 200, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ci != ci2 {
		t.Error("bootstrap not deterministic for fixed seed")
	}
	// Validation.
	if _, err := BootstrapClusterMetric(pred, truth[:10], nil, 200, 0.95, 1); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := BootstrapClusterMetric(pred, truth, nil, 5, 0.95, 1); err == nil {
		t.Error("too few resamples should fail")
	}
	if _, err := BootstrapClusterMetric(pred, truth, nil, 100, 1.5, 1); err == nil {
		t.Error("bad level should fail")
	}
}
