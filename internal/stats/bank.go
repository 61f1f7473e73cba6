package stats

import "fmt"

// GaussianBank scores one point against K Gaussians in a single call.
// It is the struct-of-arrays form of []*Gaussian: all K means live in
// one flat slice, all K precision matrices in another, and the
// x-independent normalization constants are precomputed — so the
// sampler's y kernel walks three contiguous arrays instead of chasing
// K component pointers per document.
//
// Per-component arithmetic replicates Gaussian.LogPdfScratch exactly
// (same centering, same row-major quadratic form, same summation
// order), so a bank-scored weight vector is bit-identical to K
// individual LogPdfScratch calls. A bank is immutable between
// SetFromGaussians calls and safe for concurrent readers.
type GaussianBank struct {
	k, d     int
	means    []float64 // k*d, component-major
	prec     []float64 // k*d*d, component-major row-major
	logConst []float64 // k: 0.5*(log|Λ| − d·log2π)
}

// NewGaussianBank allocates a bank sized for k components of dimension
// d. Fill it with SetFromGaussians.
func NewGaussianBank(k, d int) *GaussianBank {
	return &GaussianBank{
		k:        k,
		d:        d,
		means:    make([]float64, k*d),
		prec:     make([]float64, k*d*d),
		logConst: make([]float64, k),
	}
}

// SetFromGaussians copies the parameters of gs into the bank's flat
// layout. Call it after components are redrawn; it allocates nothing.
func (b *GaussianBank) SetFromGaussians(gs []*Gaussian) error {
	if len(gs) != b.k {
		return fmt.Errorf("stats: bank sized for %d components, got %d", b.k, len(gs))
	}
	d := b.d
	for k, g := range gs {
		if g.Dim() != d {
			return fmt.Errorf("stats: bank dim %d, component %d has dim %d", d, k, g.Dim())
		}
		copy(b.means[k*d:(k+1)*d], g.Mean)
		copy(b.prec[k*d*d:(k+1)*d*d], g.Precision.Data)
		// Same expression LogPdfScratch evaluates per call, hoisted: the
		// subtraction and halving happen in the identical order, so
		// logConst − 0.5·q reproduces its result bit-for-bit.
		b.logConst[k] = 0.5 * (g.logDet - float64(d)*log2Pi)
	}
	return nil
}

// LogPdfInto assigns out[k] = logpdf_k(x) for every component — the
// same values AddLogPdf would accumulate, written instead of added, so
// a weight vector can be seeded without zeroing first.
func (b *GaussianBank) LogPdfInto(out, x []float64, diff []float64) {
	for i := range out[:b.k] {
		out[i] = 0
	}
	b.AddLogPdf(out, x, 1, diff)
}

// AddLogPdf accumulates out[k] += weight·logpdf_k(x) for every
// component, using diff (length ≥ Dim) as centering scratch. With
// weight 1 the addend is bit-identical to Gaussian.LogPdfScratch: the
// quadratic form keeps its row order and left-associative summation
// order, and where the scalar path skips a zero-centered coordinate
// the unrolled paths add its exactly-zero product — the same value.
// out, x and diff must not alias.
//
// Dimensions 3 and 6 (the paper's gel and emulsion feature spaces) run
// fully unrolled: at these sizes the generic nested loop spends more
// cycles on loop control and bounds checks than on arithmetic.
func (b *GaussianBank) AddLogPdf(out, x []float64, weight float64, diff []float64) {
	d := b.d
	if len(x) != d || len(diff) < d || len(out) < b.k {
		panic("stats: dim mismatch in GaussianBank.AddLogPdf")
	}
	switch d {
	case 3:
		b.addLogPdf3(out, x, weight)
		return
	case 6:
		b.addLogPdf6(out, x, weight)
		return
	}
	diff = diff[:d]
	for k := 0; k < b.k; k++ {
		mean := b.means[k*d : (k+1)*d]
		for i := 0; i < d; i++ {
			diff[i] = x[i] - mean[i]
		}
		p := b.prec[k*d*d : (k+1)*d*d]
		q := 0.0
		for i := 0; i < d; i++ {
			di := diff[i]
			if di == 0 {
				continue
			}
			row := p[i*d : (i+1)*d]
			s := 0.0
			for j := 0; j < d; j++ {
				s += row[j] * diff[j]
			}
			q += di * s
		}
		lp := b.logConst[k] - 0.5*q
		if weight == 1 {
			out[k] += lp
		} else {
			out[k] += weight * lp
		}
	}
}

func (b *GaussianBank) addLogPdf3(out, x []float64, weight float64) {
	x0, x1, x2 := x[0], x[1], x[2]
	means, prec, lc := b.means, b.prec, b.logConst
	for k := 0; k < b.k; k++ {
		m := means[k*3 : k*3+3 : k*3+3]
		d0 := x0 - m[0]
		d1 := x1 - m[1]
		d2 := x2 - m[2]
		p := prec[k*9 : k*9+9 : k*9+9]
		s0 := p[0]*d0 + p[1]*d1 + p[2]*d2
		s1 := p[3]*d0 + p[4]*d1 + p[5]*d2
		s2 := p[6]*d0 + p[7]*d1 + p[8]*d2
		q := d0*s0 + d1*s1 + d2*s2
		lp := lc[k] - 0.5*q
		if weight == 1 {
			out[k] += lp
		} else {
			out[k] += weight * lp
		}
	}
}

func (b *GaussianBank) addLogPdf6(out, x []float64, weight float64) {
	x0, x1, x2, x3, x4, x5 := x[0], x[1], x[2], x[3], x[4], x[5]
	means, prec, lc := b.means, b.prec, b.logConst
	for k := 0; k < b.k; k++ {
		m := means[k*6 : k*6+6 : k*6+6]
		d0 := x0 - m[0]
		d1 := x1 - m[1]
		d2 := x2 - m[2]
		d3 := x3 - m[3]
		d4 := x4 - m[4]
		d5 := x5 - m[5]
		p := prec[k*36 : k*36+36 : k*36+36]
		s0 := p[0]*d0 + p[1]*d1 + p[2]*d2 + p[3]*d3 + p[4]*d4 + p[5]*d5
		s1 := p[6]*d0 + p[7]*d1 + p[8]*d2 + p[9]*d3 + p[10]*d4 + p[11]*d5
		s2 := p[12]*d0 + p[13]*d1 + p[14]*d2 + p[15]*d3 + p[16]*d4 + p[17]*d5
		s3 := p[18]*d0 + p[19]*d1 + p[20]*d2 + p[21]*d3 + p[22]*d4 + p[23]*d5
		s4 := p[24]*d0 + p[25]*d1 + p[26]*d2 + p[27]*d3 + p[28]*d4 + p[29]*d5
		s5 := p[30]*d0 + p[31]*d1 + p[32]*d2 + p[33]*d3 + p[34]*d4 + p[35]*d5
		q := d0*s0 + d1*s1 + d2*s2 + d3*s3 + d4*s4 + d5*s5
		lp := lc[k] - 0.5*q
		if weight == 1 {
			out[k] += lp
		} else {
			out[k] += weight * lp
		}
	}
}

// ScoreTopics writes, for every topic k,
//
//	out[k] = logTab[ndk[k]] + gel_k(xg) + emuWeight·emu_k(xe)
//
// — the y kernel's whole per-document weight build in one pass over the
// topics instead of three (count prior, gel bank, emulsion bank). The
// per-topic sum keeps the multi-pass order (base, then the gel
// log-density, then the weighted emulsion log-density, left to right)
// and each log-density is the bank's own unrolled form, so the result
// is bit-identical to LogPdfInto/AddLogPdf sequencing. Passing emu nil
// drops the emulsion term (UseEmulsion=false); gelDiff/emuDiff are
// centering scratch for dimensions without an unrolled kernel.
func ScoreTopics(out, logTab []float64, ndk []int, gel *GaussianBank, xg, gelDiff []float64, emu *GaussianBank, xe []float64, emuWeight float64, emuDiff []float64) {
	if gel.d == 3 && emu != nil && emu.d == 6 && gel.k == emu.k {
		scoreTopics3x6(out, logTab, ndk, gel, xg, emu, xe, emuWeight)
		return
	}
	for k := range out[:gel.k] {
		out[k] = logTab[ndk[k]]
	}
	gel.AddLogPdf(out, xg, 1, gelDiff)
	if emu != nil {
		emu.AddLogPdf(out, xe, emuWeight, emuDiff)
	}
}

// scoreTopics3x6 is ScoreTopics fused and unrolled for the paper's
// feature shape (gel dim 3, emulsion dim 6).
func scoreTopics3x6(out, logTab []float64, ndk []int, gel *GaussianBank, xg []float64, emu *GaussianBank, xe []float64, w float64) {
	if len(xg) != 3 || len(xe) != 6 || len(out) < gel.k || len(ndk) < gel.k {
		panic("stats: dim mismatch in ScoreTopics")
	}
	g0, g1, g2 := xg[0], xg[1], xg[2]
	e0, e1, e2, e3, e4, e5 := xe[0], xe[1], xe[2], xe[3], xe[4], xe[5]
	gm, gp, glc := gel.means, gel.prec, gel.logConst
	em, ep, elc := emu.means, emu.prec, emu.logConst
	for k := 0; k < gel.k; k++ {
		m := gm[k*3 : k*3+3 : k*3+3]
		d0 := g0 - m[0]
		d1 := g1 - m[1]
		d2 := g2 - m[2]
		p := gp[k*9 : k*9+9 : k*9+9]
		s0 := p[0]*d0 + p[1]*d1 + p[2]*d2
		s1 := p[3]*d0 + p[4]*d1 + p[5]*d2
		s2 := p[6]*d0 + p[7]*d1 + p[8]*d2
		lpG := glc[k] - 0.5*(d0*s0+d1*s1+d2*s2)

		me := em[k*6 : k*6+6 : k*6+6]
		f0 := e0 - me[0]
		f1 := e1 - me[1]
		f2 := e2 - me[2]
		f3 := e3 - me[3]
		f4 := e4 - me[4]
		f5 := e5 - me[5]
		q := ep[k*36 : k*36+36 : k*36+36]
		t0 := q[0]*f0 + q[1]*f1 + q[2]*f2 + q[3]*f3 + q[4]*f4 + q[5]*f5
		t1 := q[6]*f0 + q[7]*f1 + q[8]*f2 + q[9]*f3 + q[10]*f4 + q[11]*f5
		t2 := q[12]*f0 + q[13]*f1 + q[14]*f2 + q[15]*f3 + q[16]*f4 + q[17]*f5
		t3 := q[18]*f0 + q[19]*f1 + q[20]*f2 + q[21]*f3 + q[22]*f4 + q[23]*f5
		t4 := q[24]*f0 + q[25]*f1 + q[26]*f2 + q[27]*f3 + q[28]*f4 + q[29]*f5
		t5 := q[30]*f0 + q[31]*f1 + q[32]*f2 + q[33]*f3 + q[34]*f4 + q[35]*f5
		lpE := elc[k] - 0.5*(f0*t0+f1*t1+f2*t2+f3*t3+f4*t4+f5*t5)

		base := logTab[ndk[k]]
		if w == 1 {
			out[k] = base + lpG + lpE
		} else {
			out[k] = base + lpG + w*lpE
		}
	}
}

// AddPredictiveLogPdf accumulates out[k] += weight·accs[k].PredictiveLogPdf(x)
// for every accumulator in one call — the batched form the collapsed y
// kernel uses. Each accumulator's forward substitution runs over the
// factor's flat backing array with the loop structure of
// NWAccum.PredictiveLogPdf, so with weight 1 the addend is
// bit-identical to the one-at-a-time calls.
func AddPredictiveLogPdf(out []float64, accs []*NWAccum, x []float64, weight float64) {
	if len(out) < len(accs) {
		panic("stats: output shorter than accumulator list in AddPredictiveLogPdf")
	}
	for k, a := range accs {
		lp := a.PredictiveLogPdf(x)
		if weight == 1 {
			out[k] += lp
		} else {
			out[k] += weight * lp
		}
	}
}
