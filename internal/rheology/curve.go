package rheology

import (
	"fmt"
	"math"
)

// ForcePoint is one sample of a rheometer force-time curve. Positive
// force is compression (probe descending into the sample); negative
// force is the pull the sticky sample exerts while the probe ascends.
type ForcePoint struct {
	T float64 // seconds
	F float64 // RU
}

// Curve is a simulated two-compression TPA force-time curve, the shape
// of the paper's Figure 2.
type Curve struct {
	Points []ForcePoint
	DT     float64 // sampling interval, seconds
}

// Phase durations of the simulated TPA cycle, in seconds.
const (
	compressDur = 1.0  // descending action
	ascendDur   = 0.5  // ascending action (negative lobe lives here)
	pauseDur    = 0.25 // probe travel between the two bites
	curveDT     = 0.005
)

// Simulate synthesizes the TPA curve a rheometer would record for a
// sample with the given attributes:
//
//   - the first compression rises to a peak F1 = Hardness, then decays
//     to 70% of the peak as the sample's structure collapses;
//   - the first ascent shows a negative lobe whose area is the
//     Adhesiveness;
//   - the second compression repeats the first scaled so that the ratio
//     of compression areas c/a equals the Cohesiveness.
func Simulate(attr Attributes) Curve {
	var pts []ForcePoint
	t := 0.0
	push := func(f float64) {
		pts = append(pts, ForcePoint{T: t, F: f})
		t += curveDT
	}

	// First compression.
	compress := func(peak float64) {
		for tt := 0.0; tt < compressDur; tt += curveDT {
			x := tt / compressDur
			var f float64
			if x <= 0.6 {
				// Rise to the peak: smooth quadratic.
				u := x / 0.6
				f = peak * u * u
			} else {
				// Post-fracture decay toward 70% of the peak.
				u := (x - 0.6) / 0.4
				f = peak * (1 - 0.3*u)
			}
			push(f)
		}
	}
	compress(attr.Hardness)

	// Ascent: triangular negative lobe with area = Adhesiveness.
	depth := 0.0
	if attr.Adhesiveness > 0 {
		depth = attr.Adhesiveness / (0.5 * ascendDur)
	}
	for tt := 0.0; tt < ascendDur; tt += curveDT {
		x := tt / ascendDur
		var f float64
		if x <= 0.5 {
			f = -depth * (x / 0.5)
		} else {
			f = -depth * (1 - (x-0.5)/0.5)
		}
		push(f)
	}

	// Pause between bites.
	for tt := 0.0; tt < pauseDur; tt += curveDT {
		push(0)
	}

	// Second compression: same shape scaled so area ratio = cohesiveness.
	compress(attr.Hardness * attr.Cohesiveness)

	return Curve{Points: pts, DT: curveDT}
}

// Extract recovers the texture attributes from a TPA curve by the
// definitions of Friedman, Whitney & Szczesniak (1963): hardness is the
// first compression's peak force F1; cohesiveness is the ratio of the
// second compression area to the first (c/a); adhesiveness is the
// magnitude of the negative area during the first ascent (b).
func (c Curve) Extract() (Attributes, error) {
	lobes := c.lobes()
	var pos []lobe
	var negArea float64
	seenFirstPos := false
	for _, l := range lobes {
		if l.positive {
			pos = append(pos, l)
			seenFirstPos = true
		} else if seenFirstPos && len(pos) == 1 {
			negArea += -l.area
		}
	}
	if len(pos) < 2 {
		return Attributes{}, fmt.Errorf("rheology: curve has %d compression lobes, want 2", len(pos))
	}
	if pos[0].area <= 0 {
		return Attributes{}, fmt.Errorf("rheology: first compression area is %g", pos[0].area)
	}
	return Attributes{
		Hardness:     pos[0].peak,
		Cohesiveness: pos[1].area / pos[0].area,
		Adhesiveness: negArea,
	}, nil
}

type lobe struct {
	positive bool
	peak     float64 // max |F|
	area     float64 // signed ∫F dt
}

// lobes splits the curve into contiguous same-sign regions, ignoring
// zero-force stretches.
func (c Curve) lobes() []lobe {
	var out []lobe
	var cur *lobe
	for _, p := range c.Points {
		if p.F == 0 {
			cur = nil
			continue
		}
		pos := p.F > 0
		if cur == nil || cur.positive != pos {
			out = append(out, lobe{positive: pos})
			cur = &out[len(out)-1]
		}
		cur.area += p.F * c.DT
		if math.Abs(p.F) > cur.peak {
			cur.peak = math.Abs(p.F)
		}
	}
	return out
}

// Duration returns the curve's time span in seconds.
func (c Curve) Duration() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	return c.Points[len(c.Points)-1].T
}

// ASCIIPlot renders the curve as a small text plot (rows × cols) for
// CLI display of Figure 2.
func (c Curve) ASCIIPlot(rows, cols int) string {
	if len(c.Points) == 0 || rows < 3 || cols < 10 {
		return ""
	}
	minF, maxF := 0.0, 0.0
	for _, p := range c.Points {
		if p.F < minF {
			minF = p.F
		}
		if p.F > maxF {
			maxF = p.F
		}
	}
	if maxF == minF {
		maxF = minF + 1
	}
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = make([]byte, cols)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	zeroRow := int(float64(rows-1) * maxF / (maxF - minF))
	if zeroRow >= 0 && zeroRow < rows {
		for j := 0; j < cols; j++ {
			grid[zeroRow][j] = '-'
		}
	}
	for _, p := range c.Points {
		col := int(p.T / c.Duration() * float64(cols-1))
		row := int(float64(rows-1) * (maxF - p.F) / (maxF - minF))
		if row >= 0 && row < rows && col >= 0 && col < cols {
			grid[row][col] = '*'
		}
	}
	out := make([]byte, 0, rows*(cols+1))
	for _, line := range grid {
		out = append(out, line...)
		out = append(out, '\n')
	}
	return string(out)
}
