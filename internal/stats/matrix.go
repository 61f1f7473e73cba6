// Package stats provides the numerical substrate for the texture topic
// model: small dense linear algebra, random number generation, and the
// probability distributions used by the Gibbs sampler (Dirichlet,
// categorical, multivariate normal, Wishart, Normal-Wishart, Student-t),
// together with the divergences used for topic linkage.
//
// All matrices are small (gel space is 3-dimensional, emulsion space is
// 6-dimensional), so the package favours clarity and allocation-free
// in-place variants over blocked algorithms.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mat is a dense row-major matrix.
type Mat struct {
	R, C int
	Data []float64 // len R*C, row-major
}

// NewMat returns an R×C zero matrix.
func NewMat(r, c int) *Mat {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("stats: invalid matrix dims %d×%d", r, c))
	}
	return &Mat{R: r, C: c, Data: make([]float64, r*c)}
}

// MatFromRows builds a matrix from row slices. All rows must have equal length.
func MatFromRows(rows [][]float64) *Mat {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("stats: MatFromRows needs at least one non-empty row")
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.C {
			panic(fmt.Sprintf("stats: ragged rows: row %d has %d cols, want %d", i, len(row), m.C))
		}
		copy(m.Data[i*m.C:(i+1)*m.C], row)
	}
	return m
}

// ScaledIdentity returns s·I of size n.
func ScaledIdentity(n int, s float64) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, s)
	}
	return m
}

// At returns element (i,j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i,j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// Row returns a copy of row i.
func (m *Mat) Row(i int) []float64 {
	out := make([]float64, m.C)
	copy(out, m.Data[i*m.C:(i+1)*m.C])
	return out
}

// AddInPlace adds b into m.
func (m *Mat) AddInPlace(b *Mat) {
	m.assertSameShape(b)
	for i := range m.Data {
		m.Data[i] += b.Data[i]
	}
}

// Scale returns s·m.
func (m *Mat) Scale(s float64) *Mat {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// MulInto writes the matrix product a·b into dst, the allocation-free
// counterpart of Mul: the skip of zero left-operands and the k-middle
// accumulation order are identical, so dst is bit-for-bit what Mul
// would return. dst must not alias a or b.
func MulInto(dst, a, b *Mat) {
	if a.C != b.R {
		panic(fmt.Sprintf("stats: dim mismatch in MulInto: %d×%d · %d×%d", a.R, a.C, b.R, b.C))
	}
	if dst.R != a.R || dst.C != b.C {
		panic("stats: bad destination shape in MulInto")
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.R; i++ {
		for k := 0; k < a.C; k++ {
			v := a.At(i, k)
			if v == 0 {
				continue
			}
			for j := 0; j < b.C; j++ {
				dst.Data[i*dst.C+j] += v * b.At(k, j)
			}
		}
	}
}

// TransposeInto writes aᵀ into dst without allocating. dst must not
// alias a.
func TransposeInto(dst, a *Mat) {
	if dst.R != a.C || dst.C != a.R {
		panic("stats: bad destination shape in TransposeInto")
	}
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			dst.Set(j, i, a.At(i, j))
		}
	}
}

// Mul returns the matrix product m·b.
func (m *Mat) Mul(b *Mat) *Mat {
	if m.C != b.R {
		panic(fmt.Sprintf("stats: dim mismatch in Mul: %d×%d · %d×%d", m.R, m.C, b.R, b.C))
	}
	out := NewMat(m.R, b.C)
	for i := 0; i < m.R; i++ {
		for k := 0; k < m.C; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.C; j++ {
				out.Data[i*out.C+j] += a * b.At(k, j)
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·v.
func (m *Mat) MulVec(v []float64) []float64 {
	if m.C != len(v) {
		panic(fmt.Sprintf("stats: dim mismatch in MulVec: %d×%d · %d", m.R, m.C, len(v)))
	}
	out := make([]float64, m.R)
	for i := 0; i < m.R; i++ {
		s := 0.0
		for j := 0; j < m.C; j++ {
			s += m.At(i, j) * v[j]
		}
		out[i] = s
	}
	return out
}

// T returns the transpose.
func (m *Mat) T() *Mat {
	out := NewMat(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Mat) Trace() float64 {
	m.assertSquare()
	t := 0.0
	for i := 0; i < m.R; i++ {
		t += m.At(i, i)
	}
	return t
}

// Symmetrize replaces m with (m+mᵀ)/2, damping drift from accumulated
// floating-point error in rank-one updates.
func (m *Mat) Symmetrize() {
	m.assertSquare()
	for i := 0; i < m.R; i++ {
		for j := i + 1; j < m.C; j++ {
			v := 0.5 * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// String renders the matrix for debugging.
func (m *Mat) String() string {
	var sb strings.Builder
	for i := 0; i < m.R; i++ {
		sb.WriteString("[")
		for j := 0; j < m.C; j++ {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%.6g", m.At(i, j))
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

func (m *Mat) assertSameShape(b *Mat) {
	if m.R != b.R || m.C != b.C {
		panic(fmt.Sprintf("stats: shape mismatch %d×%d vs %d×%d", m.R, m.C, b.R, b.C))
	}
}

func (m *Mat) assertSquare() {
	if m.R != m.C {
		panic(fmt.Sprintf("stats: want square matrix, got %d×%d", m.R, m.C))
	}
}

// AddOuterScaled adds s·a·bᵀ into m in place.
func (m *Mat) AddOuterScaled(s float64, a, b []float64) {
	if m.R != len(a) || m.C != len(b) {
		panic("stats: dim mismatch in AddOuterScaled")
	}
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			m.Data[i*m.C+j] += s * av * bv
		}
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: dim mismatch in Dot")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AxpyVec returns a + s·b.
func AxpyVec(a []float64, s float64, b []float64) []float64 {
	if len(a) != len(b) {
		panic("stats: dim mismatch in AxpyVec")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + s*b[i]
	}
	return out
}

// SubVec returns a − b.
func SubVec(a, b []float64) []float64 { return AxpyVec(a, -1, b) }

// CloneVec returns a copy of v.
func CloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// SumVec returns the sum of elements.
func SumVec(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
