package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrNumericalHealth is the umbrella sentinel for numerical-health
// violations: states a correct algorithm only reaches when the chain
// has already diverged (non-positive-definite posteriors, jitter
// regularization that cannot converge). Every such failure — returned
// or panicked — wraps this sentinel, so a fit supervisor can
// distinguish "the numbers went bad, roll back and retry" from
// ordinary I/O or configuration errors with one errors.Is check.
var ErrNumericalHealth = errors.New("stats: numerical health violated")

// ErrNotPositiveDefinite is returned when a Cholesky factorization
// fails. It wraps ErrNumericalHealth.
var ErrNotPositiveDefinite error = sentinelError{
	msg:   "stats: matrix is not positive definite",
	cause: ErrNumericalHealth,
}

// sentinelError is a named sentinel that also wraps a broader one, so
// both errors.Is(err, ErrNotPositiveDefinite) and
// errors.Is(err, ErrNumericalHealth) hold for the same failure.
type sentinelError struct {
	msg   string
	cause error
}

func (e sentinelError) Error() string { return e.msg }
func (e sentinelError) Unwrap() error { return e.cause }

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ.
type Cholesky struct {
	L *Mat
}

// NewCholesky factorizes the symmetric positive definite matrix a.
func NewCholesky(a *Mat) (*Cholesky, error) {
	a.assertSquare()
	n := a.R
	l := NewMat(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w (pivot %d = %g)", ErrNotPositiveDefinite, j, d)
		}
		root := math.Sqrt(d)
		l.Set(j, j, root)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/root)
		}
	}
	return &Cholesky{L: l}, nil
}

// MustCholesky is NewCholesky that panics on failure; for use where the
// caller guarantees positive definiteness (e.g. freshly regularized priors).
func MustCholesky(a *Mat) *Cholesky {
	c, err := NewCholesky(a)
	if err != nil {
		panic(err)
	}
	return c
}

// SolveVec solves A·x = b and returns x.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	n := c.L.R
	if len(b) != n {
		panic("stats: dim mismatch in SolveVec")
	}
	// Forward substitution: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.L.At(i, k) * y[k]
		}
		y[i] = s / c.L.At(i, i)
	}
	// Back substitution: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= c.L.At(k, i) * x[k]
		}
		x[i] = s / c.L.At(i, i)
	}
	return x
}

// Inverse returns A⁻¹.
func (c *Cholesky) Inverse() *Mat {
	n := c.L.R
	inv := NewMat(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col := c.SolveVec(e)
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	inv.Symmetrize()
	return inv
}

// InverseInto writes A⁻¹ into inv without allocating, using e, y and x
// (each length ≥ dim) as substitution scratch. It solves the same unit
// columns in the same order as Inverse, so inv is bit-identical to the
// allocating result.
func (c *Cholesky) InverseInto(inv *Mat, e, y, x []float64) {
	n := c.L.R
	if inv.R != n || inv.C != n || len(e) < n || len(y) < n || len(x) < n {
		panic("stats: dim mismatch in InverseInto")
	}
	e, y, x = e[:n], y[:n], x[:n]
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		// SolveVec's two substitutions, inlined over the scratch.
		for i := 0; i < n; i++ {
			s := e[i]
			for k := 0; k < i; k++ {
				s -= c.L.At(i, k) * y[k]
			}
			y[i] = s / c.L.At(i, i)
		}
		for i := n - 1; i >= 0; i-- {
			s := y[i]
			for k := i + 1; k < n; k++ {
				s -= c.L.At(k, i) * x[k]
			}
			x[i] = s / c.L.At(i, i)
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, x[i])
		}
	}
	inv.Symmetrize()
}

// LogDet returns log|A| = 2·Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	s := 0.0
	for i := 0; i < c.L.R; i++ {
		s += math.Log(c.L.At(i, i))
	}
	return 2 * s
}

// CholeskyInto factorizes the symmetric positive definite matrix a into
// the preallocated lower-triangular dst (upper triangle is zeroed), the
// allocation-free counterpart of NewCholesky for hot paths that reuse a
// factor buffer. Only the lower triangle of a is read, so a need not be
// exactly symmetric.
func CholeskyInto(dst, a *Mat) error {
	a.assertSquare()
	if dst.R != a.R || dst.C != a.C {
		panic("stats: dim mismatch in CholeskyInto")
	}
	n := a.R
	l := dst
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w (pivot %d = %g)", ErrNotPositiveDefinite, j, d)
		}
		root := math.Sqrt(d)
		l.Set(j, j, root)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/root)
		}
		for i := 0; i < j; i++ {
			l.Set(i, j, 0)
		}
	}
	return nil
}

// Rank1Downdate rewrites the lower-triangular factor l of A in place
// into the factor of A − x·xᵀ via hyperbolic rotations, or returns
// ErrNotPositiveDefinite (leaving l partially modified) when the
// downdated matrix is not positive definite. work is caller-provided
// scratch of length d (clobbered); x itself is not mutated.
func Rank1Downdate(l *Mat, x, work []float64) error {
	l.assertSquare()
	n := l.R
	if len(x) != n || len(work) < n {
		panic("stats: dim mismatch in Rank1Downdate")
	}
	w := work[:n]
	copy(w, x)
	for k := 0; k < n; k++ {
		lkk := l.At(k, k)
		d := (lkk - w[k]) * (lkk + w[k])
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w (downdate pivot %d = %g)", ErrNotPositiveDefinite, k, d)
		}
		r := math.Sqrt(d)
		c := r / lkk
		s := w[k] / lkk
		l.Set(k, k, r)
		for i := k + 1; i < n; i++ {
			v := (l.At(i, k) - s*w[i]) / c
			l.Set(i, k, v)
			w[i] = c*w[i] - s*v
		}
	}
	return nil
}

// Inverse returns the inverse of a symmetric positive definite matrix,
// or an error if it is not positive definite.
func Inverse(a *Mat) (*Mat, error) {
	c, err := NewCholesky(a)
	if err != nil {
		return nil, err
	}
	return c.Inverse(), nil
}

// LogDetSPD returns log determinant of a symmetric positive definite matrix.
func LogDetSPD(a *Mat) (float64, error) {
	c, err := NewCholesky(a)
	if err != nil {
		return 0, err
	}
	return c.LogDet(), nil
}

// RegularizeSPD adds jitter·I until the matrix factorizes, doubling the
// jitter each attempt. It mutates and returns a copy, never the input.
// This guards the sampler against near-singular scatter matrices that
// arise when a topic holds very few, near-identical observations.
func RegularizeSPD(a *Mat, jitter float64) *Mat {
	out := a.Clone()
	out.Symmetrize()
	for attempt := 0; attempt < 60; attempt++ {
		if _, err := NewCholesky(out); err == nil {
			return out
		}
		for i := 0; i < out.R; i++ {
			out.Set(i, i, out.At(i, i)+jitter)
		}
		jitter *= 2
	}
	// Panic with an error value wrapping ErrNumericalHealth: a matrix
	// that stays indefinite through 60 jitter doublings means the chain
	// state is garbage, and a supervisor recovering the panic needs the
	// sentinel to classify it as a health event rather than a crash.
	panic(fmt.Errorf("stats: RegularizeSPD failed to produce a positive definite matrix after 60 jitter doublings: %w", ErrNumericalHealth))
}

// RegularizeSPDInto is RegularizeSPD writing the regularized matrix
// into dst and its Cholesky factor into chol (both preallocated, dim
// matching a). The copy, symmetrization and jitter schedule are those
// of RegularizeSPD, and the factorization attempt per jitter step runs
// the identical pivot recurrence, so dst is bit-identical to the
// allocating result — with the factor of the accepted matrix kept
// instead of thrown away, saving the caller a refactorization.
func RegularizeSPDInto(dst, a *Mat, jitter float64, chol *Cholesky) {
	if dst.R != a.R || dst.C != a.C {
		panic("stats: bad destination shape in RegularizeSPDInto")
	}
	copy(dst.Data, a.Data)
	dst.Symmetrize()
	for attempt := 0; attempt < 60; attempt++ {
		if err := CholeskyInto(chol.L, dst); err == nil {
			return
		}
		for i := 0; i < dst.R; i++ {
			dst.Set(i, i, dst.At(i, i)+jitter)
		}
		jitter *= 2
	}
	panic(fmt.Errorf("stats: RegularizeSPD failed to produce a positive definite matrix after 60 jitter doublings: %w", ErrNumericalHealth))
}
