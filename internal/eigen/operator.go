// Package eigen implements the symmetric eigensolvers Spectral LPM needs:
// a cyclic Jacobi solver for small dense matrices, the production path for
// Fiedler vectors — deflated inverse-power iteration with projected
// conjugate-gradient inner solves — and a multilevel driver that coarsens
// large graphs and refines with warm-started inverse power. Options.Resolve
// dispatches among them. The package is self-contained (stdlib only) and
// cross-validated against closed-form graph spectra in its tests.
package eigen

import (
	"math"
	"math/rand"

	"github.com/spectral-lpm/spectrallpm/internal/la"
)

// Operator is a symmetric linear operator y = A x. Implementations must be
// deterministic and must not retain dst or x.
type Operator interface {
	// Dim returns the dimension n of the (square) operator.
	Dim() int
	// Apply computes dst = A x. dst and x have length Dim and do not alias.
	Apply(dst, x []float64)
}

// NormEstimator is optionally implemented by Operators that can bound their
// operator norm cheaply; solvers use it to scale residual tolerances.
type NormEstimator interface {
	// NormEst returns an upper bound (or close estimate) of ||A||.
	NormEst() float64
}

// CSROperator adapts a square sparse matrix to the Operator interface.
type CSROperator struct {
	M *la.CSR
	// Workers is the parallelism of the matrix-vector product: 0 uses all
	// of GOMAXPROCS, 1 is serial, k uses k goroutines. The row-parallel
	// product is bit-identical to the serial one at every worker count
	// (each row is accumulated in the same order), so this is purely a
	// speed knob. Small matrices run serially regardless.
	Workers int
}

// Dim returns the matrix dimension.
func (c CSROperator) Dim() int { return c.M.Rows() }

// Apply computes dst = M x.
func (c CSROperator) Apply(dst, x []float64) { c.M.MulVecP(dst, x, c.Workers) }

// NormEst returns the infinity norm (max absolute row sum), a valid upper
// bound on the spectral norm for symmetric matrices.
func (c CSROperator) NormEst() float64 {
	var max float64
	n := c.M.Rows()
	for i := 0; i < n; i++ {
		var s float64
		c.M.RowRange(i, func(_ int, v float64) { s += math.Abs(v) })
		if s > max {
			max = s
		}
	}
	return max
}

// FuncOperator wraps a function as an Operator; used by tests and by callers
// with matrix-free operators.
type FuncOperator struct {
	N  int
	Fn func(dst, x []float64)
}

// Dim returns the declared dimension.
func (f FuncOperator) Dim() int { return f.N }

// Apply invokes the wrapped function.
func (f FuncOperator) Apply(dst, x []float64) { f.Fn(dst, x) }

// normEst returns a norm scale for residual tests: the NormEstimator value
// when available, otherwise a few power-iteration steps.
func normEst(op Operator, seed int64) float64 {
	if ne, ok := op.(NormEstimator); ok {
		if v := ne.NormEst(); v > 0 {
			return v
		}
	}
	n := op.Dim()
	if n == 0 {
		return 1
	}
	rng := rand.New(rand.NewSource(seed))
	x := randomUnit(rng, n)
	y := make([]float64, n)
	est := 1.0
	for i := 0; i < 8; i++ {
		op.Apply(y, x)
		nrm := la.Norm2(y)
		if nrm == 0 {
			break
		}
		est = nrm
		la.Copy(x, y)
		la.Scale(1/nrm, x)
	}
	if est <= 0 {
		est = 1
	}
	return est
}

// randomUnit returns a random unit vector of length n.
func randomUnit(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if la.Normalize(x) == 0 && n > 0 {
		x[0] = 1
	}
	return x
}
