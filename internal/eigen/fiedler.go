package eigen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/spectral-lpm/spectrallpm/internal/la"
)

// Method selects the eigensolver used by Fiedler and SmallestK.
type Method int

const (
	// MethodAuto picks MethodDense for small problems and
	// MethodInversePower otherwise.
	MethodAuto Method = iota
	// MethodInversePower runs deflated inverse-power iteration with
	// projected conjugate-gradient inner solves. It is the production path
	// for graph Laplacians: the smallest nonzero eigenvalue is extremal in
	// the deflated space and each outer step contracts error by λ₂/λ₃.
	MethodInversePower
	// MethodDense densifies the operator and runs the Jacobi solver;
	// intended for n up to a few hundred and for cross-validation.
	MethodDense
	// MethodMultilevel coarsens the graph by heavy-edge matching, solves the
	// Fiedler problem exactly on the coarsest level, and refines the
	// prolonged vector up the hierarchy with warm-started inverse power
	// iteration — the scalable path for large graphs. It needs the graph
	// itself (to coarsen), so it is driven by MultilevelFiedler; the
	// operator-only entry points (Fiedler, SmallestK) fall back to
	// MethodInversePower when it is requested.
	MethodMultilevel
	// MethodExact is the single-level automatic choice: dense Jacobi at or
	// below DenseCutoff, inverse power above — MethodAuto without the
	// multilevel dispatch. Use it to force the reference path on graphs
	// large enough that MethodAuto would coarsen.
	MethodExact
)

// String names the method for logs and errors.
func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodInversePower:
		return "inverse-power"
	case MethodDense:
		return "dense-jacobi"
	case MethodMultilevel:
		return "multilevel"
	case MethodExact:
		return "exact"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ParseMethod resolves a solver name from flags and configs: "auto",
// "exact", "multilevel", "inverse-power", "dense" (aliases
// "dense-jacobi", "jacobi").
func ParseMethod(s string) (Method, error) {
	switch s {
	case "auto", "":
		return MethodAuto, nil
	case "exact":
		return MethodExact, nil
	case "multilevel", "ml":
		return MethodMultilevel, nil
	case "inverse-power", "inversepower", "ip":
		return MethodInversePower, nil
	case "dense", "dense-jacobi", "jacobi":
		return MethodDense, nil
	default:
		return MethodAuto, fmt.Errorf("eigen: unknown solver method %q (want auto|exact|multilevel|inverse-power|dense)", s)
	}
}

// Options tunes Fiedler and SmallestK.
type Options struct {
	// Method selects the solver; MethodAuto by default.
	Method Method
	// Tol is the relative residual target ||L x - λ x|| <= Tol*||L||.
	// Defaults to 1e-9.
	Tol float64
	// MaxIter caps the outer iterations of inverse power (and of the
	// block iteration behind SmallestK). 0 picks the default of 200.
	MaxIter int
	// Seed makes the randomized starts deterministic. Same seed, same
	// result.
	Seed int64
	// DenseCutoff is the dimension at or below which MethodAuto uses the
	// dense solver. Defaults to 96.
	DenseCutoff int
	// MultilevelCutoff is the vertex count at or above which MethodAuto
	// picks the multilevel solver, when the caller can supply the graph
	// (MultilevelFiedler / internal/core). Defaults to 8192.
	MultilevelCutoff int
	// Parallelism sets the goroutine count of the sparse kernels (matrix-
	// vector products, dots, axpys) inside CG and inverse power:
	// 0 uses all of GOMAXPROCS, 1 forces the serial path (bit-identical to
	// the historical kernels), k uses k workers. Small problems run
	// serially regardless.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.DenseCutoff <= 0 {
		o.DenseCutoff = 96
	}
	if o.MultilevelCutoff <= 0 {
		o.MultilevelCutoff = 8192
	}
	return o
}

// Resolve returns the concrete method these options select for an n-vertex
// problem. haveGraph reports whether the caller can hand the solver the
// graph itself rather than an abstract operator; multilevel needs it to
// coarsen, so without it MethodAuto never picks multilevel and an explicit
// MethodMultilevel degrades to inverse power.
func (o Options) Resolve(n int, haveGraph bool) Method {
	o = o.withDefaults()
	switch o.Method {
	case MethodAuto:
		if n <= o.DenseCutoff {
			return MethodDense
		}
		if haveGraph && n >= o.MultilevelCutoff {
			return MethodMultilevel
		}
		return MethodInversePower
	case MethodExact:
		if n <= o.DenseCutoff {
			return MethodDense
		}
		return MethodInversePower
	case MethodMultilevel:
		if !haveGraph {
			return MethodInversePower
		}
		return MethodMultilevel
	default:
		return o.Method
	}
}

// Result is the outcome of a Fiedler computation.
type Result struct {
	// Value is λ₂, the algebraic connectivity.
	Value float64
	// Vector is the unit Fiedler eigenvector, orthogonal to the all-ones
	// vector, with its largest-magnitude entry made positive.
	Vector []float64
	// Iterations counts outer iterations (inverse power), or 1 for the
	// dense solve.
	Iterations int
	// Method is the solver that actually ran.
	Method Method
	// Residual is the final ||L x - λ x||.
	Residual float64
}

// Fiedler computes the second-smallest eigenpair (λ₂, v₂) of a connected
// graph Laplacian given as a symmetric operator. The all-ones null direction
// is deflated internally. For disconnected graphs the result is undefined
// and the inverse-power path typically returns ErrCGBreakdown; callers
// should split into connected components first (internal/core does).
func Fiedler(op Operator, opt Options) (Result, error) {
	opt = opt.withDefaults()
	n := op.Dim()
	if n == 0 {
		return Result{}, errors.New("eigen: empty operator")
	}
	if n == 1 {
		return Result{}, errors.New("eigen: Fiedler undefined for a single vertex")
	}
	switch method := opt.Resolve(n, false); method {
	case MethodDense:
		return fiedlerDense(op, opt)
	case MethodInversePower:
		return fiedlerInversePower(op, opt)
	default:
		return Result{}, fmt.Errorf("eigen: unknown method %v", method)
	}
}

func fiedlerDense(op Operator, opt Options) (Result, error) {
	n := op.Dim()
	vals, vecs, err := Jacobi(denseFromOperator(op), 0)
	if err != nil {
		return Result{}, err
	}
	// vals[0] ~ 0 (ones); λ₂ = vals[1]. Orthogonalize against exact ones to
	// clean the degenerate-at-zero case, then re-normalize.
	v := append([]float64(nil), vecs[1]...)
	la.OrthogonalizeAgainst(v, la.UnitOnes(n))
	if la.Normalize(v) == 0 {
		return Result{}, errors.New("eigen: dense Fiedler vector vanished (disconnected graph?)")
	}
	canonicalizeSign([][]float64{v})
	res := residual(op, v, vals[1])
	return Result{Value: vals[1], Vector: v, Iterations: 1, Method: MethodDense, Residual: res}, nil
}

func fiedlerInversePower(op Operator, opt Options) (Result, error) {
	return inversePowerFrom(op, opt, nil, 0)
}

// inversePowerFrom runs deflated inverse power iteration starting from x0
// (nil means a seeded random start). It is the refinement engine of both the
// exact path (random start) and the multilevel path (prolonged coarse
// Fiedler vectors as warm starts). x0 is not modified. cgTol overrides the
// inner CG relative tolerance (0 keeps the production default of 1e-10; the
// multilevel driver loosens it at intermediate levels where the iterate is
// only a warm start). On ErrNoConvergence the returned Result still carries
// the last iterate, so warm-start callers can use it.
func inversePowerFrom(op Operator, opt Options, x0 []float64, cgTol float64) (Result, error) {
	opt = opt.withDefaults()
	n := op.Dim()
	w := opt.Parallelism
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 200
	}
	scale := normEst(op, opt.Seed+7)
	deflate := [][]float64{la.UnitOnes(n)}
	var x []float64
	if x0 != nil {
		x = append([]float64(nil), x0...)
	} else {
		x = randomUnit(rand.New(rand.NewSource(opt.Seed)), n)
	}
	la.OrthogonalizeAgainstP(x, w, deflate...)
	if la.Normalize(x) == 0 {
		if x0 == nil {
			return Result{}, errors.New("eigen: degenerate start vector")
		}
		// A warm start that lies in the deflated space carries no
		// information; fall back to the seeded random start.
		x = randomUnit(rand.New(rand.NewSource(opt.Seed)), n)
		la.OrthogonalizeAgainstP(x, w, deflate...)
		if la.Normalize(x) == 0 {
			return Result{}, errors.New("eigen: degenerate start vector")
		}
	}
	if cgTol <= 0 {
		cgTol = 1e-10
	}
	lx := make([]float64, n)
	var lambda, res float64
	for it := 1; it <= maxIter; it++ {
		y, _, err := ProjectedCG(op, x, deflate, cgTol, 40*n, w)
		if err != nil {
			return Result{}, fmt.Errorf("inverse power inner solve failed: %w", err)
		}
		la.OrthogonalizeAgainstP(y, w, deflate...)
		if la.Normalize(y) == 0 {
			return Result{}, errors.New("eigen: inverse power iterate vanished")
		}
		x = y
		op.Apply(lx, x)
		lambda = la.DotP(x, lx, w)
		la.AxpyP(-lambda, x, lx, w)
		res = la.Norm2P(lx, w)
		if res <= opt.Tol*scale {
			canonicalizeSign([][]float64{x})
			return Result{Value: lambda, Vector: x, Iterations: it, Method: MethodInversePower, Residual: res}, nil
		}
	}
	canonicalizeSign([][]float64{x})
	return Result{Value: lambda, Vector: x, Iterations: maxIter, Method: MethodInversePower, Residual: res},
		fmt.Errorf("%w: inverse power residual %.3g after %d iterations (target %.3g)",
			ErrNoConvergence, res, maxIter, opt.Tol*scale)
}

// ErrNoConvergence is returned when an iterative eigensolver exceeds its
// iteration budget before meeting its tolerance.
var ErrNoConvergence = errors.New("eigen: no convergence within iteration budget")

// canonicalizeSign flips each eigenvector so its largest-magnitude entry is
// positive, giving deterministic output across solvers.
func canonicalizeSign(vecs [][]float64) {
	for _, v := range vecs {
		var maxAbs float64
		var sign float64 = 1
		for _, x := range v {
			if a := math.Abs(x); a > maxAbs {
				maxAbs = a
				if x < 0 {
					sign = -1
				} else {
					sign = 1
				}
			}
		}
		if sign < 0 {
			la.Scale(-1, v)
		}
	}
}

// residual returns ||op(x) - lambda x||.
func residual(op Operator, x []float64, lambda float64) float64 {
	y := make([]float64, len(x))
	op.Apply(y, x)
	la.Axpy(-lambda, x, y)
	return la.Norm2(y)
}

// SmallestK computes the k smallest eigenpairs of a connected graph
// Laplacian beyond the deflated all-ones null space — the spectral embedding
// used for multi-dimensional spectral layouts and recursive bisection. It
// uses block inverse-power iteration with a Rayleigh-Ritz projection, or
// the dense solver on small problems. vecs[j] is the unit eigenvector for
// vals[j], j = 0 corresponding to λ₂.
func SmallestK(op Operator, k int, opt Options) (vals []float64, vecs [][]float64, err error) {
	opt = opt.withDefaults()
	n := op.Dim()
	if k <= 0 || k > n-1 {
		return nil, nil, fmt.Errorf("eigen: SmallestK k=%d out of range for n=%d", k, n)
	}
	deflate := [][]float64{la.UnitOnes(n)}
	switch method := opt.Resolve(n, false); method {
	case MethodDense:
		s := denseFromOperator(op)
		allVals, allVecs, err := Jacobi(s, 0)
		if err != nil {
			return nil, nil, err
		}
		vals = append([]float64(nil), allVals[1:1+k]...)
		vecs = make([][]float64, k)
		for i := range vecs {
			v := append([]float64(nil), allVecs[1+i]...)
			la.OrthogonalizeAgainst(v, deflate...)
			la.Normalize(v)
			vecs[i] = v
		}
		canonicalizeSign(vecs)
		return vals, vecs, nil
	case MethodInversePower:
		return smallestKBlock(op, k, opt, deflate)
	default:
		return nil, nil, fmt.Errorf("eigen: unknown method %v", method)
	}
}

func denseFromOperator(op Operator) *la.Sym {
	n := op.Dim()
	s := la.NewSym(n)
	x := make([]float64, n)
	y := make([]float64, n)
	for j := 0; j < n; j++ {
		la.Zero(x)
		x[j] = 1
		op.Apply(y, x)
		for i := 0; i < n; i++ {
			s.Set(i, j, y[i])
		}
	}
	return s
}

func smallestKBlock(op Operator, k int, opt Options, deflate [][]float64) ([]float64, [][]float64, error) {
	n := op.Dim()
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 200
	}
	scale := normEst(op, opt.Seed+11)
	rng := rand.New(rand.NewSource(opt.Seed))

	// Random orthonormal block X of width k, orthogonal to deflate.
	X := make([][]float64, k)
	for j := range X {
		X[j] = randomUnit(rng, n)
	}
	orthonormalize(X, deflate, opt.Seed)

	tmp := make([]float64, n)
	vals := make([]float64, k)
	for it := 1; it <= maxIter; it++ {
		// Inverse iteration: solve L Y_j = X_j.
		for j := range X {
			y, _, err := ProjectedCG(op, X[j], deflate, 1e-10, 40*n, opt.Parallelism)
			if err != nil {
				return nil, nil, fmt.Errorf("block inverse power inner solve failed: %w", err)
			}
			X[j] = y
		}
		orthonormalize(X, deflate, opt.Seed)
		// Rayleigh-Ritz on span(X): H = Xᵀ L X (k x k), rotate X by its
		// eigenvectors.
		h := la.NewSym(k)
		LX := make([][]float64, k)
		for j := range X {
			lx := make([]float64, n)
			op.Apply(lx, X[j])
			LX[j] = lx
		}
		for a := 0; a < k; a++ {
			for b := a; b < k; b++ {
				h.Set(a, b, la.Dot(X[a], LX[b]))
			}
		}
		hv, hw, err := Jacobi(h, 0)
		if err != nil {
			return nil, nil, err
		}
		rot := make([][]float64, k)
		for a := 0; a < k; a++ {
			v := make([]float64, n)
			for b := 0; b < k; b++ {
				la.Axpy(hw[a][b], X[b], v)
			}
			rot[a] = v
		}
		X = rot
		copy(vals, hv)
		// Convergence: max residual over the block.
		var worst float64
		for j := range X {
			op.Apply(tmp, X[j])
			la.Axpy(-vals[j], X[j], tmp)
			if r := la.Norm2(tmp); r > worst {
				worst = r
			}
		}
		if worst <= opt.Tol*scale {
			canonicalizeSign(X)
			return vals, X, nil
		}
	}
	return nil, nil, ErrNoConvergence
}

// orthonormalize applies modified Gram-Schmidt to the block, first removing
// deflated directions. Vectors that vanish are replaced by fresh random
// directions, deterministically: the rescue seed mixes the caller's seed
// with the block position, so different Options.Seed values explore
// different rescue directions while the same seed stays reproducible.
func orthonormalize(X [][]float64, deflate [][]float64, seed int64) {
	for j := range X {
		for pass := 0; pass < 2; pass++ {
			la.OrthogonalizeAgainst(X[j], deflate...)
			la.OrthogonalizeAgainst(X[j], X[:j]...)
		}
		if la.Normalize(X[j]) < 1e-12 {
			rng := rand.New(rand.NewSource(seed*0x9E3779B9 + int64(1000+j)))
			X[j] = randomUnit(rng, len(X[j]))
			la.OrthogonalizeAgainst(X[j], deflate...)
			la.OrthogonalizeAgainst(X[j], X[:j]...)
			la.Normalize(X[j])
		}
	}
}
