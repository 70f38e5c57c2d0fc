package eigen

import (
	"errors"
	"math"
	"testing"

	"github.com/spectral-lpm/spectrallpm/internal/la"
)

// laplacianCSR assembles the combinatorial Laplacian L = D - A of an
// undirected graph given as an edge list.
func laplacianCSR(t testing.TB, n int, edges [][2]int) *la.CSR {
	t.Helper()
	b := la.NewBuilder(n, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		b.Add(u, u, 1)
		b.Add(v, v, 1)
		b.Add(u, v, -1)
		b.Add(v, u, -1)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pathEigenvalue is the k-th eigenvalue of the n-vertex path Laplacian,
// 4 sin²(kπ/2n).
func pathEigenvalue(n, k int) float64 {
	s := math.Sin(float64(k) * math.Pi / (2 * float64(n)))
	return 4 * s * s
}

func pathEdges(n int) [][2]int {
	e := make([][2]int, 0, n-1)
	for i := 0; i < n-1; i++ {
		e = append(e, [2]int{i, i + 1})
	}
	return e
}

func cycleEdges(n int) [][2]int {
	e := pathEdges(n)
	return append(e, [2]int{n - 1, 0})
}

func completeEdges(n int) [][2]int {
	var e [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			e = append(e, [2]int{i, j})
		}
	}
	return e
}

func starEdges(n int) [][2]int {
	var e [][2]int
	for i := 1; i < n; i++ {
		e = append(e, [2]int{0, i})
	}
	return e
}

// gridEdges returns 4-connectivity edges of a side x side grid, vertices
// numbered row-major.
func gridEdges(side int) [][2]int {
	var e [][2]int
	id := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				e = append(e, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < side {
				e = append(e, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	return e
}

func TestFiedlerClosedFormsAllMethods(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges [][2]int
		want  float64
	}{
		{"path8", 8, pathEdges(8), pathEigenvalue(8, 1)},
		{"path25", 25, pathEdges(25), pathEigenvalue(25, 1)},
		{"cycle12", 12, cycleEdges(12), 2 - 2*math.Cos(2*math.Pi/12)},
		{"complete10", 10, completeEdges(10), 10},
		{"star9", 9, starEdges(9), 1},
		{"grid5x5", 25, gridEdges(5), pathEigenvalue(5, 1)},
		{"grid7x7", 49, gridEdges(7), pathEigenvalue(7, 1)},
	}
	methods := []Method{MethodDense, MethodInversePower}
	for _, tc := range cases {
		l := laplacianCSR(t, tc.n, tc.edges)
		op := CSROperator{M: l}
		for _, m := range methods {
			t.Run(tc.name+"/"+m.String(), func(t *testing.T) {
				res, err := Fiedler(op, Options{Method: m, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(res.Value-tc.want) > 1e-6*(1+tc.want) {
					t.Errorf("λ₂ = %.10f, want %.10f", res.Value, tc.want)
				}
				checkFiedlerInvariants(t, op, res)
			})
		}
	}
}

// checkFiedlerInvariants verifies the properties any valid Fiedler pair must
// satisfy, independent of eigenspace degeneracy: unit norm, orthogonality to
// ones, small residual, Rayleigh quotient equal to the eigenvalue.
func checkFiedlerInvariants(t *testing.T, op Operator, res Result) {
	t.Helper()
	n := op.Dim()
	v := res.Vector
	if math.Abs(la.Norm2(v)-1) > 1e-8 {
		t.Errorf("Fiedler vector norm = %v", la.Norm2(v))
	}
	if d := la.Dot(v, la.Ones(n)); math.Abs(d) > 1e-6*math.Sqrt(float64(n)) {
		t.Errorf("Fiedler vector not ⊥ ones: %v", d)
	}
	y := make([]float64, n)
	op.Apply(y, v)
	rq := la.Dot(v, y)
	if math.Abs(rq-res.Value) > 1e-6*(1+math.Abs(res.Value)) {
		t.Errorf("Rayleigh quotient %v != λ %v", rq, res.Value)
	}
	la.Axpy(-res.Value, v, y)
	scale := normEst(op, 1)
	if r := la.Norm2(y); r > 1e-6*scale {
		t.Errorf("residual %v too large (scale %v)", r, scale)
	}
}

func TestFiedlerPathVectorIsMonotone(t *testing.T) {
	// For a path graph the Fiedler vector is cos(kπ(i+1/2)/n) with k=1 —
	// strictly monotone — so the spectral order must be the path order
	// (possibly reversed). λ₂ is simple here, so this is deterministic.
	const n = 16
	l := laplacianCSR(t, n, pathEdges(n))
	for _, m := range []Method{MethodDense, MethodInversePower} {
		res, err := Fiedler(CSROperator{M: l}, Options{Method: m, Seed: 2})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		inc, dec := true, true
		for i := 0; i+1 < n; i++ {
			if res.Vector[i+1] <= res.Vector[i] {
				inc = false
			}
			if res.Vector[i+1] >= res.Vector[i] {
				dec = false
			}
		}
		if !inc && !dec {
			t.Errorf("%v: path Fiedler vector not monotone: %v", m, res.Vector)
		}
	}
}

func TestFiedlerDeterministicForFixedSeed(t *testing.T) {
	l := laplacianCSR(t, 36, gridEdges(6))
	op := CSROperator{M: l}
	a, err := Fiedler(op, Options{Method: MethodInversePower, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fiedler(op, Options{Method: MethodInversePower, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Vector {
		if a.Vector[i] != b.Vector[i] {
			t.Fatal("same seed produced different Fiedler vectors")
		}
	}
}

func TestFiedlerErrors(t *testing.T) {
	if _, err := Fiedler(FuncOperator{N: 0}, Options{}); err == nil {
		t.Error("empty operator accepted")
	}
	one, _ := la.NewCSR(1, 1, nil)
	if _, err := Fiedler(CSROperator{M: one}, Options{}); err == nil {
		t.Error("single vertex accepted")
	}
}

func TestFiedlerDisconnectedGraphFailsCleanly(t *testing.T) {
	// Two disjoint edges: the Laplacian has a 2-dimensional null space, so
	// deflating only the global ones vector leaves a singular system. The
	// inverse-power path must fail with an error, not hang or return junk.
	l := laplacianCSR(t, 4, [][2]int{{0, 1}, {2, 3}})
	_, err := Fiedler(CSROperator{M: l}, Options{Method: MethodInversePower, Seed: 1, MaxIter: 5})
	if err == nil {
		t.Skip("inverse power converged on disconnected graph (λ=0 vector); acceptable but unusual")
	}
}

func TestFiedlerGridDegenerateEigenvalueStillOptimal(t *testing.T) {
	// On an m x m grid λ₂ has multiplicity 2; any unit combination of the
	// two eigenvectors is optimal. Verify the invariants and the value.
	const side = 6
	l := laplacianCSR(t, side*side, gridEdges(side))
	want := pathEigenvalue(side, 1)
	for _, m := range []Method{MethodDense, MethodInversePower} {
		res, err := Fiedler(CSROperator{M: l}, Options{Method: m, Seed: 11})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if math.Abs(res.Value-want) > 1e-6 {
			t.Errorf("%v: λ₂ = %v, want %v", m, res.Value, want)
		}
		checkFiedlerInvariants(t, CSROperator{M: l}, res)
	}
}

func TestSmallestKGridMatchesKroneckerSpectrum(t *testing.T) {
	// Eigenvalues of the m x m grid Laplacian are sums of path eigenvalues.
	const side = 5
	n := side * side
	l := laplacianCSR(t, n, gridEdges(side))
	var all []float64
	for a := 0; a < side; a++ {
		for b := 0; b < side; b++ {
			all = append(all, pathEigenvalue(side, a)+pathEigenvalue(side, b))
		}
	}
	sortFloats(all)
	const k = 4
	for _, m := range []Method{MethodDense, MethodInversePower} {
		vals, vecs, err := SmallestK(CSROperator{M: l}, k, Options{Method: m, Seed: 3})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for i := 0; i < k; i++ {
			if math.Abs(vals[i]-all[i+1]) > 1e-6 {
				t.Errorf("%v: eig %d = %v, want %v", m, i, vals[i], all[i+1])
			}
		}
		checkOrthonormal(t, vecs, 1e-6)
	}
}

func TestSmallestKBadK(t *testing.T) {
	l := laplacianCSR(t, 4, pathEdges(4))
	if _, _, err := SmallestK(CSROperator{M: l}, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := SmallestK(CSROperator{M: l}, 4, Options{}); err == nil {
		t.Error("k=n accepted")
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		MethodAuto: "auto", MethodInversePower: "inverse-power",
		MethodDense: "dense-jacobi", Method(99): "method(99)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Method(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestErrNoConvergenceWrapped(t *testing.T) {
	// An operator with a tiny iteration budget must report
	// ErrNoConvergence in its chain.
	l := laplacianCSR(t, 64, gridEdges(8))
	_, err := Fiedler(CSROperator{M: l}, Options{Method: MethodInversePower, MaxIter: 1, Tol: 1e-15, Seed: 1})
	if err == nil {
		t.Skip("converged in one iteration; nothing to assert")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("error %v does not wrap ErrNoConvergence", err)
	}
}

func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

func TestCanonicalizeSign(t *testing.T) {
	v := [][]float64{{0.1, -0.9, 0.2}, {0.5, 0.4, 0.0}}
	canonicalizeSign(v)
	if v[0][1] != 0.9 {
		t.Errorf("sign not flipped: %v", v[0])
	}
	if v[1][0] != 0.5 {
		t.Errorf("sign flipped unnecessarily: %v", v[1])
	}
}

func TestNormEstUsesEstimatorAndFallback(t *testing.T) {
	l := laplacianCSR(t, 10, pathEdges(10))
	// Path Laplacian infinity norm = 4 (interior row 1+2+1).
	if got := normEst(CSROperator{M: l}, 1); math.Abs(got-4) > 1e-12 {
		t.Errorf("CSR NormEst = %v, want 4", got)
	}
	// FuncOperator lacks NormEstimator: falls back to power iteration,
	// which for 3*I must return roughly 3.
	op := FuncOperator{N: 6, Fn: func(dst, x []float64) {
		for i := range dst {
			dst[i] = 3 * x[i]
		}
	}}
	if got := normEst(op, 1); math.Abs(got-3) > 1e-6 {
		t.Errorf("fallback norm estimate = %v, want 3", got)
	}
}
