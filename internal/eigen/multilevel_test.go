package eigen

import (
	"math"
	"sort"
	"testing"

	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/la"
)

// gridLambda2 is the closed-form algebraic connectivity of an r x c grid
// graph under 4-connectivity: the smallest nonzero path eigenvalue over the
// two axes, 2(1 − cos(π/side)) for the longer side.
func gridLambda2(r, c int) float64 {
	side := r
	if c > side {
		side = c
	}
	return 2 * (1 - math.Cos(math.Pi/float64(side)))
}

func TestMultilevelFiedlerMatchesClosedFormOnGrids(t *testing.T) {
	cases := []struct{ r, c int }{
		{40, 40},   // square: degenerate λ₂, still must hit the value
		{96, 64},   // rectangular: simple λ₂
		{128, 128}, // large enough for a several-level hierarchy
	}
	for _, tc := range cases {
		g := graph.GridGraph(graph.MustGrid(tc.r, tc.c), graph.Orthogonal)
		res, err := MultilevelFiedler(g, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%dx%d: %v", tc.r, tc.c, err)
		}
		want := gridLambda2(tc.r, tc.c)
		if rel := math.Abs(res.Value-want) / want; rel > 0.01 {
			t.Errorf("%dx%d: λ₂ = %.8g, closed form %.8g (rel err %.3g)", tc.r, tc.c, res.Value, want, rel)
		}
		if res.Method != MethodMultilevel {
			t.Errorf("%dx%d: method %v", tc.r, tc.c, res.Method)
		}
		checkFiedlerInvariants(t, CSROperator{M: g.Laplacian()}, res)
	}
}

func TestMultilevelFiedlerMatchesExactOnPath(t *testing.T) {
	// Non-degenerate spectrum: multilevel and exact must agree on the
	// eigenvector itself (up to sign, which both canonicalize).
	const n = 600
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddUnitEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	ml, err := MultilevelFiedler(g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Fiedler(CSROperator{M: g.Laplacian()}, Options{Method: MethodInversePower, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(ml.Value-ex.Value) / ex.Value; rel > 1e-6 {
		t.Errorf("λ₂ multilevel %.10g vs exact %.10g", ml.Value, ex.Value)
	}
	if d := math.Abs(la.Dot(ml.Vector, ex.Vector)); d < 1-1e-6 {
		t.Errorf("|<ml, exact>| = %v, want ~1", d)
	}
}

// arrangementCost is Σ w·|rank_u − rank_v| for the order induced by x.
func arrangementCost(g *graph.Graph, x []float64) float64 {
	n := g.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if x[order[a]] != x[order[b]] {
			return x[order[a]] < x[order[b]]
		}
		return order[a] < order[b]
	})
	rank := make([]int, n)
	for r, v := range order {
		rank[v] = r
	}
	var cost float64
	g.Edges(func(u, v int, w float64) {
		d := rank[u] - rank[v]
		if d < 0 {
			d = -d
		}
		cost += w * float64(d)
	})
	return cost
}

func TestMultilevelOrderCostComparableToExact(t *testing.T) {
	// The acceptance bar of the multilevel path: the induced linear order
	// must be as good (in the discrete minimum-linear-arrangement objective)
	// as the exact solver's, not just the eigenvalue. A rectangular grid
	// keeps λ₂ simple so both solvers target the same eigenvector.
	g := graph.GridGraph(graph.MustGrid(96, 64), graph.Orthogonal)
	ml, err := MultilevelFiedler(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Fiedler(CSROperator{M: g.Laplacian()}, Options{Method: MethodInversePower, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	mlCost := arrangementCost(g, ml.Vector)
	exCost := arrangementCost(g, ex.Vector)
	if mlCost > 1.05*exCost {
		t.Errorf("multilevel arrangement cost %.0f vs exact %.0f (> 5%% worse)", mlCost, exCost)
	}
}

func TestMultilevelFiedlerParallelismConsistent(t *testing.T) {
	// Parallelism must not change correctness. (The SpMV is bit-identical
	// at any worker count; dot reductions use fixed-block partials, so
	// vectors may differ from serial in the last bits — both must still be
	// valid eigenpairs of the same λ₂.) The grid is deliberately above
	// la's serial cutoff (12288 vertices, ~48k Laplacian entries) so the
	// Parallelism=4 run actually takes the goroutine-parallel kernels
	// rather than silently delegating to the serial ones.
	g := graph.GridGraph(graph.MustGrid(128, 96), graph.Orthogonal)
	serial, err := MultilevelFiedler(g, Options{Seed: 9, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := MultilevelFiedler(g, Options{Seed: 9, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(serial.Value-par.Value) / serial.Value; rel > 1e-6 {
		t.Errorf("λ₂ differs across parallelism: %.10g vs %.10g", serial.Value, par.Value)
	}
	if d := math.Abs(la.Dot(serial.Vector, par.Vector)); d < 1-1e-6 {
		t.Errorf("|<serial, parallel>| = %v, want ~1", d)
	}
	checkFiedlerInvariants(t, CSROperator{M: g.Laplacian()}, par)
}

func TestMultilevelFiedlerSmallGraphFallsBackToExact(t *testing.T) {
	// Below the dense cutoff there is nothing to coarsen; the driver must
	// return the exact dense result.
	g := graph.GridGraph(graph.MustGrid(5, 5), graph.Orthogonal)
	res, err := MultilevelFiedler(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := gridLambda2(5, 5)
	if math.Abs(res.Value-want) > 1e-8 {
		t.Errorf("λ₂ = %.10g, want %.10g", res.Value, want)
	}
	if res.Method != MethodDense {
		t.Errorf("method %v, want dense fallback", res.Method)
	}
}

func TestMultilevelFiedlerRejectsDegenerateInputs(t *testing.T) {
	if _, err := MultilevelFiedler(graph.New(0), Options{}); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := MultilevelFiedler(graph.New(1), Options{}); err == nil {
		t.Error("single vertex accepted")
	}
}

func TestResolveMethodSelection(t *testing.T) {
	cases := []struct {
		opt       Options
		n         int
		haveGraph bool
		want      Method
	}{
		{Options{}, 50, false, MethodDense},
		{Options{}, 500, false, MethodInversePower},
		{Options{}, 500, true, MethodInversePower},
		{Options{}, 10000, false, MethodInversePower},
		{Options{}, 10000, true, MethodMultilevel},
		{Options{Method: MethodExact}, 10000, true, MethodInversePower},
		{Options{Method: MethodExact}, 50, true, MethodDense},
		{Options{Method: MethodMultilevel}, 500, true, MethodMultilevel},
		{Options{Method: MethodMultilevel}, 500, false, MethodInversePower},
		{Options{Method: MethodDense}, 10000, true, MethodDense},
		{Options{MultilevelCutoff: 100}, 200, true, MethodMultilevel},
	}
	for i, tc := range cases {
		if got := tc.opt.Resolve(tc.n, tc.haveGraph); got != tc.want {
			t.Errorf("case %d: Resolve(%d, %v) = %v, want %v", i, tc.n, tc.haveGraph, got, tc.want)
		}
	}
}

func TestParseMethod(t *testing.T) {
	for s, want := range map[string]Method{
		"auto": MethodAuto, "": MethodAuto, "exact": MethodExact,
		"multilevel": MethodMultilevel, "ml": MethodMultilevel,
		"inverse-power": MethodInversePower, "dense": MethodDense, "jacobi": MethodDense,
	} {
		got, err := ParseMethod(s)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"nope", "lanczos"} {
		if _, err := ParseMethod(s); err == nil {
			t.Errorf("unknown method %q accepted", s)
		}
	}
	for _, m := range []Method{MethodMultilevel, MethodExact} {
		back, err := ParseMethod(m.String())
		if err != nil || back != m {
			t.Errorf("round trip %v: got %v, %v", m, back, err)
		}
	}
}

func TestOrthonormalizeRescueSeedFollowsOptions(t *testing.T) {
	// Feed orthonormalize a degenerate block (second vector a copy of the
	// first): the rescue direction must differ across seeds — the old code
	// hardcoded rand.NewSource(1000+j) and produced the same rescue for
	// every Options.Seed.
	const n = 64
	mkBlock := func() [][]float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(i + 1))
		}
		la.Normalize(x)
		return [][]float64{append([]float64(nil), x...), append([]float64(nil), x...)}
	}
	deflate := [][]float64{la.UnitOnes(n)}
	a := mkBlock()
	orthonormalize(a, deflate, 1)
	b := mkBlock()
	orthonormalize(b, deflate, 2)
	c := mkBlock()
	orthonormalize(c, deflate, 1)
	// Same seed reproduces, different seed diverges.
	for i := range a[1] {
		if a[1][i] != c[1][i] {
			t.Fatalf("same seed produced different rescue vectors at %d", i)
		}
	}
	if d := math.Abs(la.Dot(a[1], b[1])); d > 1-1e-9 {
		t.Errorf("rescue vectors for seeds 1 and 2 are parallel (|dot| = %v)", d)
	}
}
