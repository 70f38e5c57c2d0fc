package spectrallpm_test

import (
	"math"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// TestFacadeQuickstart exercises the README's quick-start path end to end
// through the public API only.
func TestFacadeQuickstart(t *testing.T) {
	m := buildTestIndex(t, spectrallpm.WithGrid(8, 8)).Mapping()
	if m.N() != 64 {
		t.Fatalf("N = %d", m.N())
	}
	r := m.RankAt([]int{3, 7})
	if r < 0 || r >= 64 {
		t.Fatalf("rank = %d", r)
	}
	st, err := spectrallpm.RangeSpan(m, []int{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Max <= 0 || st.Queries != 36 {
		t.Fatalf("span stats %+v", st)
	}
}

func TestFacadePointSetWorkflow(t *testing.T) {
	// The arbitrary-point-set path: an L-shaped region.
	var points [][]int
	for x := 0; x < 6; x++ {
		points = append(points, []int{x, 0})
	}
	for y := 1; y < 4; y++ {
		points = append(points, []int{0, y})
	}
	g, err := spectrallpm.PointGraph(points)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spectrallpm.SpectralOrder(g, spectrallpm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != len(points) || res.Components != 1 {
		t.Fatalf("result %+v", res)
	}
	// The L-shape is a path graph in disguise: the order must walk the L
	// from one end to the other — endpoints are point 5 (end of the arm)
	// and point 8 (top of the leg).
	first, last := res.Order[0], res.Order[len(res.Order)-1]
	if !(first == 5 && last == 8 || first == 8 && last == 5) {
		t.Errorf("L-shape endpoints %d, %d (want 5 and 8)", first, last)
	}
	cost, err := spectrallpm.LinearArrangementCost(g, res.Rank)
	if err != nil {
		t.Fatal(err)
	}
	if cost != float64(len(points)-1) {
		t.Errorf("L-shape minLA cost %v, want %v", cost, len(points)-1)
	}
}

func TestFacadeCurvesAndStore(t *testing.T) {
	h, err := spectrallpm.NewCurve("hilbert", 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	ix := buildTestIndex(t, spectrallpm.WithGrid(8, 8), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(4))
	m := ix.Mapping()
	for id := 0; id < m.N(); id++ {
		coords := m.Grid().Coords(id, nil)
		if got, want := m.Rank(id), h.Index(coords); uint64(got) != want {
			t.Fatalf("vertex %d: rank %d, curve index %d", id, got, want)
		}
	}
	io, err := ix.QueryIO(spectrallpm.Box{Start: []int{0, 0}, Dims: []int{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if io.Pages < 1 {
		t.Errorf("io %+v", io)
	}
}

func TestFacadeBisectAndCosts(t *testing.T) {
	grid := spectrallpm.MustGrid(4, 4)
	g := spectrallpm.GridGraph(grid, spectrallpm.Orthogonal)
	left, right, err := spectrallpm.Bisect(g, spectrallpm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 8 || len(right) != 8 {
		t.Fatalf("bisection %v | %v", left, right)
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i)
	}
	if _, err := spectrallpm.ArrangementCost(g, x); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeStandardMappingsAll(t *testing.T) {
	for _, name := range spectrallpm.StandardMappings() {
		m := buildTestIndex(t, spectrallpm.WithGrid(5, 5), spectrallpm.WithMapping(name)).Mapping()
		if m.N() != 25 {
			t.Fatalf("%s: N=%d", name, m.N())
		}
	}
}

func TestFacadePartialRangeSpanAndPairwise(t *testing.T) {
	m := buildTestIndex(t, spectrallpm.WithGrid(6, 6), spectrallpm.WithMapping("hilbert")).Mapping()
	ps, err := spectrallpm.PartialRangeSpan(m, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Shapes == 0 || ps.Max <= 0 {
		t.Errorf("partial span %+v", ps)
	}
	pairs := spectrallpm.PairwiseByManhattan(m)
	if pairs.MaxDistance != 10 || pairs.MaxGapAt(1) <= 0 {
		t.Errorf("pairwise %+v", pairs)
	}
	ax, err := spectrallpm.AxisGap(m, 0, 2)
	if err != nil || ax.Count == 0 {
		t.Errorf("axis gap %+v err %v", ax, err)
	}
	cl, err := spectrallpm.RangeClusters(m, []int{2, 2})
	if err != nil || cl.Mean < 1 {
		t.Errorf("clusters %+v err %v", cl, err)
	}
}

func TestFacadeSolverOptionsPlumbing(t *testing.T) {
	grid := spectrallpm.MustGrid(10, 10)
	ix := buildTestIndex(t, spectrallpm.WithGrid(10, 10),
		spectrallpm.WithSolver(spectrallpm.SolverOptions{Method: spectrallpm.MethodDense, Seed: 9}))
	if ix.N() != 100 || ix.Solver() != "" {
		t.Fatalf("bad index: N=%d solver=%q", ix.N(), ix.Solver())
	}
	// Ranks via different solvers must induce equally optimal assignments
	// (possibly different orders on the degenerate eigenspace, but the
	// induced λ₂ matches).
	g := spectrallpm.GridGraph(grid, spectrallpm.Orthogonal)
	res, err := spectrallpm.SpectralOrder(g, spectrallpm.Options{
		Solver: spectrallpm.SolverOptions{Method: spectrallpm.MethodInversePower, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * math.Pow(math.Sin(math.Pi/20), 2)
	if math.Abs(res.Lambda2[0]-want) > 1e-6 {
		t.Errorf("λ₂ = %v, want %v", res.Lambda2[0], want)
	}
}
