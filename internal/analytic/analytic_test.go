package analytic

import (
	"math"
	"slices"
	"testing"

	"github.com/spectral-lpm/spectrallpm/internal/core"
	"github.com/spectral-lpm/spectrallpm/internal/eigen"
	"github.com/spectral-lpm/spectrallpm/internal/graph"
)

// TestGridOrderMatchesSolver is the package-level oracle: the closed-form
// order equals the eigensolver order rank-for-rank on rectangular, square,
// degenerate (1×n), and 3-D grids, under the same seed.
func TestGridOrderMatchesSolver(t *testing.T) {
	cases := [][]int{
		{1}, {2}, {5}, {12},
		{1, 7}, {7, 1}, {9, 4}, {4, 9}, {2, 2}, {3, 3}, {6, 6}, {7, 7},
		{16, 16}, {12, 5},
		{3, 3, 3}, {4, 4, 2}, {2, 2, 2}, {5, 1, 5}, {2, 3, 4}, {1, 1, 6},
		{2, 2, 2, 2},
	}
	for _, dims := range cases {
		for _, seed := range []int64{0, 1, 42} {
			grid := graph.MustGrid(dims...)
			got, err := GridOrder(grid, seed)
			if err != nil {
				t.Fatalf("dims %v: %v", dims, err)
			}
			g := graph.GridGraph(grid, graph.Orthogonal)
			want, err := core.SpectralOrder(g, core.Options{Solver: eigen.Options{Seed: seed}})
			if err != nil {
				t.Fatalf("dims %v: solver: %v", dims, err)
			}
			for r := range want.Order {
				if got.Order[r] != want.Order[r] {
					t.Fatalf("dims %v seed %d: rank %d holds vertex %d analytically, %d by solver\nanalytic: %v\nsolver:   %v",
						dims, seed, r, got.Order[r], want.Order[r], got.Order, want.Order)
				}
			}
			if len(want.Lambda2) != 1 && grid.Size() > 1 {
				t.Fatalf("dims %v: %d solver components", dims, len(want.Lambda2))
			}
			if grid.Size() > 1 && math.Abs(got.Lambda2-want.Lambda2[0]) > 1e-7*(1+want.Lambda2[0]) {
				t.Fatalf("dims %v: λ₂ analytic %v, solver %v", dims, got.Lambda2, want.Lambda2[0])
			}
		}
	}
}

// TestGridOrderInversePowerOracle pins the closed form against the sparse
// production solver (above the dense cutoff), not just dense Jacobi.
func TestGridOrderInversePowerOracle(t *testing.T) {
	for _, dims := range [][]int{{20, 20}, {25, 13}, {7, 7, 7}} {
		grid := graph.MustGrid(dims...)
		got, err := GridOrder(grid, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.GridGraph(grid, graph.Orthogonal)
		want, err := core.SpectralOrder(g, core.Options{
			Solver: eigen.Options{Method: eigen.MethodInversePower, Seed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := range want.Order {
			if got.Order[r] != want.Order[r] {
				t.Fatalf("dims %v: rank %d holds %d analytically, %d by inverse power",
					dims, r, got.Order[r], want.Order[r])
			}
		}
	}
}

func TestGridOrderBasicInvariants(t *testing.T) {
	for _, dims := range [][]int{{1}, {9}, {1, 9}, {6, 4}, {5, 5}, {3, 4, 5}} {
		grid := graph.MustGrid(dims...)
		res, err := GridOrder(grid, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := grid.Size()
		seen := make([]bool, n)
		for r, v := range res.Order {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("dims %v: order not a permutation: %v", dims, res.Order)
			}
			seen[v] = true
			if res.Rank[v] != r {
				t.Fatalf("dims %v: rank/order inverse broken at %d", dims, v)
			}
		}
		if n > 1 {
			m := 0
			for _, s := range dims {
				if s > m {
					m = s
				}
			}
			want := 2 * (1 - math.Cos(math.Pi/float64(m)))
			if res.Lambda2 != want {
				t.Fatalf("dims %v: λ₂ %v, want %v", dims, res.Lambda2, want)
			}
		}
	}
}

// TestPathOrderIsSequential: the canonical orientation starts a path at
// vertex 0, the provably optimal arrangement.
func TestPathOrderIsSequential(t *testing.T) {
	res, err := GridOrder(graph.MustGrid(17), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Order {
		if v != i {
			t.Fatalf("path order = %v", res.Order)
		}
	}
}

func TestApplicable(t *testing.T) {
	if !Applicable(graph.MustGrid(4, 4)) || !Applicable(graph.MustGrid(1)) ||
		!Applicable(graph.MustGrid(2, 2, 2, 2, 2, 2, 2, 2)) {
		t.Error("expected applicable")
	}
	if Applicable(graph.MustGrid(2, 2, 2, 2, 2, 2, 2, 2, 2)) {
		t.Error("9 tied axes should exceed the mixing cap")
	}
}

// TestBalancedMixIsFair: on a square grid the analytic mix must spread λ₂
// energy across both axes (the fairness the balanced policy exists for).
func TestBalancedMixIsFair(t *testing.T) {
	grid := graph.MustGrid(8, 8)
	res, err := GridOrder(grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GridGraph(grid, graph.Orthogonal)
	energy := make([]float64, 2)
	cu := make([]int, 2)
	cv := make([]int, 2)
	g.Edges(func(u, v int, w float64) {
		grid.Coords(u, cu)
		grid.Coords(v, cv)
		d := res.Fiedler[u] - res.Fiedler[v]
		for k := 0; k < 2; k++ {
			if cu[k] != cv[k] {
				energy[k] += w * d * d
				break
			}
		}
	})
	total := energy[0] + energy[1]
	for k, e := range energy {
		if e/total < 0.25 {
			t.Errorf("axis %d carries only %.1f%% of λ₂ energy", k, 100*e/total)
		}
	}
}

// TestBoxOrderTranslationInvariant backs the per-shape memo of box
// orders: the paper's recursion orders a tie component by Spectral LPM on
// the subgraph it induces, and for an axis-aligned box that order depends
// only on the box's dims, not on where the box sits. Every offset of the
// same dims, ordered by the eigensolver on the induced subgraph of the
// enclosing grid, gives the same relative order, and it is the closed-form
// order of the box grid.
func TestBoxOrderTranslationInvariant(t *testing.T) {
	cases := []struct {
		grid, box []int
	}{
		{[]int{9, 9}, []int{2, 1}},
		{[]int{9, 9}, []int{3, 3}},
		{[]int{9, 9}, []int{1, 5}},
		{[]int{12, 7}, []int{4, 7}},
		{[]int{6, 6, 6}, []int{2, 2, 1}},
		{[]int{6, 6, 6}, []int{3, 2, 6}},
	}
	for _, c := range cases {
		grid := graph.MustGrid(c.grid...)
		g := graph.GridGraph(grid, graph.Orthogonal)
		want, err := orderOf(graph.MustGrid(c.box...), 3)
		if err != nil {
			t.Fatal(err)
		}
		// Every offset along the first axis, and the far corner.
		var offsets [][]int
		for o := 0; o+c.box[0] <= c.grid[0]; o++ {
			off := make([]int, len(c.grid))
			off[0] = o
			offsets = append(offsets, off)
		}
		far := make([]int, len(c.grid))
		for i := range far {
			far[i] = c.grid[i] - c.box[i]
		}
		offsets = append(offsets, far)
		for _, off := range offsets {
			box := graph.MustGrid(c.box...)
			members := make([]int, 0, box.Size())
			coords := make([]int, len(c.box))
			for v := 0; v < box.Size(); v++ {
				box.Coords(v, coords)
				for i := range coords {
					coords[i] += off[i]
				}
				members = append(members, grid.ID(coords))
			}
			sub, _, err := g.Subgraph(members)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.SpectralOrder(sub, core.Options{Solver: eigen.Options{Seed: 3}})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Order, want) {
				t.Fatalf("grid %v box %v at %v: induced order %v, closed-form box order %v",
					c.grid, c.box, off, res.Order, want)
			}
		}
	}
}
