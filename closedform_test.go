// Oracle tests for the closed-form spectral order: the automatic
// default-grid fast path (zero eigensolves) must be pinned rank-for-rank to
// the eigensolver path, which stays reachable through WithSolverMethod.
package spectrallpm_test

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// buildRanks returns the full rank permutation of a grid index.
func buildRanks(t testing.TB, opts ...spectrallpm.BuildOption) (*spectrallpm.Index, []int) {
	t.Helper()
	ix, err := spectrallpm.Build(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	m := ix.Mapping()
	if m == nil {
		t.Fatal("grid index has no mapping")
	}
	return ix, append([]int(nil), m.Ranks()...)
}

// TestClosedFormOracle is the acceptance property: the closed-form path and
// the exact eigensolver produce identical rank permutations on rectangular,
// square, degenerate (1×n), and 3-D grids, across seeds.
func TestClosedFormOracle(t *testing.T) {
	cases := [][]int{
		{12, 5}, {5, 12}, {1, 9}, {9, 1},
		{8, 8}, {7, 7}, {16, 16},
		{4, 4, 2}, {3, 3, 3}, {5, 4, 3}, {2, 2, 2, 2},
	}
	for _, dims := range cases {
		for _, seed := range []int64{0, 7} {
			fast, fastRanks := buildRanks(t,
				spectrallpm.WithGrid(dims...), spectrallpm.WithSeed(seed))
			if fast.Solver() != spectrallpm.SolverClosedForm {
				t.Fatalf("dims %v: default build used solver %q, want %q",
					dims, fast.Solver(), spectrallpm.SolverClosedForm)
			}
			slow, slowRanks := buildRanks(t,
				spectrallpm.WithGrid(dims...), spectrallpm.WithSeed(seed),
				spectrallpm.WithSolverMethod(spectrallpm.MethodExact))
			if slow.Solver() != "" {
				t.Fatalf("dims %v: forced method still reports %q", dims, slow.Solver())
			}
			if !slices.Equal(fastRanks, slowRanks) {
				t.Fatalf("dims %v seed %d: closed-form ranks differ from exact solver\nclosed-form: %v\nsolver:      %v",
					dims, seed, fastRanks, slowRanks)
			}
			fl, sl := fast.Lambda2(), slow.Lambda2()
			if len(fl) != 1 || len(sl) != 1 || math.Abs(fl[0]-sl[0]) > 1e-7*(1+sl[0]) {
				t.Fatalf("dims %v: λ₂ closed-form %v, solver %v", dims, fl, sl)
			}
		}
	}
}

// TestClosedFormBuildAllocs caps the allocations of a 512×512 closed-form
// build. Its ~131k tie groups are resolved over scratch owned by the
// build, so the count does not grow with the number of groups: one
// allocation per group would put it far above the ceiling.
func TestClosedFormBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 10000
	avg := testing.AllocsPerRun(3, func() {
		if _, err := spectrallpm.Build(context.Background(), spectrallpm.WithGrid(512, 512)); err != nil {
			t.Fatal(err)
		}
	})
	if avg >= ceiling {
		t.Fatalf("512x512 closed-form build made %.0f allocs, want fewer than %d", avg, ceiling)
	}
}

// TestClosedFormAppliesOnlyToDefaultBuilds: any option that changes the
// graph or the solve semantics must fall back to the eigensolver.
func TestClosedFormAppliesOnlyToDefaultBuilds(t *testing.T) {
	grid := []spectrallpm.BuildOption{spectrallpm.WithGrid(6, 4)}
	fallbacks := map[string]spectrallpm.BuildOption{
		"connectivity": spectrallpm.WithConnectivity(spectrallpm.Diagonal),
		"weights":      spectrallpm.WithEdgeWeights(func(u, v int) float64 { return 2 }),
		"affinity":     spectrallpm.WithAffinity(spectrallpm.AffinityEdge{U: 0, V: 23, Weight: 3}),
		"method":       spectrallpm.WithSolverMethod(spectrallpm.MethodInversePower),
		"degeneracy":   spectrallpm.WithDegeneracy(spectrallpm.DegeneracyRaw),
		"tolerance":    spectrallpm.WithSolver(spectrallpm.SolverOptions{Tol: 1e-7}),
	}
	for name, opt := range fallbacks {
		ix, err := spectrallpm.Build(context.Background(), append(grid[:1:1], opt)...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ix.Solver() != "" {
			t.Errorf("%s: expected eigensolver fallback, got solver %q", name, ix.Solver())
		}
	}
	// Parallelism and seed keep the fast path.
	ix, err := spectrallpm.Build(context.Background(),
		spectrallpm.WithGrid(6, 4), spectrallpm.WithParallelism(2), spectrallpm.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Solver() != spectrallpm.SolverClosedForm {
		t.Errorf("parallelism/seed disabled the closed form: solver %q", ix.Solver())
	}
	// Nine tied longest axes exceed the mixing cap and fall back.
	dims9 := []int{2, 2, 2, 2, 2, 2, 2, 2, 2}
	ix, err = spectrallpm.Build(context.Background(), spectrallpm.WithGrid(dims9...))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Solver() != "" {
		t.Errorf("9 tied axes should run the solver, got %q", ix.Solver())
	}
	// One longest axis over nine tied sides of 2: the top level is in
	// reach, but every slab is a sub-grid with nine tied axes. That refusal
	// inside the recursion also falls back instead of failing the build.
	ix, err = spectrallpm.Build(context.Background(), spectrallpm.WithGrid(append([]int{3}, dims9...)...))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Solver() != "" {
		t.Errorf("a sub-grid with 9 tied axes should run the solver, got %q", ix.Solver())
	}
}

// TestClosedFormProvenancePersists: the solver field survives the v2
// round trip and the v1 import, and eigensolver indexes keep it empty.
func TestClosedFormProvenancePersists(t *testing.T) {
	closed, err := spectrallpm.Build(context.Background(),
		spectrallpm.WithGrid(4, 3), spectrallpm.WithPageSize(4))
	if err != nil {
		t.Fatal(err)
	}
	solver, err := spectrallpm.Build(context.Background(),
		spectrallpm.WithGrid(4, 3), spectrallpm.WithSolverMethod(spectrallpm.MethodExact))
	if err != nil {
		t.Fatal(err)
	}
	for want, ix := range map[string]*spectrallpm.Index{spectrallpm.SolverClosedForm: closed, "": solver} {
		var buf bytes.Buffer
		if _, err := ix.WriteToV2(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := spectrallpm.ReadIndexV2(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Solver() != want {
			t.Errorf("v2 reload: solver %q, want %q", loaded.Solver(), want)
		}
		v1, err := spectrallpm.EncodeIndexV1ForTest(ix)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(v1), `"solver"`); got != (want != "") {
			t.Errorf("v1 encoding %s: solver field present = %v", v1, got)
		}
		imported, err := spectrallpm.ReadIndex(bytes.NewReader(v1))
		if err != nil {
			t.Fatal(err)
		}
		if imported.Solver() != want {
			t.Errorf("v1 import: solver %q, want %q", imported.Solver(), want)
		}
	}
}

// TestShardedBuildUsesClosedForm: per-shard builds of a default sharded
// grid go through the analytic engine too.
func TestShardedBuildUsesClosedForm(t *testing.T) {
	sx, err := spectrallpm.BuildSharded(context.Background(), 4,
		spectrallpm.WithGrid(16, 16), spectrallpm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sx.NumShards(); i++ {
		if got := sx.Shard(i).Solver(); got != spectrallpm.SolverClosedForm {
			t.Fatalf("shard %d built with solver %q", i, got)
		}
	}
}

// FuzzClosedFormGridOrder fuzzes small grid shapes (including degenerate
// 1×n and square cases) asserting the closed-form order equals the exact
// eigensolver order rank-for-rank.
func FuzzClosedFormGridOrder(f *testing.F) {
	f.Add(uint8(1), uint8(7), uint8(1), uint8(1)) // 1×7
	f.Add(uint8(4), uint8(4), uint8(1), uint8(1)) // square
	f.Add(uint8(3), uint8(3), uint8(3), uint8(2)) // cube
	f.Add(uint8(6), uint8(2), uint8(5), uint8(2)) // 3-D rectangular
	f.Add(uint8(5), uint8(1), uint8(1), uint8(0)) // path
	f.Fuzz(func(t *testing.T, a, b, c, dsel uint8) {
		sides := []int{1 + int(a)%7, 1 + int(b)%7, 1 + int(c)%7}
		dims := sides[:1+int(dsel)%3]
		fastIx, fast := buildRanks(t, spectrallpm.WithGrid(dims...), spectrallpm.WithSeed(1))
		if fastIx.Solver() != spectrallpm.SolverClosedForm {
			// Without this guard a broken fast-path detection would make
			// the comparison a vacuous solver-vs-solver check.
			t.Fatalf("dims %v: default build used solver %q", dims, fastIx.Solver())
		}
		_, slow := buildRanks(t,
			spectrallpm.WithGrid(dims...), spectrallpm.WithSeed(1),
			spectrallpm.WithSolverMethod(spectrallpm.MethodExact))
		if !slices.Equal(fast, slow) {
			t.Fatalf("dims %v: closed-form %v, solver %v", dims, fast, slow)
		}
	})
}
