// Benchmarks regenerating every figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`). One benchmark per paper artifact, named
// after DESIGN.md's experiment index, plus solver/curve microbenchmarks and
// the ablations DESIGN.md calls out. Quality numbers (the figures' y
// values) are attached to the timing output via b.ReportMetric so a single
// bench run shows both cost and reproduction quality.
package spectrallpm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/eigen"
	"github.com/spectral-lpm/spectrallpm/internal/experiments"
	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/sfc"
	"github.com/spectral-lpm/spectrallpm/internal/workload"
)

// BenchmarkFig1BoundaryEffect regenerates Figure 1 (the §2 boundary-effect
// demonstration) and reports the worst fractal-vs-spectral gap ratio on the
// largest grid.
func BenchmarkFig1BoundaryEffect(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure1(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		worstFractal, spectral := 0.0, 0.0
		for _, s := range fig.Series {
			last := s.Y[len(s.Y)-1]
			switch s.Name {
			case "Peano", "Gray", "Hilbert":
				if last > worstFractal {
					worstFractal = last
				}
			case "Spectral":
				spectral = last
			}
		}
		ratio = worstFractal / spectral
	}
	b.ReportMetric(ratio, "fractal/spectral-gap")
}

// BenchmarkFig3WorkedExample regenerates the paper's 3x3 example and
// reports λ₂ (the paper prints 1).
func BenchmarkFig3WorkedExample(b *testing.B) {
	var lambda float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		lambda = res.Lambda2
	}
	b.ReportMetric(lambda, "lambda2")
}

// BenchmarkFig4Connectivity regenerates the §4 connectivity variants.
func BenchmarkFig4Connectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(experiments.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5aNearestNeighborWorstCase regenerates Figure 5a (5-D NN
// worst case) and reports the mean spectral y-value (percent of N).
func BenchmarkFig5aNearestNeighborWorstCase(b *testing.B) {
	var spectralMean float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure5a(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			if s.Name == "Spectral" {
				spectralMean = meanOf(s.Y)
			}
		}
	}
	b.ReportMetric(spectralMean, "spectral-maxgap-%")
}

// BenchmarkFig5bFairness regenerates Figure 5b and reports the spectral
// X/Y fairness ratio (1.0 is perfectly fair; sweep's is ~side).
func BenchmarkFig5bFairness(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure5b(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		var sx, sy float64
		for _, s := range fig.Series {
			switch s.Name {
			case "Spectral-X":
				sx = meanOf(s.Y)
			case "Spectral-Y":
				sy = meanOf(s.Y)
			}
		}
		if sx > sy {
			ratio = sx / sy
		} else {
			ratio = sy / sx
		}
	}
	b.ReportMetric(ratio, "spectral-axis-ratio")
}

// BenchmarkFig6aRangeWorstCase regenerates Figure 6a (partial range
// queries, 4-D) and reports spectral's worst span at the largest size.
func BenchmarkFig6aRangeWorstCase(b *testing.B) {
	var spectralWorst float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure6a(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			if s.Name == "Spectral" {
				spectralWorst = s.Y[len(s.Y)-1]
			}
		}
	}
	b.ReportMetric(spectralWorst, "spectral-max-span")
}

// BenchmarkFig6bRangeFairness regenerates Figure 6b.
func BenchmarkFig6bRangeFairness(b *testing.B) {
	var spectralStd float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure6b(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			if s.Name == "Spectral" {
				spectralStd = meanOf(s.Y)
			}
		}
	}
	b.ReportMetric(spectralStd, "spectral-mean-stddev")
}

// BenchmarkExtAffinity regenerates the §4 affinity ablation and reports the
// gap reduction factor at the strongest weight.
func BenchmarkExtAffinity(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.ExtAffinity(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			if s.Name == "Spectral+affinity" {
				factor = s.Y[0] / s.Y[len(s.Y)-1]
			}
		}
	}
	b.ReportMetric(factor, "gap-reduction-x")
}

// BenchmarkExtIO regenerates the intro-applications comparison.
func BenchmarkExtIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtIO(experiments.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFiedlerSolvers compares the eigensolver implementations on grid
// Laplacians of growing size (the DESIGN.md EXT3 ablation): dense Jacobi
// up to n=256, deflated inverse power with CG (the production path)
// everywhere.
func BenchmarkFiedlerSolvers(b *testing.B) {
	for _, side := range []int{16, 32, 64} {
		g := graph.GridGraph(graph.MustGrid(side, side), graph.Orthogonal)
		op := eigen.CSROperator{M: g.Laplacian()}
		methods := []eigen.Method{eigen.MethodInversePower}
		if side <= 16 {
			methods = append(methods, eigen.MethodDense)
		}
		for _, m := range methods {
			b.Run(fmt.Sprintf("%s/n=%d", m, side*side), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := eigen.Fiedler(op, eigen.Options{Method: m, Seed: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMultilevelVsExact compares the multilevel Fiedler solver
// (heavy-edge-matching coarsening + warm-started refinement) against the
// exact deflated inverse-power path on large grid Laplacians — the
// scalability claim of the multilevel work. Both solve to the same residual
// tolerance; the reported metric is λ₂ relative to the closed form
// 2(1 − cos(π/side)), so a value of ~1.0 confirms the answer while the
// ns/op column shows the wall-clock gap. The exact solver at 512x512 runs
// minutes per solve; use -bench 'MultilevelVsExact/multilevel' to skip it.
func BenchmarkMultilevelVsExact(b *testing.B) {
	if testing.Short() {
		b.Skip("multilevel-vs-exact runs minutes per solve; skipped under -short")
	}
	for _, side := range []int{128, 256, 512} {
		g := graph.GridGraph(graph.MustGrid(side, side), graph.Orthogonal)
		closed := 2 * (1 - math.Cos(math.Pi/float64(side)))
		b.Run(fmt.Sprintf("multilevel/%dx%d", side, side), func(b *testing.B) {
			var lambda float64
			for i := 0; i < b.N; i++ {
				res, err := eigen.MultilevelFiedler(g, eigen.Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				lambda = res.Value
			}
			b.ReportMetric(lambda/closed, "lambda2/closed-form")
		})
		b.Run(fmt.Sprintf("exact/%dx%d", side, side), func(b *testing.B) {
			op := eigen.CSROperator{M: g.Laplacian()}
			var lambda float64
			for i := 0; i < b.N; i++ {
				res, err := eigen.Fiedler(op, eigen.Options{Method: eigen.MethodExact, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				lambda = res.Value
			}
			b.ReportMetric(lambda/closed, "lambda2/closed-form")
		})
	}
}

// BenchmarkSpectralOrder measures the full Spectral LPM pipeline (graph →
// Laplacian → Fiedler → order) on 2-D grids.
func BenchmarkSpectralOrder(b *testing.B) {
	for _, side := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("grid%dx%d", side, side), func(b *testing.B) {
			grid := spectrallpm.MustGrid(side, side)
			for i := 0; i < b.N; i++ {
				g := spectrallpm.GridGraph(grid, spectrallpm.Orthogonal)
				if _, err := spectrallpm.SpectralOrder(g, spectrallpm.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDegeneracyPolicy is the ablation of the balanced eigenspace
// resolution DESIGN.md calls out: it times both policies on a square grid
// and reports the fairness ratio each produces.
func BenchmarkDegeneracyPolicy(b *testing.B) {
	grid := graph.MustGrid(16, 16)
	for _, tc := range []struct {
		name   string
		policy spectrallpm.DegeneracyPolicy
	}{
		{"balanced", spectrallpm.DegeneracyBalanced},
		{"raw", spectrallpm.DegeneracyRaw},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				g := graph.GridGraph(grid, graph.Orthogonal)
				res, err := spectrallpm.SpectralOrder(g, spectrallpm.Options{Degeneracy: tc.policy})
				if err != nil {
					b.Fatal(err)
				}
				ix, err := spectrallpm.Build(context.Background(), spectrallpm.WithGrid(grid.Dims()...), spectrallpm.WithRanks(res.Rank))
				if err != nil {
					b.Fatal(err)
				}
				m := ix.Mapping()
				ax, err := spectrallpm.AxisGap(m, 1, 4)
				if err != nil {
					b.Fatal(err)
				}
				ay, err := spectrallpm.AxisGap(m, 0, 4)
				if err != nil {
					b.Fatal(err)
				}
				hi, lo := float64(ax.Max), float64(ay.Max)
				if lo > hi {
					hi, lo = lo, hi
				}
				if lo == 0 {
					lo = 1
				}
				ratio = hi / lo
			}
			b.ReportMetric(ratio, "axis-ratio")
		})
	}
}

// BenchmarkCurveIndex measures the forward transform of each curve family
// in 2-D and 4-D.
func BenchmarkCurveIndex(b *testing.B) {
	type tc struct {
		name    string
		d, side int
	}
	cases := []tc{
		{"hilbert", 2, 256}, {"hilbert", 4, 16},
		{"peano", 2, 243}, {"peano", 4, 27},
		{"gray", 2, 256}, {"gray", 4, 16},
		{"morton", 2, 256}, {"morton", 4, 16},
		{"sweep", 2, 256}, {"snake", 2, 256},
	}
	for _, c := range cases {
		curve, err := sfc.New(c.name, c.d, c.side)
		if err != nil {
			b.Fatal(err)
		}
		coords := make([]int, c.d)
		for i := range coords {
			coords[i] = c.side / 2
		}
		b.Run(fmt.Sprintf("%s/%dd", c.name, c.d), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				coords[0] = i % c.side
				sink += curve.Index(coords)
			}
			_ = sink
		})
	}
}

// BenchmarkPairwiseMetric measures the exact all-pairs locality metric.
func BenchmarkPairwiseMetric(b *testing.B) {
	m := buildTestIndex(b, spectrallpm.WithGrid(16, 16), spectrallpm.WithMapping("hilbert")).Mapping()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spectrallpm.PairwiseByManhattan(m)
	}
}

// BenchmarkPartialRangeSpan measures the sliding-window partial-query
// evaluator that makes Figure 6 affordable.
func BenchmarkPartialRangeSpan(b *testing.B) {
	m := buildTestIndex(b, spectrallpm.WithGrid(6, 6, 6, 6), spectrallpm.WithMapping("hilbert")).Mapping()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectrallpm.PartialRangeSpan(m, 0.08, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// BenchmarkExtKNN regenerates the k-NN recall experiment and reports
// spectral recall at the tightest window.
func BenchmarkExtKNN(b *testing.B) {
	var recall float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.ExtKNN(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			if s.Name == "Spectral" {
				recall = s.Y[0]
			}
		}
	}
	b.ReportMetric(recall, "spectral-recall@k")
}

// BenchmarkKWayPartition measures recursive spectral partitioning and
// reports the resulting edge cut on a 16x16 grid.
func BenchmarkKWayPartition(b *testing.B) {
	grid := graph.MustGrid(16, 16)
	g := graph.GridGraph(grid, graph.Orthogonal)
	var cut float64
	for i := 0; i < b.N; i++ {
		parts, err := spectrallpm.KWayPartition(g, 8, spectrallpm.Options{})
		if err != nil {
			b.Fatal(err)
		}
		labels, err := spectrallpm.PartitionLabels(parts, g.N())
		if err != nil {
			b.Fatal(err)
		}
		cut, err = spectrallpm.PartitionEdgeCut(g, labels)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cut, "edge-cut")
}

// BenchmarkExactMinLA measures the exponential exact minimum-linear-
// arrangement solver used to validate spectral orders, and reports the
// spectral/optimal cost ratio on a 4x4 grid.
func BenchmarkExactMinLA(b *testing.B) {
	g := graph.GridGraph(graph.MustGrid(4, 4), graph.Orthogonal)
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, _, _, err := spectrallpm.SpectralOptimalityRatio(g, spectrallpm.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ratio = r
	}
	b.ReportMetric(ratio, "spectral/optimal")
}

// BenchmarkIndexServing measures the hot serving paths of the Index API on
// a prebuilt spectral index: point lookups, amortized batches, streaming
// box scans, and page planning. These are the per-query costs of the
// build-once/query-many split; none of them may allocate surprisingly or
// regress, since a server pays them millions of times per solve.
func BenchmarkIndexServing(b *testing.B) {
	const side = 64
	ix, err := spectrallpm.Build(context.Background(),
		spectrallpm.WithGrid(side, side), spectrallpm.WithSeed(1), spectrallpm.WithPageSize(64))
	if err != nil {
		b.Fatal(err)
	}
	box := spectrallpm.Box{Start: []int{10, 10}, Dims: []int{8, 8}}
	b.Run("rank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.Rank(i%side, (i*7)%side); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rank-batch-64", func(b *testing.B) {
		coords := make([][]int, 64)
		for i := range coords {
			coords[i] = []int{i % side, (i * 13) % side}
		}
		dst := make([]int, 0, len(coords))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = ix.RankBatch(coords, dst[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	// scan-8x8 consumes the sequence with a range statement on purpose: its
	// 3 allocs/40 B per op are the range-over-func closure and captured
	// counter at THIS call site, not the library (the 16x16@256 rows below
	// consume through a predeclared yield and run at zero).
	// TestScanRangeAllocsPinned pins that ceiling.
	b.Run("scan-8x8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq, err := ix.Scan(box)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for range seq {
				n++
			}
			if n != 64 {
				b.Fatal("short scan")
			}
		}
	})
	b.Run("pages-8x8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.Pages(box); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The acceptance-size case: a 256x256 grid under 16x16 boxes. The
	// mapping family is irrelevant to the query engine (it consumes a
	// rank permutation), so a closed-form curve keeps setup instant.
	big, err := spectrallpm.Build(context.Background(),
		spectrallpm.WithGrid(256, 256), spectrallpm.WithMapping("hilbert"),
		spectrallpm.WithPageSize(64))
	if err != nil {
		b.Fatal(err)
	}
	bigBox := spectrallpm.Box{Start: []int{100, 100}, Dims: []int{16, 16}}
	// The 16x16@256 benches consume through the amortized serving pattern
	// (predeclared yield, reused PagesInto buffer): steady state is zero
	// allocations per query.
	b.Run("scan-16x16@256", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		yield := func(int, []int) bool { n++; return true }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seq, err := big.Scan(bigBox)
			if err != nil {
				b.Fatal(err)
			}
			n = 0
			seq(yield)
			if n != 256 {
				b.Fatal("short scan")
			}
		}
	})
	b.Run("pages-16x16@256", func(b *testing.B) {
		b.ReportAllocs()
		var dst []spectrallpm.PageRun
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = big.PagesInto(bigBox, dst[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("queryio-16x16@256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := big.QueryIO(bigBox); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("querybatch-64x16x16@256", func(b *testing.B) {
		boxes := make([]spectrallpm.Box, 64)
		for i := range boxes {
			boxes[i] = spectrallpm.Box{Start: []int{(i * 3) % 240, (i * 7) % 240}, Dims: []int{16, 16}}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := big.QueryBatch(boxes); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedServing measures the sharded serving path on a prebuilt
// 4-shard spectral index against the same spectral order served
// monolithically: the planner + per-shard engine + merge stack versus the
// single engine, on a box straddling shard boundaries (the worst case for
// the planner — every shard participates).
func BenchmarkShardedServing(b *testing.B) {
	const side = 64
	ctx := context.Background()
	sx, err := spectrallpm.BuildSharded(ctx, 4,
		spectrallpm.WithGrid(side, side), spectrallpm.WithSeed(1), spectrallpm.WithPageSize(64))
	if err != nil {
		b.Fatal(err)
	}
	box := spectrallpm.Box{Start: []int{28, 28}, Dims: []int{8, 8}} // straddles all 4 shards
	b.Run("scan-8x8@64", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		yield := func(int, []int) bool { n++; return true }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seq, err := sx.Scan(box)
			if err != nil {
				b.Fatal(err)
			}
			n = 0
			seq(yield)
			if n != 64 {
				b.Fatal("short scan")
			}
		}
	})
	b.Run("queryio-8x8@64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sx.QueryIO(box); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pages-8x8@64", func(b *testing.B) {
		b.ReportAllocs()
		var dst []spectrallpm.PageRun
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = sx.PagesInto(box, dst[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("querybatch-64x8x8@64", func(b *testing.B) {
		boxes := make([]spectrallpm.Box, 64)
		for i := range boxes {
			boxes[i] = spectrallpm.Box{Start: []int{(i * 3) % 56, (i * 7) % 56}, Dims: []int{8, 8}}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sx.QueryBatch(boxes); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedBuild is the acceptance-size build comparison: one
// monolithic multilevel EIGENSOLVE of a 512x512 grid (the method is forced,
// so the closed-form fast path stays out of the way) versus the 16-shard
// sharded build of the same grid. Since the closed-form engine landed, the
// sharded row's per-shard builds are analytic too — the row now measures
// plan + analytic builds + assembly rather than the historical one-shared-
// solve path; BenchmarkClosedFormBuild carries the unsharded analytic rows.
// Skipped under -short — the monolithic solve runs minutes; the committed
// BENCH_query.json snapshot carries the full-size rows.
func BenchmarkShardedBuild(b *testing.B) {
	if testing.Short() {
		b.Skip("512x512 builds run minutes per solve; skipped under -short")
	}
	const side = 512
	ctx := context.Background()
	b.Run("monolithic-multilevel/512x512", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := spectrallpm.Build(ctx,
				spectrallpm.WithGrid(side, side),
				spectrallpm.WithSolverMethod(spectrallpm.MethodMultilevel),
				spectrallpm.WithSeed(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sharded-16/512x512", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := spectrallpm.BuildSharded(ctx, 16,
				spectrallpm.WithGrid(side, side),
				spectrallpm.WithSeed(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClosedFormBuild measures the analytic default-grid build — the
// automatic fast path that computes the paper's spectral order with zero
// eigensolves. Compare against BenchmarkShardedBuild's
// monolithic-multilevel row, which forces the same 512x512 grid through
// the multilevel eigensolver: the closed form is three to four orders of
// magnitude faster. It runs at full benchtime even under -short — each
// build is milliseconds, which is the point.
func BenchmarkClosedFormBuild(b *testing.B) {
	ctx := context.Background()
	for _, dims := range [][]int{{512, 512}, {512, 384}, {64, 64, 64}} {
		name := ""
		for i, d := range dims {
			if i > 0 {
				name += "x"
			}
			name += fmt.Sprint(d)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix, err := spectrallpm.Build(ctx,
					spectrallpm.WithGrid(dims...), spectrallpm.WithSeed(1))
				if err != nil {
					b.Fatal(err)
				}
				if ix.Solver() != spectrallpm.SolverClosedForm {
					b.Fatalf("build took solver %q, want the closed form", ix.Solver())
				}
			}
		})
	}
}

// BenchmarkBoxQueryPointSweep measures point-set box queries at constant
// point density (1/4 of the bounding grid) and constant box size while the
// total point count grows 4x per step. A query path that scans every indexed
// point scales linearly with n here even though the result set stays ~64
// points; a spatial probe stays near-flat. Index construction goes through
// ReadIndex with a precomputed Hilbert-compact rank permutation so the sweep
// measures the serving path, not the eigensolve.
func BenchmarkBoxQueryPointSweep(b *testing.B) {
	for _, n := range []int{2048, 8192, 32768} {
		side := int(math.Round(2 * math.Sqrt(float64(n))))
		ix, err := buildPointIndexForBench(n, side)
		if err != nil {
			b.Fatal(err)
		}
		box := spectrallpm.Box{Start: []int{side/2 - 8, side/2 - 8}, Dims: []int{16, 16}}
		b.Run(fmt.Sprintf("scan-16x16/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			total := 0
			yield := func(int, []int) bool { total++; return true }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ix.ScanInto(box, yield); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(total)/float64(b.N), "results/op")
		})
		b.Run(fmt.Sprintf("queryio-16x16/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ix.QueryIO(box); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// writeV2Bench persists an index in the v2 binary format under the
// benchmark's temp dir and returns the file path.
func writeV2Bench(b *testing.B, ix *spectrallpm.Index) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "index.slpm2")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ix.WriteToV2(f); err != nil {
		f.Close()
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkMappedOpen measures open-to-first-query latency of the two
// on-disk formats on a 1024x1024 closed-form spectral index (about a
// million records). The v1 JSON importer must parse and materialize every
// array before any query can run; OpenMapped checksums and validates the
// v2 sections in place — no array is ever copied — and answers the first
// query straight from the read-only mapping. The v1/v2 latency ratio is
// attached to the v2 row as mmap_speedup. The package writes only v2, so
// the test-only v1 encoder supplies the v1 bytes.
func BenchmarkMappedOpen(b *testing.B) {
	const side = 1024
	ix, err := spectrallpm.Build(context.Background(),
		spectrallpm.WithGrid(side, side), spectrallpm.WithPageSize(64))
	if err != nil {
		b.Fatal(err)
	}
	box := spectrallpm.Box{Start: []int{100, 100}, Dims: []int{4, 4}}
	v1, err := spectrallpm.EncodeIndexV1ForTest(ix)
	if err != nil {
		b.Fatal(err)
	}
	path := writeV2Bench(b, ix)
	var v1ns, v2ns float64
	b.Run("v1-read+query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rix, err := spectrallpm.ReadIndex(bytes.NewReader(v1))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rix.QueryIO(box); err != nil {
				b.Fatal(err)
			}
		}
		v1ns = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("v2-mmap+query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mx, err := spectrallpm.OpenMapped(path)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mx.QueryIO(box); err != nil {
				b.Fatal(err)
			}
			if err := mx.Close(); err != nil {
				b.Fatal(err)
			}
		}
		v2ns = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		if v1ns > 0 && v2ns > 0 {
			b.ReportMetric(v1ns/v2ns, "mmap_speedup")
		}
	})
}

// BenchmarkMappedServing runs the zero-alloc serving subset of
// BenchmarkIndexServing on an index served in place from a read-only v2
// mapping, so the borrowed-slice engines are tracked by the same perf gate
// as the owned-slice ones. Steady state must stay at zero allocations per
// query — the frame refactor's contract is that the engines cannot tell
// borrowed storage from owned.
func BenchmarkMappedServing(b *testing.B) {
	built, err := spectrallpm.Build(context.Background(),
		spectrallpm.WithGrid(256, 256), spectrallpm.WithMapping("hilbert"),
		spectrallpm.WithPageSize(64))
	if err != nil {
		b.Fatal(err)
	}
	ix, err := spectrallpm.OpenMapped(writeV2Bench(b, built))
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	box := spectrallpm.Box{Start: []int{100, 100}, Dims: []int{16, 16}}
	b.Run("scan-16x16@256", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		yield := func(int, []int) bool { n++; return true }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n = 0
			if err := ix.ScanInto(box, yield); err != nil {
				b.Fatal(err)
			}
			if n != 256 {
				b.Fatal("short scan")
			}
		}
	})
	b.Run("pages-16x16@256", func(b *testing.B) {
		b.ReportAllocs()
		var dst []spectrallpm.PageRun
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = ix.PagesInto(box, dst[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("queryio-16x16@256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ix.QueryIO(box); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// buildPointIndexForBench assembles a point-set index from a serialized
// form: n uniform points on a side x side grid, ranked by Hilbert index and
// compacted. ReadIndex is the production load path for prebuilt orders, so
// the benchmark index is built exactly the way a server would load one.
func buildPointIndexForBench(n, side int) (*spectrallpm.Index, error) {
	grid := graph.MustGrid(side, side)
	pts, err := workload.UniformPoints(grid, n, 7)
	if err != nil {
		return nil, err
	}
	pow2 := 2
	for pow2 < side {
		pow2 *= 2
	}
	curve, err := sfc.New("hilbert", 2, pow2)
	if err != nil {
		return nil, err
	}
	type kv struct {
		pid int
		key uint64
	}
	keys := make([]kv, n)
	for i, p := range pts {
		keys[i] = kv{pid: i, key: curve.Index(p)}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].key < keys[b].key })
	rank := make([]int, n)
	for r, k := range keys {
		rank[k.pid] = r
	}
	file, err := json.Marshal(map[string]any{
		"format":           "spectrallpm-index",
		"version":          1,
		"name":             "spectral",
		"dims":             grid.Dims(),
		"records_per_page": 64,
		"points":           pts,
		"rank":             rank,
	})
	if err != nil {
		return nil, err
	}
	return spectrallpm.ReadIndex(bytes.NewReader(file))
}
