package spectrallpm_test

import (
	"math"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/decluster"
	"github.com/spectral-lpm/spectrallpm/internal/rtree"
	"github.com/spectral-lpm/spectrallpm/internal/workload"
)

// TestEndToEndPipeline drives the whole stack the way a database would:
// choose a mapping, lay records on pages, answer range queries three ways
// (storage scan, cluster metric, R-tree), decluster across disks — and
// cross-checks that the independent implementations agree with each other.
func TestEndToEndPipeline(t *testing.T) {
	const (
		side     = 12
		pageSize = 6
		disks    = 3
	)
	grid := spectrallpm.MustGrid(side, side)
	for _, name := range []string{"spectral", "hilbert", "sweep"} {
		name := name
		t.Run(name, func(t *testing.T) {
			ix := buildTestIndex(t, spectrallpm.WithGrid(side, side), spectrallpm.WithMapping(name), spectrallpm.WithPageSize(pageSize))
			m := ix.Mapping()
			assign, err := decluster.RoundRobin(ix.NumPages(), disks)
			if err != nil {
				t.Fatal(err)
			}
			pts := workload.FullGridPoints(grid)
			packOrder := make([]int, m.N())
			for id := 0; id < m.N(); id++ {
				packOrder[m.Rank(id)] = id
			}
			tree, err := rtree.Pack(pts, packOrder, pageSize)
			if err != nil {
				t.Fatal(err)
			}

			boxes, err := workload.RandomBoxes(grid, []int{3, 4}, 40, 77)
			if err != nil {
				t.Fatal(err)
			}
			for _, box := range boxes {
				ids := workload.IDsInBox(grid, box)

				// 1. Storage accounting.
				io, err := ix.QueryIO(box)
				if err != nil {
					t.Fatal(err)
				}
				// Distinct result pages can never exceed result count or
				// total pages, and the span bounds the page count.
				if io.Pages > len(ids) || io.Pages > ix.NumPages() {
					t.Fatalf("box %+v: implausible Pages %d", box, io.Pages)
				}
				if io.SpanPages < io.Pages {
					t.Fatalf("box %+v: span %d < pages %d", box, io.SpanPages, io.Pages)
				}
				if io.Seeks > io.Pages {
					t.Fatalf("box %+v: seeks %d > pages %d", box, io.Seeks, io.Pages)
				}

				// 2. Cluster metric vs storage seeks: record-level clusters
				// are an upper bound on page-level contiguous runs.
				ranks := make([]int, len(ids))
				for i, id := range ids {
					ranks[i] = m.Rank(id)
				}
				recordClusters := countRuns(ranks)
				if io.Seeks > recordClusters {
					t.Fatalf("box %+v: page seeks %d exceed record clusters %d", box, io.Seeks, recordClusters)
				}

				// 3. R-tree agrees with the box contents exactly.
				rect, err := rtree.NewRect(box.Start, []int{
					box.Start[0] + box.Dims[0] - 1,
					box.Start[1] + box.Dims[1] - 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, visited := tree.Search(rect)
				if len(res) != len(ids) {
					t.Fatalf("box %+v: rtree found %d, want %d", box, len(res), len(ids))
				}
				if visited < 1 {
					t.Fatal("rtree visited no nodes for a non-empty query")
				}

				// 4. Declustering cost is bounded by the page count and by
				// the per-disk maximum.
				pages := map[int]bool{}
				for _, r := range ranks {
					pages[r/ix.RecordsPerPage()] = true
				}
				list := make([]int, 0, len(pages))
				for p := range pages {
					list = append(list, p)
				}
				cost := assign.QueryCost(list)
				if cost.Pages != io.Pages {
					t.Fatalf("box %+v: decluster pages %d != storage pages %d", box, cost.Pages, io.Pages)
				}
				if cost.Parallel > cost.Pages || cost.Parallel < cost.Ideal {
					t.Fatalf("box %+v: implausible parallel cost %+v", box, cost)
				}
			}
		})
	}
}

// TestMappingsAgreeOnGlobalInvariants checks quantities that must be
// identical for every bijective mapping, catching accounting bugs that a
// per-mapping test would miss.
func TestMappingsAgreeOnGlobalInvariants(t *testing.T) {
	grid := spectrallpm.MustGrid(6, 6)
	n := grid.Size()
	for _, name := range append(spectrallpm.StandardMappings(), "snake", "morton") {
		m := buildTestIndex(t, spectrallpm.WithGrid(6, 6), spectrallpm.WithMapping(name)).Mapping()
		// Sum of all ranks is fixed: n(n-1)/2.
		sum := 0
		for id := 0; id < n; id++ {
			sum += m.Rank(id)
		}
		if sum != n*(n-1)/2 {
			t.Errorf("%s: rank sum %d", name, sum)
		}
		// The whole-grid query spans all ranks for any mapping.
		st, err := spectrallpm.RangeSpan(m, []int{6, 6})
		if err != nil {
			t.Fatal(err)
		}
		if st.Max != n-1 || st.Queries != 1 {
			t.Errorf("%s: whole-grid span %+v", name, st)
		}
		// Pairwise gap totals: Σ over all pairs |Δrank| is
		// mapping-independent? No — but the count of pairs is.
		pairs := spectrallpm.PairwiseByManhattan(m)
		var count int64
		for _, c := range pairs.Count {
			count += c
		}
		if count != int64(n)*int64(n-1)/2 {
			t.Errorf("%s: pair count %d", name, count)
		}
	}
}

// TestSolverMethodsProduceEquallyOptimalOrders runs the full mapping
// pipeline under each eigensolver and verifies all reach the same λ₂-level
// objective, even if the degenerate orders differ.
func TestSolverMethodsProduceEquallyOptimalOrders(t *testing.T) {
	grid := spectrallpm.MustGrid(8, 8)
	g := spectrallpm.GridGraph(grid, spectrallpm.Orthogonal)
	var costs []float64
	for _, method := range []spectrallpm.SolverMethod{
		spectrallpm.MethodDense, spectrallpm.MethodInversePower, spectrallpm.MethodMultilevel,
	} {
		opt := spectrallpm.Options{}
		opt.Solver.Method = method
		opt.Solver.Seed = 21
		res, err := spectrallpm.SpectralOrder(g, opt)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		cost, err := spectrallpm.ArrangementCost(g, res.Fiedler)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, cost)
	}
	for i := 1; i < len(costs); i++ {
		if math.Abs(costs[i]-costs[0]) > 1e-5 {
			t.Errorf("solver objective mismatch: %v", costs)
		}
	}
}

func countRuns(ranks []int) int {
	if len(ranks) == 0 {
		return 0
	}
	sorted := append([]int(nil), ranks...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	runs := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1]+1 {
			runs++
		}
	}
	return runs
}
