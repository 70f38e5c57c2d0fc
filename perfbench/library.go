package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/analytic"
	"github.com/spectral-lpm/spectrallpm/internal/core"
	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/order"
	"github.com/spectral-lpm/spectrallpm/internal/rtree"
	"github.com/spectral-lpm/spectrallpm/internal/storage"
	"github.com/spectral-lpm/spectrallpm/internal/workload"
)

// The library workload is the user who embeds the library: a closed,
// single-goroutine loop of Build, WriteToV2, OpenMapped and box queries
// answered through ScanInto and PagesInto on the mapped index. Each pass
// cycles four index specs that take different build paths:
//   - square: 1024x1024, tied axes, so the closed form recurses through tie groups;
//   - rect: 1024x768, no ties;
//   - cube: 64x64x64, three tied axes;
//   - points: ~11k clustered points, the eigensolver and R-tree path.

const (
	libBoxesPerSide = 512
	libLookups      = 1024
	libSetupReps    = 15
)

// libSpec is one index spec with its seeded queries.
type libSpec struct {
	name    string
	shape   string // analytic.grid_order_ms.<shape> for grid specs
	dims    []int
	points  [][]int // nil for full grids
	sides   []int
	boxes   []box
	lookups [][]int // coordinates for Rank
	ranks   []int   // ranks for Point

	// Expected answers, filled from the built index by brute force on the
	// first pass and checked on every pass.
	want      []boxWant
	wantRank  []int
	wantPoint [][]int
}

// boxWant is the expected outcome of one box query.
type boxWant struct {
	rows, runs     int
	rowSum, runSum uint64
}

func (s *libSpec) opts() []spectrallpm.BuildOption {
	if s.points != nil {
		return []spectrallpm.BuildOption{spectrallpm.WithPoints(s.points)}
	}
	return []spectrallpm.BuildOption{spectrallpm.WithGrid(s.dims...)}
}

// libInputs generates every spec's inputs from the seed: the clustered
// point set, the boxes and the lookups.
func libInputs(seed int64) ([]*libSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	specs := []*libSpec{
		{name: "square", shape: "square", dims: []int{1024, 1024}, sides: []int{4, 16, 64}},
		{name: "rect", shape: "rect", dims: []int{1024, 768}, sides: []int{4, 16, 64}},
		{name: "cube", shape: "cube", dims: []int{64, 64, 64}, sides: []int{2, 8, 16}},
		{name: "points", dims: []int{1024, 1024}, sides: []int{16, 64, 256}},
	}
	pts, err := workload.ClusteredPoints(graph.MustGrid(1024, 1024), 12, 1000, 40, rng.Int63())
	if err != nil {
		return nil, err
	}
	specs[3].points = pts
	for _, s := range specs {
		for _, side := range s.sides {
			for i := 0; i < libBoxesPerSide; i++ {
				bx := box{start: make([]int, len(s.dims)), dims: make([]int, len(s.dims))}
				for j, d := range s.dims {
					bx.dims[j] = side
					bx.start[j] = rng.Intn(d - side + 1)
				}
				s.boxes = append(s.boxes, bx)
			}
		}
		rng.Shuffle(len(s.boxes), func(i, j int) { s.boxes[i], s.boxes[j] = s.boxes[j], s.boxes[i] })
		n := len(pts)
		if s.points == nil {
			n = 1
			for _, d := range s.dims {
				n *= d
			}
		}
		for i := 0; i < libLookups; i++ {
			if s.points != nil {
				s.lookups = append(s.lookups, s.points[rng.Intn(n)])
			} else {
				c := make([]int, len(s.dims))
				for j, d := range s.dims {
					c[j] = rng.Intn(d)
				}
				s.lookups = append(s.lookups, c)
			}
			s.ranks = append(s.ranks, rng.Intn(n))
		}
	}
	return specs, nil
}

// rowHash folds one scanned row into a running digest.
func rowHash(h uint64, rank int, coords []int) uint64 {
	h = (h ^ uint64(rank)) * 0x100000001b3
	for _, c := range coords {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

func runHash(runs []spectrallpm.PageRun) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, r := range runs {
		h = (h ^ uint64(r.Start)) * 0x100000001b3
		h = (h ^ uint64(r.Pages)) * 0x100000001b3
	}
	return h
}

// expect computes the spec's expected answers from the built index without
// its query engine: box members by enumeration, sorted by rank, and page
// runs from those ranks.
func (s *libSpec) expect(ix *spectrallpm.Index) error {
	rpp := ix.RecordsPerPage()
	grid := graph.MustGrid(s.dims...)
	type row struct {
		rank   int
		coords []int
	}
	s.want = s.want[:0]
	for _, bx := range s.boxes {
		var rows []row
		wb := spectrallpm.Box{Start: bx.start, Dims: bx.dims}
		if s.points == nil {
			m := ix.Mapping()
			for _, id := range workload.IDsInBox(grid, wb) {
				rows = append(rows, row{m.Rank(id), grid.Coords(id, nil)})
			}
		} else {
			for _, p := range s.points {
				if wb.Contains(p) {
					r, err := ix.Rank(p...)
					if err != nil {
						return err
					}
					rows = append(rows, row{r, p})
				}
			}
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].rank < rows[j].rank })
		w := boxWant{rowSum: 0xcbf29ce484222325}
		var runs []spectrallpm.PageRun
		for _, r := range rows {
			w.rowSum = rowHash(w.rowSum, r.rank, r.coords)
			p := r.rank / rpp
			if k := len(runs) - 1; k >= 0 && p <= runs[k].Start+runs[k].Pages {
				runs[k].Pages = p - runs[k].Start + 1
			} else {
				runs = append(runs, spectrallpm.PageRun{Start: p, Pages: 1})
			}
		}
		w.rows, w.runs, w.runSum = len(rows), len(runs), runHash(runs)
		s.want = append(s.want, w)
	}
	s.wantRank, s.wantPoint = s.wantRank[:0], s.wantPoint[:0]
	for _, c := range s.lookups {
		r, err := ix.Rank(c...)
		if err != nil {
			return err
		}
		s.wantRank = append(s.wantRank, r)
	}
	for _, r := range s.ranks {
		c, err := ix.Point(r)
		if err != nil {
			return err
		}
		s.wantPoint = append(s.wantPoint, c)
	}
	return nil
}

// libPass accumulates one pass's figures.
type libPass struct {
	buildS, openMs float64
	scan           []float64 // per box, ms
	lookup         []float64 // per lookup, ms
	reload         []float64 // ms
	boxTime        time.Duration
	boxes, seeks   int
}

func runLibrary(rc *runCtx) error {
	var gens []float64
	var specs []*libSpec
	for i := 0; i < libSetupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		specs, err = libInputs(rc.seed)
		if err != nil {
			return err
		}
		gens = append(gens, time.Since(t0).Seconds())
	}
	rc.rep.set("setup_s", median(gens))
	dir, err := rc.tempDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var plain, traced []*libPass
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < time.Duration(rc.seconds)*time.Second || (rc.traced && len(plain) == 0); k++ {
		// Traced runs trace every other pass; the untraced passes give the
		// overhead baseline.
		on := rc.traced && k%2 == 0
		p, err := libraryPass(rc, specs, dir, on)
		if err != nil {
			return err
		}
		if on {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	runtime.ReadMemStats(&ms1)
	rc.rep.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	rc.rep.set("runtime.heap_mb", float64(ms1.HeapInuse)/(1<<20))

	var builds, opens, scan, lookup, reload []float64
	var boxTime time.Duration
	boxes, seeks := 0, 0
	for _, p := range plain {
		builds, opens = append(builds, p.buildS), append(opens, p.openMs)
		scan, lookup, reload = append(scan, p.scan...), append(lookup, p.lookup...), append(reload, p.reload...)
		boxTime += p.boxTime
		boxes += p.boxes
		seeks += p.seeks
	}
	sd, ld := summarize(scan), summarize(lookup)
	rc.logf("library: %d untraced passes, %d traced; build %.3fs/pass; scan %v ms; lookup %v ms", len(plain), len(traced), median(builds), sd, ld)
	rc.rep.set("build_s", median(builds))
	rc.rep.set("open_ms", median(opens))
	rc.rep.set("scan_p50_ms", sd.P50)
	rc.rep.set("scan_p99_ms", sd.Tail)
	rc.rep.set("lookup_p50_ms", ld.P50)
	rc.rep.set("lookup_p99_ms", ld.Tail)
	rc.rep.set("reload_ms", median(reload))
	rc.rep.set("max_rps", float64(boxes)/boxTime.Seconds())
	rc.rep.set("seeks_per_box", float64(seeks)/float64(boxes))

	if rc.traced {
		var tBoxTime time.Duration
		tBoxes := 0
		for _, p := range traced {
			tBoxTime += p.boxTime
			tBoxes += p.boxes
		}
		perOff := boxTime.Seconds() / float64(boxes)
		perOn := tBoxTime.Seconds() / float64(tBoxes)
		rc.rep.set("trace.overhead_pct", 100*(perOn/perOff-1))
		libLayers(rc)
	}
	return nil
}

// libraryPass builds, writes, opens and queries every spec once.
func libraryPass(rc *runCtx, specs []*libSpec, dir string, traced bool) (*libPass, error) {
	p := &libPass{}
	tr := rc.tr
	if !traced {
		tr = nil
	}
	for _, s := range specs {
		path := filepath.Join(dir, s.name+".idx")
		t0 := time.Now()
		var ix *spectrallpm.Index
		var err error
		tr.timed("library.build", func() { ix, err = spectrallpm.Build(context.Background(), s.opts()...) })
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", s.name, err)
		}
		tr.timed("codec.write_v2", func() { err = writeIndexFile(path, ix) })
		if err != nil {
			return nil, err
		}
		p.buildS += time.Since(t0).Seconds()
		rc.verdict.attempted++
		if s.want == nil {
			if err := s.expect(ix); err != nil {
				return nil, err
			}
		}
		if traced {
			if err := replayBuild(rc, s); err != nil {
				return nil, err
			}
		}

		t1 := time.Now()
		var mx *spectrallpm.Index
		tr.timed("codec.open_mapped", func() { mx, err = spectrallpm.OpenMapped(path) })
		if err != nil {
			return nil, err
		}
		rc.checkBox(s, mx, 0)
		p.openMs += ms(time.Since(t1))
		runtime.GC() // the build's garbage is not the queries' cost

		var runs []spectrallpm.PageRun
		for i, bx := range s.boxes {
			wb := spectrallpm.Box{Start: bx.start, Dims: bx.dims}
			rows, sum := 0, uint64(0xcbf29ce484222325)
			var t2, t3 time.Time
			var scanErr, pagesErr error
			t2 = time.Now()
			if traced {
				tr.timed("serve.scan", func() {
					scanErr = mx.ScanInto(wb, func(r int, c []int) bool { sum = rowHash(sum, r, c); rows++; return true })
				})
				tr.timed("serve.pages", func() { runs, pagesErr = mx.PagesInto(wb, runs[:0]) })
			} else {
				scanErr = mx.ScanInto(wb, func(r int, c []int) bool { sum = rowHash(sum, r, c); rows++; return true })
				runs, pagesErr = mx.PagesInto(wb, runs[:0])
			}
			t3 = time.Now()
			d := t3.Sub(t2)
			p.scan = append(p.scan, ms(d))
			p.boxTime += d
			p.boxes++
			p.seeks += len(runs)
			rc.verdict.attempted++
			w := s.want[i]
			if scanErr != nil || pagesErr != nil || rows != w.rows || sum != w.rowSum || len(runs) != w.runs || runHash(runs) != w.runSum {
				rc.verdict.failed++
				rc.verdict.note(fmt.Sprintf("library %s box %v: rows %d/%d runs %d/%d (%v, %v)", s.name, bx, rows, w.rows, len(runs), w.runs, scanErr, pagesErr))
			}
		}
		if traced {
			measureAllocs(rc, s, mx)
		}
		for i, c := range s.lookups {
			t2 := time.Now()
			r, err := mx.Rank(c...)
			p.lookup = append(p.lookup, ms(time.Since(t2)))
			rc.verdict.attempted++
			if err != nil || r != s.wantRank[i] {
				rc.verdict.failed++
				rc.verdict.note(fmt.Sprintf("library %s rank %v = %d, want %d (%v)", s.name, c, r, s.wantRank[i], err))
			}
		}
		for i, r := range s.ranks {
			t2 := time.Now()
			c, err := mx.Point(r)
			p.lookup = append(p.lookup, ms(time.Since(t2)))
			rc.verdict.attempted++
			if err != nil || !slices.Equal(c, s.wantPoint[i]) {
				rc.verdict.failed++
				rc.verdict.note(fmt.Sprintf("library %s point %d = %v, want %v (%v)", s.name, r, c, s.wantPoint[i], err))
			}
		}

		// A hot swap as an embedding server does it: open the replacement,
		// then close the old handle, which waits for in-flight borrows.
		t4 := time.Now()
		mx2, err := spectrallpm.OpenMapped(path)
		if err != nil {
			return nil, err
		}
		if err := mx.Close(); err != nil {
			return nil, err
		}
		p.reload = append(p.reload, ms(time.Since(t4)))
		rc.checkBox(s, mx2, len(s.boxes)-1)
		if err := mx2.Close(); err != nil {
			return nil, err
		}
		if err := os.Remove(path); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// checkBox verifies one box answer outside any timed section.
func (rc *runCtx) checkBox(s *libSpec, ix *spectrallpm.Index, i int) {
	bx := s.boxes[i]
	rows, sum := 0, uint64(0xcbf29ce484222325)
	err := ix.ScanInto(spectrallpm.Box{Start: bx.start, Dims: bx.dims}, func(r int, c []int) bool {
		sum = rowHash(sum, r, c)
		rows++
		return true
	})
	rc.verdict.attempted++
	if err != nil || rows != s.want[i].rows || sum != s.want[i].rowSum {
		rc.verdict.failed++
		rc.verdict.note(fmt.Sprintf("library %s verified box %v: %d rows, want %d (%v)", s.name, bx, rows, s.want[i].rows, err))
	}
}

// replayBuild repeats the spec's build through each layer's public entry
// point, one span per layer: the steps Build runs inside, which the
// benchmark cannot time without instrumenting the library.
func replayBuild(rc *runCtx, s *libSpec) error {
	tr := rc.tr
	var err error
	if s.points != nil {
		var g *graph.Graph
		var res *core.Result
		tr.timed("core.spectral_order", func() {
			g, err = graph.PointGraph(s.points)
			if err == nil {
				res, err = core.SpectralOrder(g, core.Options{})
			}
		})
		if err != nil {
			return err
		}
		tr.timed("rtree.pack", func() { _, err = rtree.Pack(s.points, res.Order, 16) })
		return err
	}
	grid := graph.MustGrid(s.dims...)
	var ar *analytic.Result
	tr.timed("analytic.grid_order."+s.shape, func() { ar, err = analytic.GridOrder(grid, 0) })
	if err != nil {
		return err
	}
	var m *order.Mapping
	tr.timed("order.from_ranks", func() { m, err = order.FromRanks("spectral", grid, ar.Rank) })
	if err != nil {
		return err
	}
	var st *storage.Store
	tr.timed("storage.new_store", func() { st, err = storage.NewStore(m, spectrallpm.DefaultRecordsPerPage) })
	if err != nil {
		return err
	}
	var dst []int
	for _, bx := range s.boxes {
		wb := spectrallpm.Box{Start: bx.start, Dims: bx.dims}
		tr.timed("storage.box_ranks", func() { dst, err = st.BoxRanksAppend(dst[:0], wb) })
		if err != nil {
			return err
		}
	}
	return nil
}

// measureAllocs counts heap allocations per box of ScanInto plus
// PagesInto on the mapped index, with a reused plan buffer.
func measureAllocs(rc *runCtx, s *libSpec, mx *spectrallpm.Index) {
	var runs []spectrallpm.PageRun
	yield := func(int, []int) bool { return true }
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for _, bx := range s.boxes {
		wb := spectrallpm.Box{Start: bx.start, Dims: bx.dims}
		mx.ScanInto(wb, yield)
		runs, _ = mx.PagesInto(wb, runs[:0])
	}
	runtime.ReadMemStats(&b)
	rc.libAllocs = append(rc.libAllocs, float64(b.Mallocs-a.Mallocs)/float64(len(s.boxes)))
}

// libLayers turns the traced passes' spans into per-layer figures: build
// phases as the median per pass, per-box calls as the mean per call.
func libLayers(rc *runCtx) {
	byName := map[string][]float64{}
	for _, s := range rc.tr.snapshot() {
		byName[s.Name] = append(byName[s.Name], float64(s.dur()))
	}
	perPass := map[string]string{
		"analytic.grid_order_ms.square": "analytic.grid_order.square",
		"analytic.grid_order_ms.rect":   "analytic.grid_order.rect",
		"analytic.grid_order_ms.cube":   "analytic.grid_order.cube",
		"core.spectral_order_ms":        "core.spectral_order",
		"rtree.pack_ms":                 "rtree.pack",
	}
	for metricName, spanName := range perPass {
		rc.rep.set(metricName, median(byName[spanName])/1e6)
	}
	// Layers that run once per grid spec: the pass's sum over specs.
	passes := float64(len(byName["analytic.grid_order.square"]))
	for metricName, spanName := range map[string]string{
		"order.from_ranks_ms":  "order.from_ranks",
		"storage.new_store_ms": "storage.new_store",
		"codec.write_v2_ms":    "codec.write_v2",
		"codec.open_mapped_ms": "codec.open_mapped",
	} {
		rc.rep.set(metricName, sum(byName[spanName])/passes/1e6)
	}
	rc.rep.set("storage.box_ranks_us", mean(byName["storage.box_ranks"])/1e3)
	rc.rep.set("serve.scan_us", mean(byName["serve.scan"])/1e3)
	rc.rep.set("serve.pages_us", mean(byName["serve.pages"])/1e3)
	rc.rep.set("serve.allocs_per_box", mean(rc.libAllocs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
