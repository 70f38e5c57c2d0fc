// Tests of the box-query engine behind Scan/ScanInto/Pages/QueryIO: a
// property test pinning the merge-based grid path and the R-tree point-set
// path rank-for-rank against a naive enumerate-filter-sort oracle, a fuzz
// target over grid geometry, and the zero-allocation guarantee of the
// steady-state serving paths.
package spectrallpm_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// oracleBoxRanks enumerates every indexed point, filters by the box, and
// sorts the ranks — the obviously-correct reference the engine must match.
func oracleBoxRanks(t *testing.T, ix *spectrallpm.Index, b spectrallpm.Box) []int {
	t.Helper()
	var ranks []int
	for r := 0; r < ix.N(); r++ {
		p, err := ix.Point(r)
		if err != nil {
			t.Fatal(err)
		}
		if b.Contains(p) && len(p) == len(b.Start) {
			ranks = append(ranks, r)
		}
	}
	sort.Ints(ranks)
	return ranks
}

// scannedRanks drains ScanInto and verifies that the yielded coordinates
// round-trip through Rank, copying nothing out of the borrowed buffer.
func scannedRanks(t *testing.T, ix *spectrallpm.Index, b spectrallpm.Box) []int {
	t.Helper()
	var got []int
	err := ix.ScanInto(b, func(r int, p []int) bool {
		back, err := ix.Rank(p...)
		if err != nil || back != r {
			t.Fatalf("yielded coords %v do not round-trip: rank %d vs %d (%v)", p, r, back, err)
		}
		got = append(got, r)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// checkAgainstOracle compares every query surface against the oracle for
// one box.
func checkAgainstOracle(t *testing.T, ix *spectrallpm.Index, b spectrallpm.Box) {
	t.Helper()
	want := oracleBoxRanks(t, ix, b)
	got := scannedRanks(t, ix, b)
	if !slices.Equal(got, want) {
		t.Fatalf("box %v: scan ranks %v, oracle %v", b, got, want)
	}
	// Scan (iterator form) agrees with ScanInto.
	seq, err := ix.Scan(b)
	if err != nil {
		t.Fatal(err)
	}
	var viaSeq []int
	for r := range seq {
		viaSeq = append(viaSeq, r)
	}
	if !slices.Equal(viaSeq, want) {
		t.Fatalf("box %v: Scan ranks %v, oracle %v", b, viaSeq, want)
	}
	// Pages and QueryIO agree with plans derived from the oracle ranks.
	io, err := ix.QueryIO(b)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := ix.Pages(b)
	if err != nil {
		t.Fatal(err)
	}
	pages, seeks := 0, len(runs)
	for _, run := range runs {
		pages += run.Pages
	}
	if pages != io.Pages || seeks != io.Seeks {
		t.Fatalf("box %v: plan %v disagrees with stats %+v", b, runs, io)
	}
	wantPages := map[int]bool{}
	for _, r := range want {
		wantPages[r/ix.RecordsPerPage()] = true
	}
	if pages != len(wantPages) {
		t.Fatalf("box %v: planned %d pages, oracle %d", b, pages, len(wantPages))
	}
}

// TestGridQueryMatchesOracle drives random grids, mappings (curves and
// adversarial random permutations), and boxes — including full-grid and
// single-cell boxes — through the query engine.
func TestGridQueryMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mappings := []string{"hilbert", "sweep", "morton", "snake"}
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(3)
		dims := make([]int, d)
		for i := range dims {
			dims[i] = 1 + rng.Intn(8)
		}
		opts := []spectrallpm.BuildOption{
			spectrallpm.WithGrid(dims...),
			spectrallpm.WithPageSize(1 + rng.Intn(6)),
		}
		if trial%2 == 0 {
			size := 1
			for _, s := range dims {
				size *= s
			}
			opts = append(opts, spectrallpm.WithRanks(rng.Perm(size)))
		} else {
			opts = append(opts, spectrallpm.WithMapping(mappings[trial%len(mappings)]))
		}
		ix, err := spectrallpm.Build(context.Background(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		// Full-grid box, a random box, and a single cell.
		checkAgainstOracle(t, ix, spectrallpm.Box{Start: make([]int, d), Dims: ix.Dims()})
		checkAgainstOracle(t, ix, randomBox(rng, dims))
		cell := spectrallpm.Box{Start: make([]int, d), Dims: make([]int, d)}
		for i, s := range dims {
			cell.Start[i] = rng.Intn(s)
			cell.Dims[i] = 1
		}
		checkAgainstOracle(t, ix, cell)
	}
}

func randomBox(rng *rand.Rand, dims []int) spectrallpm.Box {
	b := spectrallpm.Box{Start: make([]int, len(dims)), Dims: make([]int, len(dims))}
	for i, s := range dims {
		b.Start[i] = rng.Intn(s)
		b.Dims[i] = 1 + rng.Intn(s-b.Start[i])
	}
	return b
}

// TestPointQueryMatchesOracle drives random point sets through the R-tree
// path, including boxes beyond the bounding grid, empty boxes, and boxes
// covering everything.
func TestPointQueryMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		d := 2 + rng.Intn(2)
		side := 4 + rng.Intn(8)
		seen := map[string]bool{}
		var pts [][]int
		for len(pts) < 6+rng.Intn(40) {
			p := make([]int, d)
			for i := range p {
				p[i] = rng.Intn(side)
			}
			k := ""
			for _, c := range p {
				k += string(rune('a'+c)) + ","
			}
			if !seen[k] {
				seen[k] = true
				pts = append(pts, p)
			}
		}
		ix, err := spectrallpm.Build(context.Background(),
			spectrallpm.WithPoints(pts), spectrallpm.WithSeed(int64(trial)),
			spectrallpm.WithPageSize(1+rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		// A box past the bounding grid still answers (only indexed points
		// match); an all-covering box returns every rank.
		big := spectrallpm.Box{Start: make([]int, d), Dims: make([]int, d)}
		for i := range big.Dims {
			big.Dims[i] = 10 * side
		}
		checkAgainstOracle(t, ix, big)
		for q := 0; q < 6; q++ {
			b := spectrallpm.Box{Start: make([]int, d), Dims: make([]int, d)}
			for i := range b.Start {
				b.Start[i] = rng.Intn(side) - 2
				b.Dims[i] = 1 + rng.Intn(side)
			}
			checkAgainstOracle(t, ix, b)
		}
		// A zero-volume box matches nothing.
		empty := spectrallpm.Box{Start: make([]int, d), Dims: make([]int, d)}
		if got := scannedRanks(t, ix, empty); len(got) != 0 {
			t.Fatalf("empty box matched %v", got)
		}
	}
}

// FuzzGridBoxRanks fuzzes 2-D grid geometry and a rank permutation seed,
// asserting engine/oracle agreement for whatever box the fuzzer shapes.
func FuzzGridBoxRanks(f *testing.F) {
	f.Add(uint8(6), uint8(7), int64(1), uint8(1), uint8(2), uint8(3), uint8(3))
	f.Add(uint8(16), uint8(3), int64(9), uint8(0), uint8(0), uint8(16), uint8(3))
	f.Add(uint8(1), uint8(1), int64(0), uint8(0), uint8(0), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, w, h uint8, seed int64, x, y, bw, bh uint8) {
		W, H := int(w%24)+1, int(h%24)+1
		rng := rand.New(rand.NewSource(seed))
		ix, err := spectrallpm.Build(context.Background(),
			spectrallpm.WithGrid(W, H), spectrallpm.WithRanks(rng.Perm(W*H)),
			spectrallpm.WithPageSize(4))
		if err != nil {
			t.Fatal(err)
		}
		b := spectrallpm.Box{
			Start: []int{int(x) % W, int(y) % H},
			Dims:  []int{int(bw)%(W-int(x)%W) + 1, int(bh)%(H-int(y)%H) + 1},
		}
		want := oracleBoxRanks(t, ix, b)
		got := scannedRanks(t, ix, b)
		if !slices.Equal(got, want) {
			t.Fatalf("grid %dx%d box %v: got %v want %v", W, H, b, got, want)
		}
	})
}

// TestScanAbandoned pins the fixed leak: a sequence obtained from Scan but
// never iterated must not strand pooled rank scratch or poison later
// queries. The box is validated (and copied) eagerly, the expensive rank
// materialization happens lazily on first iteration, and an abandoned
// sequence yields nothing once another query has consumed the pool.
func TestScanAbandoned(t *testing.T) {
	ix, err := spectrallpm.Build(context.Background(),
		spectrallpm.WithGrid(16, 16), spectrallpm.WithMapping("hilbert"),
		spectrallpm.WithPageSize(8))
	if err != nil {
		t.Fatal(err)
	}
	box := spectrallpm.Box{Start: []int{2, 2}, Dims: []int{4, 4}}
	// Validation still happens at Scan time, before any iteration.
	if _, err := ix.Scan(spectrallpm.Box{Start: []int{0, 0}, Dims: []int{99, 99}}); err == nil {
		t.Fatal("invalid box accepted by lazy Scan")
	}
	// Abandon many sequences; every later query must still be correct.
	for i := 0; i < 100; i++ {
		if _, err := ix.Scan(box); err != nil {
			t.Fatal(err)
		}
	}
	want := oracleBoxRanks(t, ix, box)
	if got := scannedRanks(t, ix, box); !slices.Equal(got, want) {
		t.Fatalf("after abandoned scans: got %v want %v", got, want)
	}
	// The caller may recycle its Box slices the moment Scan returns: the
	// box is copied into the sequence, not referenced.
	b := spectrallpm.Box{Start: []int{2, 2}, Dims: []int{4, 4}}
	seq, err := ix.Scan(b)
	if err != nil {
		t.Fatal(err)
	}
	b.Start[0], b.Dims[0] = 13, 1 // mutate before iterating
	var got []int
	for r := range seq {
		got = append(got, r)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("mutating the caller's box changed an armed sequence: got %v want %v", got, want)
	}
}

// TestScanZeroAlloc pins the steady-state allocation count of the serving
// paths at zero for grid indexes: Scan (consumed by invoking the sequence
// with a preallocated yield), ScanInto, PagesInto with a reused buffer, and
// QueryIO. Steady state means pools are warm — a few priming queries run
// first.
func TestScanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool allocate")
	}
	ix, err := spectrallpm.Build(context.Background(),
		spectrallpm.WithGrid(64, 64), spectrallpm.WithMapping("hilbert"),
		spectrallpm.WithPageSize(16))
	if err != nil {
		t.Fatal(err)
	}
	box := spectrallpm.Box{Start: []int{5, 9}, Dims: []int{12, 10}}
	n := 0
	yield := func(int, []int) bool { n++; return true }
	dst := make([]spectrallpm.PageRun, 0, 64)

	scan := func() {
		seq, err := ix.Scan(box)
		if err != nil {
			t.Fatal(err)
		}
		seq(yield)
	}
	scanInto := func() {
		if err := ix.ScanInto(box, yield); err != nil {
			t.Fatal(err)
		}
	}
	pages := func() {
		var err error
		dst, err = ix.PagesInto(box, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
	}
	queryIO := func() {
		if _, err := ix.QueryIO(box); err != nil {
			t.Fatal(err)
		}
	}
	paths := map[string]func(){
		"Scan": scan, "ScanInto": scanInto, "PagesInto": pages, "QueryIO": queryIO,
	}
	for _, name := range sortedKeys(paths) {
		fn := paths[name]
		fn() // warm the pools
		if avg := testing.AllocsPerRun(50, fn); avg != 0 {
			t.Errorf("%s allocates %.1f per op in steady state, want 0", name, avg)
		}
	}
	if n == 0 {
		t.Fatal("yield never ran")
	}
}

// TestRankZeroAlloc pins Rank at zero heap allocations per call on every
// index flavor. The historical 1 alloc/16 B per op (BENCH_query.json) was
// the variadic coords slice escaping to the heap because the error paths
// handed it to fmt; errPointNotIndexed now formats a copy, so the compiler
// keeps the caller's argument on the stack.
func TestRankZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	grid, err := spectrallpm.Build(context.Background(),
		spectrallpm.WithGrid(16, 16), spectrallpm.WithMapping("hilbert"))
	if err != nil {
		t.Fatal(err)
	}
	points, err := spectrallpm.Build(context.Background(),
		spectrallpm.WithPoints([][]int{{0, 0}, {0, 1}, {3, 2}, {7, 7}}))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := spectrallpm.BuildSharded(context.Background(), 4,
		spectrallpm.WithGrid(16, 16), spectrallpm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ranks := map[string]func(){
		"grid": func() {
			if _, err := grid.Rank(3, 7); err != nil {
				t.Fatal(err)
			}
		},
		"points": func() {
			if _, err := points.Rank(3, 2); err != nil {
				t.Fatal(err)
			}
		},
		"sharded": func() {
			if _, err := sharded.Rank(9, 12); err != nil {
				t.Fatal(err)
			}
		},
	}
	for _, name := range sortedKeys(ranks) {
		fn := ranks[name]
		if avg := testing.AllocsPerRun(100, fn); avg != 0 {
			t.Errorf("%s Rank allocates %.1f per op, want 0", name, avg)
		}
	}
}

// TestLookupContext pins the context variants of Rank and Point on both
// index types: with a live context they answer exactly what Rank and
// Point do (RankContext without allocating), and once the context is
// done they answer its error instead.
func TestLookupContext(t *testing.T) {
	grid, err := spectrallpm.Build(context.Background(),
		spectrallpm.WithGrid(16, 16), spectrallpm.WithMapping("hilbert"))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := spectrallpm.BuildSharded(context.Background(), 4,
		spectrallpm.WithGrid(16, 16), spectrallpm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	type lookups interface {
		Rank(coords ...int) (int, error)
		Point(rank int) ([]int, error)
		RankContext(ctx context.Context, coords ...int) (int, error)
		PointContext(ctx context.Context, rank int) ([]int, error)
	}
	live := context.Background()
	done, cancel := context.WithCancel(live)
	cancel()
	for _, c := range []struct {
		name string
		ix   lookups
	}{{"index", grid}, {"sharded", sharded}} {
		name, ix := c.name, c.ix
		want, _ := ix.Rank(9, 12)
		if got, err := ix.RankContext(live, 9, 12); got != want || err != nil {
			t.Errorf("%s RankContext = %d, %v; Rank = %d", name, got, err, want)
		}
		wantPt, _ := ix.Point(want)
		if got, err := ix.PointContext(live, want); !slices.Equal(got, wantPt) || err != nil {
			t.Errorf("%s PointContext = %v, %v; Point = %v", name, got, err, wantPt)
		}
		if _, err := ix.RankContext(done, 9, 12); !errors.Is(err, context.Canceled) {
			t.Errorf("%s RankContext after cancel: %v", name, err)
		}
		if _, err := ix.PointContext(done, want); !errors.Is(err, context.Canceled) {
			t.Errorf("%s PointContext after cancel: %v", name, err)
		}
	}
	if raceEnabled {
		return // race instrumentation allocates
	}
	// Concrete calls: through an interface the variadic coords escape.
	if avg := testing.AllocsPerRun(100, func() { grid.RankContext(live, 9, 12) }); avg != 0 {
		t.Errorf("index RankContext allocates %.1f per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { sharded.RankContext(live, 9, 12) }); avg != 0 {
		t.Errorf("sharded RankContext allocates %.1f per op, want 0", avg)
	}
}

// TestScanRangeAllocsPinned documents and pins the small-box Scan cost
// when consumed with a range statement (BENCH_query.json's scan-8x8 rows:
// 3 allocs/40 B per op). The allocations are NOT in the library — the
// iterator shell and rank scratch are pooled, and TestScanZeroAlloc shows
// the same sequence consumed through a predeclared yield func is
// allocation-free. They are the call site's: `for range seq` synthesizes a
// fresh yield closure per loop and moves the locals it captures (here the
// result counter) to the heap, which no callee can avoid. Serving loops
// that care should predeclare the yield (or use ScanInto); this test pins
// the range-form ceiling so a library regression underneath it still
// surfaces.
func TestScanRangeAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ix, err := spectrallpm.Build(context.Background(),
		spectrallpm.WithGrid(64, 64), spectrallpm.WithMapping("hilbert"))
	if err != nil {
		t.Fatal(err)
	}
	box := spectrallpm.Box{Start: []int{10, 10}, Dims: []int{8, 8}}
	n := 0
	rangeForm := func() {
		seq, err := ix.Scan(box)
		if err != nil {
			t.Fatal(err)
		}
		n = 0
		for range seq {
			n++
		}
	}
	rangeForm() // warm the pools
	if n != 64 {
		t.Fatalf("scan returned %d results", n)
	}
	if avg := testing.AllocsPerRun(50, rangeForm); avg > 3 {
		t.Errorf("range-form Scan allocates %.1f per op, want <= 3 (the range statement's own closure)", avg)
	}
}
