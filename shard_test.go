// Tests of the sharded build & serving subsystem: the oracle property test
// pinning ShardedIndex box queries rank-for-rank against the equivalent
// monolithic Index (one built with WithRanks over the sharded global
// order), point-set sharding against an enumerate-filter-sort oracle,
// parallel build determinism and cancellation, and the planner's routing.
package spectrallpm_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// shardedGlobalRanks reconstructs the global rank permutation of a sharded
// grid index via Point lookups: rank r -> global coords -> grid id.
func shardedGlobalRanks(t *testing.T, sx *spectrallpm.ShardedIndex, grid *spectrallpm.Grid) []int {
	t.Helper()
	rank := make([]int, sx.N())
	for r := 0; r < sx.N(); r++ {
		p, err := sx.Point(r)
		if err != nil {
			t.Fatal(err)
		}
		rank[grid.ID(p)] = r
	}
	return rank
}

// TestShardedMatchesMonolithicOracle is the acceptance property: a sharded
// grid index answers every query surface rank-for-rank identically to a
// monolithic Index carrying the same global rank permutation — the sharded
// planner + merge path and the monolithic engine are interchangeable.
func TestShardedMatchesMonolithicOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 6; trial++ {
		d := 2 + trial%2
		dims := make([]int, d)
		size := 1
		for i := range dims {
			dims[i] = 4 + rng.Intn(7)
			size *= dims[i]
		}
		shards := 2 + rng.Intn(5)
		if shards > size {
			shards = size
		}
		sx, err := spectrallpm.BuildSharded(context.Background(), shards,
			spectrallpm.WithGrid(dims...), spectrallpm.WithSeed(int64(trial)),
			spectrallpm.WithPageSize(1+rng.Intn(6)))
		if err != nil {
			t.Fatal(err)
		}
		if sx.NumShards() != shards || sx.N() != size {
			t.Fatalf("sharded index: %d shards, %d records; want %d, %d", sx.NumShards(), sx.N(), shards, size)
		}
		grid := spectrallpm.MustGrid(dims...)
		mono, err := spectrallpm.Build(context.Background(),
			spectrallpm.WithGrid(dims...),
			spectrallpm.WithRanks(shardedGlobalRanks(t, sx, grid)),
			spectrallpm.WithPageSize(sx.RecordsPerPage()))
		if err != nil {
			t.Fatal(err)
		}

		boxes := []spectrallpm.Box{
			{Start: make([]int, d), Dims: append([]int(nil), dims...)}, // full grid
		}
		for q := 0; q < 8; q++ {
			boxes = append(boxes, randomBox(rng, dims))
		}
		for _, b := range boxes {
			var want, got [][2]int
			if err := mono.ScanInto(b, func(r int, p []int) bool {
				want = append(want, [2]int{r, grid.ID(p)})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if err := sx.ScanInto(b, func(r int, p []int) bool {
				got = append(got, [2]int{r, grid.ID(p)})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("box %v: sharded scan %v, monolithic %v", b, got, want)
			}
			wantIO, err := mono.QueryIO(b)
			if err != nil {
				t.Fatal(err)
			}
			gotIO, err := sx.QueryIO(b)
			if err != nil {
				t.Fatal(err)
			}
			if gotIO != wantIO {
				t.Fatalf("box %v: sharded io %+v, monolithic %+v", b, gotIO, wantIO)
			}
			wantRuns, err := mono.Pages(b)
			if err != nil {
				t.Fatal(err)
			}
			gotRuns, err := sx.Pages(b)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotRuns, wantRuns) {
				t.Fatalf("box %v: sharded runs %v, monolithic %v", b, gotRuns, wantRuns)
			}
		}
		// Rank agrees with the monolithic index everywhere, and the Scan
		// iterator form agrees with ScanInto.
		for id := 0; id < size; id++ {
			p := grid.Coords(id, nil)
			want, err := mono.Rank(p...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sx.Rank(p...)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("rank of %v: sharded %d, monolithic %d", p, got, want)
			}
		}
		seq, err := sx.Scan(boxes[1])
		if err != nil {
			t.Fatal(err)
		}
		var viaSeq []int
		for r := range seq {
			viaSeq = append(viaSeq, r)
		}
		var viaInto []int
		if err := sx.ScanInto(boxes[1], func(r int, _ []int) bool { viaInto = append(viaInto, r); return true }); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(viaSeq, viaInto) {
			t.Fatalf("Scan %v disagrees with ScanInto %v", viaSeq, viaInto)
		}
	}
}

// TestShardedPointsMatchOracle drives point-set sharding against the
// enumerate-filter-sort oracle, including boxes outside the bounding grid.
func TestShardedPointsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		side := 10 + rng.Intn(8)
		seen := map[[2]int]bool{}
		var pts [][]int
		for len(pts) < 24+rng.Intn(30) {
			p := [2]int{rng.Intn(side), rng.Intn(side)}
			if !seen[p] {
				seen[p] = true
				pts = append(pts, []int{p[0], p[1]})
			}
		}
		shards := 2 + rng.Intn(3)
		sx, err := spectrallpm.BuildSharded(context.Background(), shards,
			spectrallpm.WithPoints(pts), spectrallpm.WithSeed(int64(trial)),
			spectrallpm.WithPageSize(1+rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		if sx.N() != len(pts) {
			t.Fatalf("N = %d, want %d", sx.N(), len(pts))
		}
		// Every point is found at its own rank, and ranks are a permutation.
		perm := make([]bool, sx.N())
		for _, p := range pts {
			r, err := sx.Rank(p...)
			if err != nil {
				t.Fatalf("rank of %v: %v", p, err)
			}
			if perm[r] {
				t.Fatalf("rank %d assigned twice", r)
			}
			perm[r] = true
			back, err := sx.Point(r)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(back, p) {
				t.Fatalf("point at rank %d = %v, want %v", r, back, p)
			}
		}
		if _, err := sx.Rank(side+3, side+3); !errors.Is(err, spectrallpm.ErrPointNotIndexed) {
			t.Fatalf("absent point err = %v", err)
		}
		for q := 0; q < 10; q++ {
			b := spectrallpm.Box{
				Start: []int{rng.Intn(side) - 2, rng.Intn(side) - 2},
				Dims:  []int{rng.Intn(side + 4), rng.Intn(side + 4)},
			}
			var want []int
			for _, p := range pts {
				if b.Contains(p) {
					r, err := sx.Rank(p...)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, r)
				}
			}
			sort.Ints(want)
			var got []int
			if err := sx.ScanInto(b, func(r int, p []int) bool {
				back, err := sx.Rank(p...)
				if err != nil || back != r {
					t.Fatalf("yielded %v does not round-trip: %d vs %d (%v)", p, r, back, err)
				}
				got = append(got, r)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("box %v: sharded %v, oracle %v", b, got, want)
			}
		}
	}
}

// TestShardedShardBounds checks that shard metadata is coherent: rank
// blocks are contiguous and every indexed point of a shard lies inside its
// declared bounds.
func TestShardedShardBounds(t *testing.T) {
	sx, err := spectrallpm.BuildSharded(context.Background(), 5,
		spectrallpm.WithGrid(12, 9), spectrallpm.WithPageSize(4))
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for i := 0; i < sx.NumShards(); i++ {
		lo, hi, offset, records := sx.ShardBounds(i)
		if offset != next {
			t.Fatalf("shard %d offset %d, want %d", i, offset, next)
		}
		if records != sx.Shard(i).N() {
			t.Fatalf("shard %d records %d != N %d", i, records, sx.Shard(i).N())
		}
		next += records
		for r := offset; r < offset+records; r++ {
			p, err := sx.Point(r)
			if err != nil {
				t.Fatal(err)
			}
			for j := range p {
				if p[j] < lo[j] || p[j] > hi[j] {
					t.Fatalf("shard %d rank %d point %v outside bounds [%v,%v]", i, r, p, lo, hi)
				}
			}
		}
	}
	if next != sx.N() {
		t.Fatalf("rank blocks cover %d of %d", next, sx.N())
	}
}

// scanRows collects a box query's rows as {rank, coords...}.
func scanRows(t *testing.T, sx *spectrallpm.ShardedIndex, b spectrallpm.Box) [][]int {
	t.Helper()
	var rows [][]int
	if err := sx.ScanInto(b, func(rank int, coords []int) bool {
		rows = append(rows, append([]int{rank}, coords...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestShardedScopeContract pins Scope against its parent: the view of
// shard i answers exactly the parent's rows, ranks and points inside the
// shard's rank block, refuses everything outside it, and reports the
// block's size — over a square grid (tied axes), a rectangle, and a point
// set whose shard bounding boxes overlap, each both built and mapped.
func TestShardedScopeContract(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	seen := map[[2]int]bool{}
	var pts [][]int
	for len(pts) < 40 {
		p := [2]int{rng.Intn(14), rng.Intn(14)}
		if !seen[p] {
			seen[p] = true
			pts = append(pts, []int{p[0], p[1]})
		}
	}
	inputs := []struct {
		name   string
		shards int
		opts   []spectrallpm.BuildOption
	}{
		{"square", 4, []spectrallpm.BuildOption{spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4)}},
		{"rect", 3, []spectrallpm.BuildOption{spectrallpm.WithGrid(12, 7), spectrallpm.WithPageSize(5)}},
		{"points", 4, []spectrallpm.BuildOption{spectrallpm.WithPoints(pts), spectrallpm.WithPageSize(3)}},
	}
	for _, in := range inputs {
		built, err := spectrallpm.BuildSharded(context.Background(), in.shards, in.opts...)
		if err != nil {
			t.Fatal(err)
		}
		// The point set must exercise overlapping shard boxes, where a
		// point inside a view's bounds may still belong to another shard.
		if built.PointSet() && !shardBoxesOverlap(built) {
			t.Fatal("point-set shard boxes do not overlap; the input no longer covers that case")
		}
		mapped, err := spectrallpm.OpenMappedSharded(writeShardedV2File(t, built))
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		for _, flavor := range []struct {
			name string
			sx   *spectrallpm.ShardedIndex
		}{{"built", built}, {"mapped", mapped}} {
			t.Run(in.name+"/"+flavor.name, func(t *testing.T) {
				checkScope(t, flavor.sx, rng)
			})
		}
	}
}

func shardBoxesOverlap(sx *spectrallpm.ShardedIndex) bool {
	for i := 0; i < sx.NumShards(); i++ {
		for j := i + 1; j < sx.NumShards(); j++ {
			li, hi, _, _ := sx.ShardBounds(i)
			lj, hj, _, _ := sx.ShardBounds(j)
			if li[0] <= hj[0] && lj[0] <= hi[0] && li[1] <= hj[1] && lj[1] <= hi[1] {
				return true
			}
		}
	}
	return false
}

// checkScope compares every Scope view of sx with sx itself.
func checkScope(t *testing.T, sx *spectrallpm.ShardedIndex, rng *rand.Rand) {
	S := sx.NumShards()
	for _, i := range []int{-1, S} {
		if _, err := sx.Scope(i); err == nil {
			t.Fatalf("Scope(%d) of %d shards accepted", i, S)
		}
	}
	dims := sx.Dims()
	boxes := []spectrallpm.Box{{Start: []int{0, 0}, Dims: dims}}
	for len(boxes) < 12 {
		b := spectrallpm.Box{Start: make([]int, 2), Dims: make([]int, 2)}
		for j, side := range dims {
			b.Start[j] = rng.Intn(side)
			b.Dims[j] = 1 + rng.Intn(side-b.Start[j])
		}
		boxes = append(boxes, b)
	}
	views := make([]*spectrallpm.ShardedIndex, S)
	for i := range views {
		v, err := sx.Scope(i)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
		_, _, off, recs := sx.ShardBounds(i)
		if v.N() != recs {
			t.Fatalf("shard %d: N = %d, want block size %d", i, v.N(), recs)
		}
		for r := 0; r < sx.N(); r++ {
			p, err := sx.Point(r)
			if err != nil {
				t.Fatal(err)
			}
			if r < off || r >= off+recs {
				if _, err := v.Point(r); !errors.Is(err, spectrallpm.ErrRankOutOfRange) {
					t.Fatalf("shard %d: foreign rank %d err = %v", i, r, err)
				}
				if _, err := v.Rank(p...); !errors.Is(err, spectrallpm.ErrPointNotIndexed) {
					t.Fatalf("shard %d: foreign point %v err = %v", i, p, err)
				}
				continue
			}
			vp, err := v.Point(r)
			if err != nil || !slices.Equal(vp, p) {
				t.Fatalf("shard %d: Point(%d) = %v, %v; parent %v", i, r, vp, err, p)
			}
			if vr, err := v.Rank(p...); err != nil || vr != r {
				t.Fatalf("shard %d: Rank(%v) = %d, %v; want %d", i, p, vr, err, r)
			}
		}
		for _, r := range []int{-1, sx.N()} {
			if _, err := v.Point(r); !errors.Is(err, spectrallpm.ErrRankOutOfRange) {
				t.Fatalf("shard %d: rank %d err = %v", i, r, err)
			}
		}
	}
	for _, b := range boxes {
		var got [][]int
		for _, v := range views {
			got = append(got, scanRows(t, v, b)...)
		}
		if want := scanRows(t, sx, b); !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Fatalf("box %v: scoped rows\n%v\nparent rows\n%v", b, got, want)
		}
	}
}

// TestShardedEarlyStopAndErrors covers the serving edge cases: stopping a
// scan mid-stream, invalid boxes, and out-of-range lookups.
func TestShardedEarlyStopAndErrors(t *testing.T) {
	sx, err := spectrallpm.BuildSharded(context.Background(), 4,
		spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := sx.ScanInto(spectrallpm.Box{Start: []int{0, 0}, Dims: []int{8, 8}},
		func(int, []int) bool { n++; return n < 10 }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("early stop after %d yields", n)
	}
	if _, err := sx.Scan(spectrallpm.Box{Start: []int{0, 0}, Dims: []int{9, 8}}); !errors.Is(err, spectrallpm.ErrDimensionMismatch) {
		t.Fatalf("oversized box err = %v", err)
	}
	if _, err := sx.QueryIO(spectrallpm.Box{Start: []int{0}, Dims: []int{2}}); !errors.Is(err, spectrallpm.ErrDimensionMismatch) {
		t.Fatalf("bad arity err = %v", err)
	}
	if _, err := sx.Rank(1, 2, 3); !errors.Is(err, spectrallpm.ErrDimensionMismatch) {
		t.Fatalf("bad rank arity err = %v", err)
	}
	if _, err := sx.Point(64); !errors.Is(err, spectrallpm.ErrRankOutOfRange) {
		t.Fatalf("bad rank err = %v", err)
	}
	if _, err := sx.Point(-1); !errors.Is(err, spectrallpm.ErrRankOutOfRange) {
		t.Fatalf("negative rank err = %v", err)
	}
}

// TestBuildShardedRejects pins the option combinations sharding cannot
// honor and the shard-count bounds.
func TestBuildShardedRejects(t *testing.T) {
	ctx := context.Background()
	grid := spectrallpm.WithGrid(6, 6)
	cases := map[string][]spectrallpm.BuildOption{
		"curve mapping": {grid, spectrallpm.WithMapping("hilbert")},
		"with ranks":    {grid, spectrallpm.WithRanks(make([]int, 36))},
		"connectivity":  {grid, spectrallpm.WithConnectivity(spectrallpm.Diagonal)},
		"edge weights":  {grid, spectrallpm.WithEdgeWeights(func(u, v int) float64 { return 2 })},
		"affinity":      {grid, spectrallpm.WithAffinity(spectrallpm.AffinityEdge{U: 0, V: 35, Weight: 3})},
		"no domain":     {},
		"both domains":  {grid, spectrallpm.WithPoints([][]int{{0, 0}})},
	}
	for _, name := range sortedKeys(cases) {
		opts := cases[name]
		if _, err := spectrallpm.BuildSharded(ctx, 2, opts...); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := spectrallpm.BuildSharded(ctx, 0, grid); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := spectrallpm.BuildSharded(ctx, 37, grid); err == nil {
		t.Error("more shards than grid points accepted")
	}
	if _, err := spectrallpm.BuildSharded(ctx, 3, spectrallpm.WithPoints([][]int{{0, 0}, {0, 1}})); err == nil {
		t.Error("more shards than points accepted")
	}
}

// TestShardedScanZeroAlloc extends the zero-allocation guarantee to the
// sharded serving paths: planner, per-shard engines, merge, and pager all
// run on pooled scratch.
func TestShardedScanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool allocate")
	}
	sx, err := spectrallpm.BuildSharded(context.Background(), 4,
		spectrallpm.WithGrid(32, 32), spectrallpm.WithSeed(1), spectrallpm.WithPageSize(8))
	if err != nil {
		t.Fatal(err)
	}
	box := spectrallpm.Box{Start: []int{10, 11}, Dims: []int{12, 9}} // straddles shards
	n := 0
	yield := func(int, []int) bool { n++; return true }
	dst := make([]spectrallpm.PageRun, 0, 64)
	scan := func() {
		seq, err := sx.Scan(box)
		if err != nil {
			t.Fatal(err)
		}
		seq(yield)
	}
	pages := func() {
		var err error
		dst, err = sx.PagesInto(box, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
	}
	queryIO := func() {
		if _, err := sx.QueryIO(box); err != nil {
			t.Fatal(err)
		}
	}
	paths := map[string]func(){"Scan": scan, "PagesInto": pages, "QueryIO": queryIO}
	for _, name := range sortedKeys(paths) {
		fn := paths[name]
		fn() // warm the pools
		if avg := testing.AllocsPerRun(50, fn); avg != 0 {
			t.Errorf("sharded %s allocates %.1f per op in steady state, want 0", name, avg)
		}
	}
	if n == 0 {
		t.Fatal("yield never ran")
	}
}

// TestBuildShardedCancellation checks ctx cancellation surfaces instead of
// building all shards.
func TestBuildShardedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := spectrallpm.BuildSharded(ctx, 4, spectrallpm.WithGrid(16, 16)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBuildShardedDeterministic pins that parallel shard builds produce the
// same index regardless of worker interleaving (results are positional).
func TestBuildShardedDeterministic(t *testing.T) {
	build := func(par int) []int {
		sx, err := spectrallpm.BuildSharded(context.Background(), 4,
			spectrallpm.WithGrid(10, 10), spectrallpm.WithSeed(9),
			spectrallpm.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		return shardedGlobalRanks(t, sx, spectrallpm.MustGrid(10, 10))
	}
	serial := build(1)
	parallel := build(4)
	if !slices.Equal(serial, parallel) {
		t.Fatal("sharded build depends on parallelism")
	}
}

// TestQueryBatchFirstBadBox pins the batch error contract on BOTH worker
// paths, for both index flavors: the reported index is the lowest bad box,
// the error matches the underlying sentinel, and the batch is discarded.
func TestQueryBatchFirstBadBox(t *testing.T) {
	boxes := []spectrallpm.Box{
		{Start: []int{0, 0}, Dims: []int{2, 2}},
		{Start: []int{1, 1}, Dims: []int{3, 3}},
		{Start: []int{0, 0}, Dims: []int{99, 99}}, // bad: exceeds every grid below
		{Start: []int{2, 2}, Dims: []int{2, 2}},
		{Start: []int{0}, Dims: []int{1}}, // also bad, but later — must not win
	}
	for _, par := range []int{1, 4} {
		mono, err := spectrallpm.Build(context.Background(),
			spectrallpm.WithGrid(8, 8), spectrallpm.WithMapping("hilbert"),
			spectrallpm.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := mono.QueryBatch(boxes)
		if stats != nil || !errors.Is(err, spectrallpm.ErrDimensionMismatch) {
			t.Fatalf("par=%d: stats %v err %v", par, stats, err)
		}
		if got := err.Error(); !strings.Contains(got, "box 2") {
			t.Fatalf("par=%d: error %q does not name box 2", par, got)
		}
		sx, err := spectrallpm.BuildSharded(context.Background(), 3,
			spectrallpm.WithGrid(8, 8), spectrallpm.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		stats, err = sx.QueryBatch(boxes)
		if stats != nil || !errors.Is(err, spectrallpm.ErrDimensionMismatch) {
			t.Fatalf("sharded par=%d: stats %v err %v", par, stats, err)
		}
		if got := err.Error(); !strings.Contains(got, "box 2") {
			t.Fatalf("sharded par=%d: error %q does not name box 2", par, got)
		}
		// A clean batch answers positionally on both flavors.
		good := boxes[:2]
		ms, err := mono.QueryBatch(good)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := sx.QueryBatch(good)
		if err != nil {
			t.Fatal(err)
		}
		for i := range good {
			mio, _ := mono.QueryIO(good[i])
			sio, _ := sx.QueryIO(good[i])
			if ms[i] != mio || ss[i] != sio {
				t.Fatalf("batch result %d not positional", i)
			}
		}
	}
}
