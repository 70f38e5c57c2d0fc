package spectrallpm

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/spectral-lpm/spectrallpm/internal/core"
	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/partition"
	"github.com/spectral-lpm/spectrallpm/internal/serve"
	"github.com/spectral-lpm/spectrallpm/internal/shard"
	"github.com/spectral-lpm/spectrallpm/internal/storage"
)

// ShardedIndex is an Index split into S shards — the paper's declustering
// example (partitioning a point set across disks via the Fiedler vector's
// median cut) applied as a build and serving policy. The domain is
// partitioned by recursive spectral bisection (closed-form for grids, a
// true per-level eigensolve for point sets), each shard solves its own
// spectral order independently — and therefore in parallel at build time —
// and shard i owns the contiguous global rank block before shard i+1, so
// per-shard orders concatenate into one locality-preserving global order:
// each shard's order is independently optimal for its subdomain, and the
// bisection tree orders the shards themselves spectrally.
//
// Serving mirrors Index: a box query is routed only to the shards whose
// bounding boxes intersect it (the planner), each intersected shard
// answers from its own engine, and the per-shard rank streams merge into
// global rank order. A ShardedIndex is immutable after BuildSharded or
// ReadSharded returns and safe for concurrent use without locking.
type ShardedIndex struct {
	grid   *graph.Grid // global bounding grid
	shards []*Index
	origin [][]int // per-shard coordinate translation (all zeros for point shards)
	lo, hi [][]int // per-shard inclusive bounding box in global coordinates
	offset []int   // len(shards)+1: shard i owns global ranks [offset[i], offset[i+1])
	pager  *storage.Pager
	points bool
	par    int        // serving parallelism (QueryBatch workers); 0 = GOMAXPROCS
	core   serve.Core // the shared serving core all query methods delegate to

	// Mapped-index lifetime (nil/zero for owned indexes): one Lifecycle is
	// shared with every shard Index, since all shard frames borrow from the
	// same mapped region — see Index for the field contracts.
	lc        *serve.Lifecycle
	closeFn   func() error
	closeOnce sync.Once
	closeErr  error
}

// BuildSharded builds a ShardedIndex over shards shards: it plans the
// partition, builds the per-shard Indexes in parallel (bounded by
// WithParallelism, observing ctx between shard builds), and assembles the
// serving plan. Congruent grid shards — cells of identical shape, the
// common case under the proportional plan — share a single solve and a
// single immutable Index, so an evenly split grid builds in roughly one
// shard-sized solve regardless of the shard count. It accepts the same options as Build with the exceptions
// that follow from sharding itself: only the spectral mapping is supported
// (a fractal curve is fixed before the data — resharding cannot change it,
// which is the paper's argument), and WithRanks, WithConnectivity,
// WithEdgeWeights, and WithAffinity are rejected — the grid partition is
// the closed-form Fiedler cut of the default orthogonal unit-weight graph,
// and affinity edges may cross shard boundaries where no per-shard solve
// could honor them.
func BuildSharded(ctx context.Context, shards int, opts ...BuildOption) (*ShardedIndex, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := buildConfig{name: "spectral", pageSize: DefaultRecordsPerPage}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if (cfg.grid == nil) == (cfg.points == nil) {
		return nil, fmt.Errorf("spectrallpm: exactly one of WithGrid and WithPoints is required")
	}
	if cfg.nameSet && cfg.name != "spectral" {
		return nil, fmt.Errorf("spectrallpm: sharded indexes support only the spectral mapping (%w %q)", ErrUnknownMapping, cfg.name)
	}
	if cfg.ranks != nil {
		return nil, fmt.Errorf("spectrallpm: WithRanks does not apply to sharded indexes (wrap the precomputed order in a single Index)")
	}
	if err := rejectGraphOptions(&cfg, "sharded indexes", false); err != nil {
		return nil, err
	}
	if shards < 1 {
		return nil, fmt.Errorf("spectrallpm: shard count %d < 1", shards)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.points != nil {
		return buildShardedPoints(ctx, shards, &cfg)
	}
	return buildShardedGrid(ctx, shards, &cfg)
}

func buildShardedGrid(ctx context.Context, shards int, cfg *buildConfig) (*ShardedIndex, error) {
	cells, err := shard.GridPlan(cfg.grid.Dims(), shards)
	if err != nil {
		return nil, fmt.Errorf("spectrallpm: %w", err)
	}
	// Congruent cells share one build: a shard's spectral order depends
	// only on its cell SHAPE (the default graph construction is the same
	// translated subgrid, and the build is deterministic in the seed), and
	// GridPlan's proportional halving produces few distinct shapes — often
	// exactly one. Each distinct shape is built once, in parallel across
	// shapes, and every congruent shard serves from the same immutable
	// Index. With the closed-form engine the per-shape build is no longer
	// an eigensolve at all (default grids order analytically), so the
	// sharing is mostly a memory win on this path — it still collapses S
	// congruent shards onto one Index; it remains the build-time win
	// whenever a shard falls back to the solver (forced method, custom
	// tolerance).
	d := cfg.grid.D()
	shapeKey := func(dims []int) string {
		return fmt.Sprint(dims)
	}
	shapeAt := make(map[string]int)
	var shapes [][]int
	cellShape := make([]int, len(cells))
	for i, c := range cells {
		k := shapeKey(c.Dims)
		s, ok := shapeAt[k]
		if !ok {
			s = len(shapes)
			shapeAt[k] = s
			shapes = append(shapes, c.Dims)
		}
		cellShape[i] = s
	}
	built := make([]*Index, len(shapes))
	err = buildShardsParallel(ctx, len(shapes), cfg, func(ctx context.Context, i int, solver SolverOptions) error {
		ix, err := Build(ctx,
			WithGrid(shapes[i]...),
			WithSolver(solver),
			WithDegeneracy(cfg.degeneracy),
			WithPageSize(cfg.pageSize))
		if err != nil {
			return err
		}
		built[i] = ix
		return nil
	})
	if err != nil {
		return nil, err
	}
	sx := &ShardedIndex{grid: cfg.grid, par: cfg.solver.Parallelism}
	sx.shards = make([]*Index, len(cells))
	for i, c := range cells {
		sx.shards[i] = built[cellShape[i]]
		lo := append([]int(nil), c.Origin...)
		hi := make([]int, d)
		for j := range hi {
			hi[j] = c.Origin[j] + c.Dims[j] - 1
		}
		sx.origin = append(sx.origin, lo)
		sx.lo = append(sx.lo, lo)
		sx.hi = append(sx.hi, hi)
	}
	return finishSharded(sx, cfg.pageSize)
}

func buildShardedPoints(ctx context.Context, shards int, cfg *buildConfig) (*ShardedIndex, error) {
	// Validate the point set and derive the global bounding grid exactly
	// the way Build does, then partition the point graph by recursive
	// spectral median cuts in bisection-tree order — consecutive parts are
	// spectrally adjacent, so the block rank assignment below preserves
	// locality across shard boundaries.
	d := len(cfg.points[0])
	dims := make([]int, d)
	for i, p := range cfg.points {
		if len(p) != d {
			return nil, fmt.Errorf("spectrallpm: point %d has arity %d, want %d: %w", i, len(p), d, ErrDimensionMismatch)
		}
		for j, c := range p {
			if c < 0 {
				return nil, fmt.Errorf("spectrallpm: point %d has negative coordinate %d: %w", i, c, ErrDimensionMismatch)
			}
			if c+1 > dims[j] {
				dims[j] = c + 1
			}
		}
	}
	grid, err := graph.NewGrid(dims...)
	if err != nil {
		return nil, err
	}
	if shards > len(cfg.points) {
		return nil, fmt.Errorf("spectrallpm: shard count %d exceeds %d points", shards, len(cfg.points))
	}
	gr, err := graph.PointGraph(cfg.points)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	parts, err := partition.KWayOrdered(gr, shards, core.Options{Solver: cfg.solver, Degeneracy: cfg.degeneracy})
	if err != nil {
		return nil, err
	}
	sx := &ShardedIndex{grid: grid, points: true, par: cfg.solver.Parallelism}
	sx.shards = make([]*Index, len(parts))
	subsets := make([][][]int, len(parts))
	for i, part := range parts {
		subset := make([][]int, len(part))
		for k, pid := range part {
			subset[k] = cfg.points[pid]
		}
		subsets[i] = subset
	}
	err = buildShardsParallel(ctx, len(parts), cfg, func(ctx context.Context, i int, solver SolverOptions) error {
		ix, err := Build(ctx,
			WithPoints(subsets[i]),
			WithSolver(solver),
			WithDegeneracy(cfg.degeneracy),
			WithPageSize(cfg.pageSize))
		if err != nil {
			return err
		}
		sx.shards[i] = ix
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range sx.shards {
		lo, hi := pointBounds(subsets[i], d)
		sx.origin = append(sx.origin, make([]int, d)) // points stay in global coordinates
		sx.lo = append(sx.lo, lo)
		sx.hi = append(sx.hi, hi)
	}
	return finishSharded(sx, cfg.pageSize)
}

// buildShardsParallel runs build(i) for every shard across a bounded worker
// pool: min(shards, WithParallelism) concurrent builds, each granted an
// equal share of the solver parallelism so the shard solves neither
// serialize nor oversubscribe the machine. The first error (lowest shard
// index) wins; ctx cancellation is observed before each shard starts and
// between the build phases inside each shard's Build.
func buildShardsParallel(ctx context.Context, shards int, cfg *buildConfig, build func(ctx context.Context, i int, solver SolverOptions) error) error {
	par := cfg.solver.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	workers := par
	if workers > shards {
		workers = shards
	}
	solver := cfg.solver
	solver.Parallelism = par / workers
	if solver.Parallelism < 1 {
		solver.Parallelism = 1
	}
	errs := make([]error, shards)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= shards || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				if err := build(ctx, i, solver); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("spectrallpm: shard %d: %w", i, err)
		}
	}
	return nil
}

// finishSharded assembles the cross-shard serving state: the cumulative
// rank offsets that give shard i the global rank block [offset[i],
// offset[i+1]) and the global pager over the concatenated record space.
func finishSharded(sx *ShardedIndex, pageSize int) (*ShardedIndex, error) {
	sx.offset = make([]int, len(sx.shards)+1)
	for i, ix := range sx.shards {
		sx.offset[i+1] = sx.offset[i] + ix.N()
	}
	pager, err := storage.NewPager(sx.offset[len(sx.shards)], pageSize)
	if err != nil {
		return nil, err
	}
	sx.pager = pager
	sx.initCore()
	return sx, nil
}

func pointBounds(pts [][]int, d int) (lo, hi []int) {
	lo = append([]int(nil), pts[0]...)
	hi = append([]int(nil), pts[0]...)
	for _, p := range pts {
		for j, c := range p {
			if c < lo[j] {
				lo[j] = c
			}
			if c > hi[j] {
				hi[j] = c
			}
		}
	}
	return lo, hi
}

// NumShards returns the number of shards.
func (sx *ShardedIndex) NumShards() int { return len(sx.shards) }

// Shard returns shard i's Index (local coordinates for grid shards — see
// ShardBounds for its placement). The Index must be treated as read-only.
func (sx *ShardedIndex) Shard(i int) *Index { return sx.shards[i] }

// ShardBounds returns shard i's inclusive bounding box in global
// coordinates and its global rank block [offset, offset+records).
func (sx *ShardedIndex) ShardBounds(i int) (lo, hi []int, offset, records int) {
	return append([]int(nil), sx.lo[i]...), append([]int(nil), sx.hi[i]...),
		sx.offset[i], sx.offset[i+1] - sx.offset[i]
}

// Scope returns a view of shard i alone, still in the GLOBAL coordinate
// and rank frame: the view answers exactly the parent's rows, ranks and
// page runs that fall in shard i's rank block [offset, offset+records)
// and nothing else. It shares the parent's grid, global pager, shard
// frames and mapped-region Lifecycle — queries through either one borrow
// the same mapping — and its Close closes the parent. A cluster worker
// serves one shard of a container this way, through the same serving core
// as the whole index.
func (sx *ShardedIndex) Scope(i int) (*ShardedIndex, error) {
	if i < 0 || i >= len(sx.shards) {
		return nil, fmt.Errorf("spectrallpm: shard %d outside [0,%d)", i, len(sx.shards))
	}
	v := &ShardedIndex{
		grid:    sx.grid,
		shards:  sx.shards[i : i+1],
		origin:  sx.origin[i : i+1],
		lo:      sx.lo[i : i+1],
		hi:      sx.hi[i : i+1],
		offset:  sx.offset[i : i+2],
		pager:   sx.pager,
		points:  sx.points,
		par:     sx.par,
		lc:      sx.lc,
		closeFn: sx.Close,
	}
	v.initCore()
	return v, nil
}

// PointSet reports whether the index covers an explicit point set (true)
// or a full grid (false) — point-set shard bounding boxes may overlap, so
// distributed planners must treat shard ownership as a candidate set, not
// a partition.
func (sx *ShardedIndex) PointSet() bool { return sx.points }

// N returns the number of indexed points across all shards — for a Scope
// view, the size of its shard's rank block.
func (sx *ShardedIndex) N() int { return sx.offset[len(sx.shards)] - sx.offset[0] }

// Dims returns the per-dimension side lengths of the global grid (for
// point-set indexes, the bounding box of all points).
func (sx *ShardedIndex) Dims() []int { return append([]int(nil), sx.grid.Dims()...) }

// D returns the number of dimensions.
func (sx *ShardedIndex) D() int { return sx.grid.D() }

// RecordsPerPage returns the page capacity of the global rank space.
func (sx *ShardedIndex) RecordsPerPage() int { return sx.pager.RecordsPerPage() }

// NumPages returns the number of pages of the global rank space.
func (sx *ShardedIndex) NumPages() int { return sx.pager.NumPages() }

// Rank returns the global 1-D position of the point with the given
// coordinates: the owning shard's local rank plus the shard's rank offset.
// Errors mirror Index.Rank; a Scope view answers ErrPointNotIndexed for a
// point outside its shard. Like Index.Rank it allocates nothing on
// success: the shard-local translation lives in a fixed stack buffer up to
// 8 dimensions and error paths never leak the coords slice.
//
//lpm:allocfree — error branches and the >8-dimension fallback excepted.
func (sx *ShardedIndex) Rank(coords ...int) (int, error) {
	if lc := sx.lc; lc != nil {
		// Mapped indexes: shard rank arrays live in the mapped region.
		// The shard's own Rank re-borrows the shared Lifecycle — a counter
		// increment, not a lock, so nesting is fine.
		if !lc.TryBorrow() {
			return 0, ErrIndexClosed
		}
		defer lc.EndBorrow()
	}
	d := sx.grid.D()
	if len(coords) != d {
		//lpm:allocok — error branch; success never reaches it.
		return 0, fmt.Errorf("spectrallpm: coordinate arity %d, want %d: %w", len(coords), d, ErrDimensionMismatch)
	}
	dims := sx.grid.Dims()
	for i, c := range coords {
		if c < 0 || c >= dims[i] {
			if !sx.points {
				//lpm:allocok — error branch; success never reaches it.
				return 0, fmt.Errorf("spectrallpm: coordinate %d outside [0,%d): %w", c, dims[i], ErrDimensionMismatch)
			}
			return 0, errPointNotIndexed(coords)
		}
	}
	var buf [8]int
	local := buf[:]
	if d > len(buf) {
		//lpm:allocok — >8-dimension fallback, documented above.
		local = make([]int, d)
	} else {
		local = local[:d]
	}
	for i := range sx.shards {
		if !boundsContain(sx.lo[i], sx.hi[i], coords) {
			continue
		}
		for j, c := range coords {
			local[j] = c - sx.origin[i][j]
		}
		r, err := sx.shards[i].Rank(local...)
		if err != nil {
			if sx.points && errors.Is(err, ErrPointNotIndexed) {
				continue // another shard's bounding box may also cover it
			}
			return 0, err
		}
		return r + sx.offset[i], nil
	}
	// Grid shards tile the grid, so only point sets and Scope views (whose
	// one shard covers part of the grid) reach here.
	return 0, errPointNotIndexed(coords)
}

// Point returns the coordinates of the point at the given global rank. The
// returned slice is freshly allocated. A rank outside the index's rank
// block — [0, N) for a whole index, the shard's block for a Scope view —
// returns ErrRankOutOfRange.
func (sx *ShardedIndex) Point(rank int) ([]int, error) {
	if lc := sx.lc; lc != nil {
		if !lc.TryBorrow() {
			return nil, ErrIndexClosed
		}
		defer lc.EndBorrow()
	}
	first, end := sx.offset[0], sx.offset[len(sx.shards)]
	if rank < first || rank >= end {
		return nil, fmt.Errorf("spectrallpm: rank %d outside [%d,%d): %w", rank, first, end, ErrRankOutOfRange)
	}
	i := sort.SearchInts(sx.offset, rank+1) - 1
	p, err := sx.shards[i].Point(rank - sx.offset[i])
	if err != nil {
		return nil, err
	}
	for j := range p {
		p[j] += sx.origin[i][j]
	}
	return p, nil
}

// RankContext is Rank for a caller with a deadline: it returns ctx's error
// if ctx is already done, else Rank's answer.
//
//lpm:allocfree
func (sx *ShardedIndex) RankContext(ctx context.Context, coords ...int) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return sx.Rank(coords...)
}

// PointContext is Point for a caller with a deadline: it returns ctx's
// error if ctx is already done, else Point's answer.
func (sx *ShardedIndex) PointContext(ctx context.Context, rank int) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sx.Point(rank)
}

//lpm:allocfree
func boundsContain(lo, hi, coords []int) bool {
	for j, c := range coords {
		if c < lo[j] || c > hi[j] {
			return false
		}
	}
	return true
}

// shardEngine adapts a ShardedIndex to the serving core's Engine (see
// internal/serve): the composite frame provider that plans a box against
// the shard bounds, gathers per-shard rank streams through the same
// single-index engine the shards serve with, and merges them into global
// rank order. The serving bodies live in the core — shard.go keeps only
// the planning and translation that is genuinely sharding-specific.
type shardEngine struct{ sx *ShardedIndex }

// CheckBox mirrors the single-index validation over the global grid:
// full-grid sharded indexes require the box inside the grid with every
// side at least 1; point-set sharded indexes require only the right arity.
//
//lpm:allocfree — the rejection branches excepted.
func (e shardEngine) CheckBox(b Box) error {
	sx := e.sx
	d := sx.grid.D()
	if len(b.Start) != d || len(b.Dims) != d {
		//lpm:allocok — error branch; a valid box never reaches it.
		return fmt.Errorf("spectrallpm: box arity %d/%d, want %d: %w", len(b.Start), len(b.Dims), d, ErrDimensionMismatch)
	}
	if sx.points {
		return nil
	}
	dims := sx.grid.Dims()
	for i, st := range b.Start {
		if b.Dims[i] < 1 || st < 0 || st+b.Dims[i] > dims[i] {
			//lpm:allocok — error branch; a valid box never reaches it.
			return fmt.Errorf("spectrallpm: box %v exceeds grid %v: %w", b, dims, ErrDimensionMismatch)
		}
	}
	return nil
}

// AppendBoxRanks appends the global ranks of the indexed points inside the
// already-validated box to dst, in ascending global rank order: the
// planner clips the box against each shard's bounds, intersected shards
// answer locally through the single-index engine, local ranks shift by the
// shard's offset, and the per-shard streams k-way-merge
// (storage.MergeSortedAppend — in practice the concatenation fast path,
// since shard rank blocks are disjoint and ascending). The planner's clip
// and concatenation scratch fields are disjoint from the fields the
// per-shard engines use, so one Scratch serves both levels.
//
//lpm:ctxaware — each shard's engine polls; a cancelled shard aborts the plan
//lpm:allocfree
func (e shardEngine) AppendBoxRanks(dst []int, start, dims []int, sc *serve.Scratch) []int {
	sx := e.sx
	d := sx.grid.D()
	if cap(sc.CStart) < d {
		sc.CStart = make([]int, d)
		sc.CDims = make([]int, d)
	}
	sc.CStart, sc.CDims = sc.CStart[:d], sc.CDims[:d]
	sc.Tmp = sc.Tmp[:0]
	sc.Ends = sc.Ends[:0]
	for i := range sx.shards {
		if !shard.ClipBox(start, dims, sx.lo[i], sx.hi[i], sc.CStart, sc.CDims) {
			continue
		}
		for j := range sc.CStart {
			sc.CStart[j] -= sx.origin[i][j]
		}
		n0 := len(sc.Tmp)
		sc.Tmp = indexEngine{sx.shards[i]}.AppendBoxRanks(sc.Tmp, sc.CStart, sc.CDims, sc)
		if sc.Err != nil {
			// A cancelled shard invalidates the whole plan; the caller
			// discards dst on sc.Err, so skip the remaining shards.
			return dst
		}
		for j := n0; j < len(sc.Tmp); j++ {
			sc.Tmp[j] += sx.offset[i]
		}
		sc.Ends = append(sc.Ends, len(sc.Tmp))
	}
	// Build the stream views only after Tmp stops growing — earlier
	// appends may have reallocated it.
	sc.Streams = sc.Streams[:0]
	prev := 0
	//lpm:ctxok — O(shards) stream-view assembly, no per-record work
	for _, end := range sc.Ends {
		sc.Streams = append(sc.Streams, sc.Tmp[prev:end])
		prev = end
	}
	return storage.MergeSortedAppend(dst, sc.Streams)
}

// EmitCoords translates ascending GLOBAL ranks to global coordinates: the
// owning shard advances monotonically with the ranks (shard rank blocks
// ascend with shard order), so one forward cursor replaces a per-record
// binary search; the shard translates locally and the origin shifts the
// result into global coordinates in place.
//
//lpm:allocfree
func (e shardEngine) EmitCoords(ranks []int, coords []int, yield func(int, []int) bool) {
	sx := e.sx
	cur := 0
	for _, r := range ranks {
		for r >= sx.offset[cur+1] {
			cur++
		}
		sx.shards[cur].coordsAt(r-sx.offset[cur], coords)
		origin := sx.origin[cur]
		for j := range coords {
			coords[j] += origin[j]
		}
		if !yield(r, coords) {
			return
		}
	}
}

func (e shardEngine) Pager() *storage.Pager { return e.sx.pager }
func (e shardEngine) D() int                { return e.sx.grid.D() }
func (e shardEngine) Parallelism() int      { return e.sx.par }

// initCore arms the shared serving core — the last step of finishSharded
// on every construction path (BuildSharded, ReadSharded, OpenMappedSharded)
// and of Scope. OpenMappedSharded re-arms it after attaching the shared
// lifecycle; a Scope view arms it over the parent's lifecycle.
func (sx *ShardedIndex) initCore() {
	sx.core = serve.NewCore(shardEngine{sx}, sx.lc)
}

// Close releases the mapped byte region backing a sharded index opened
// with OpenMappedSharded (all shard frames share one mapping and one
// Lifecycle). Like Index.Close it is safe against in-flight queries: the
// index latches closed, new queries fail with ErrIndexClosed, and the
// unmap waits for the last borrower — including queries issued directly
// against a Shard(i) or a Scope view. A Scope view's Close closes its
// parent. No-op for built or materialized indexes; idempotent and
// goroutine-safe.
func (sx *ShardedIndex) Close() error {
	if sx.closeFn == nil {
		return nil
	}
	sx.closeOnce.Do(func() {
		if sx.lc != nil {
			sx.lc.CloseAndWait()
		}
		sx.closeErr = sx.closeFn()
	})
	return sx.closeErr
}

// Scan streams the points of a box query in GLOBAL 1-D rank order,
// consulting only the shards whose bounding boxes intersect the box. The
// contract is identical to Index.Scan: the coords buffer is reused between
// iterations, the sequence is single-use, an unconsumed sequence strands
// no rank scratch, and steady-state iteration allocates nothing.
//
//lpm:allocfree
func (sx *ShardedIndex) Scan(b Box) (iter.Seq2[int, []int], error) {
	return sx.core.Scan(b)
}

// ScanInto is Scan in callback form, sharing its iteration body — see
// Index.ScanInto.
//
//lpm:allocfree
func (sx *ShardedIndex) ScanInto(b Box, yield func(rank int, coords []int) bool) error {
	return sx.core.ScanInto(b, yield)
}

// ScanIntoContext is ScanInto under a request context — see
// Index.ScanIntoContext for the cancellation and closed-index contract.
//
//lpm:allocfree
func (sx *ShardedIndex) ScanIntoContext(ctx context.Context, b Box, yield func(rank int, coords []int) bool) error {
	return sx.core.ScanIntoCtx(ctx, b, yield)
}

// Pages returns the page-run plan of a box query over the GLOBAL rank
// space — runs may span shard boundaries when adjacent shards both match,
// which is exactly what the bisection-tree shard order arranges for.
func (sx *ShardedIndex) Pages(b Box) ([]PageRun, error) {
	return sx.core.PagesInto(b, nil)
}

// PagesInto is Pages appending to dst; with sufficient capacity it
// performs zero steady-state heap allocations.
//
//lpm:allocfree
func (sx *ShardedIndex) PagesInto(b Box, dst []PageRun) ([]PageRun, error) {
	return sx.core.PagesInto(b, dst)
}

// PagesIntoContext is PagesInto under a request context — see
// Index.ScanIntoContext for the cancellation and closed-index contract.
//
//lpm:allocfree
func (sx *ShardedIndex) PagesIntoContext(ctx context.Context, b Box, dst []PageRun) ([]PageRun, error) {
	return sx.core.PagesIntoCtx(ctx, b, dst)
}

// QueryIO returns the simulated I/O cost of a box query against the global
// rank space. It allocates nothing in steady state.
//
//lpm:allocfree
func (sx *ShardedIndex) QueryIO(b Box) (IOStats, error) {
	return sx.core.QueryIO(b)
}

// QueryIOContext is QueryIO under a request context — see
// Index.ScanIntoContext for the cancellation and closed-index contract.
//
//lpm:allocfree
func (sx *ShardedIndex) QueryIOContext(ctx context.Context, b Box) (IOStats, error) {
	return sx.core.QueryIOCtx(ctx, b)
}

// QueryBatch answers one QueryIO per box, fanning the slice across the
// index's parallelism — see Index.QueryBatch for the contract.
func (sx *ShardedIndex) QueryBatch(boxes []Box) ([]IOStats, error) {
	return sx.core.QueryBatch(boxes)
}

// QueryBatchContext is QueryBatch under a request context — see
// Index.QueryBatchContext.
func (sx *ShardedIndex) QueryBatchContext(ctx context.Context, boxes []Box) ([]IOStats, error) {
	return sx.core.QueryBatchCtx(ctx, boxes)
}
