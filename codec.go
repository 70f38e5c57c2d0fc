package spectrallpm

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/spectral-lpm/spectrallpm/internal/graph"
	"github.com/spectral-lpm/spectrallpm/internal/order"
	"github.com/spectral-lpm/spectrallpm/internal/rtree"
	"github.com/spectral-lpm/spectrallpm/internal/storage"
)

// The version-1 index format, which this package reads but does not write
// (WriteToV2 is the one writer): a single JSON object, one line, with a
// format tag and an explicit version so readers can reject files from the
// future. Version 1 carries the mapping name, the grid dimensions, the
// connectivity/weights/solver provenance of spectral orders ("solver" is
// "closed-form" for the analytic default-grid path and absent for an
// eigensolve), per-component λ₂, the page size, the point set (point-set
// indexes only), and the rank permutation.
//
// The "points" key decodes through a pointer so that PRESENCE — not
// emptiness — selects the point-set decode path: "points":[] is an empty
// point-set index, while full-grid indexes omit the key entirely.
const (
	indexFormat  = "spectrallpm-index"
	indexVersion = 1
)

// indexFileV1 is the version-1 wire form.
type indexFileV1 struct {
	Format         string    `json:"format"`
	Version        int       `json:"version"`
	Name           string    `json:"name"`
	Dims           []int     `json:"dims"`
	Connectivity   string    `json:"connectivity,omitempty"`
	Weights        string    `json:"weights,omitempty"`
	Affinity       int       `json:"affinity,omitempty"`
	Solver         string    `json:"solver,omitempty"`
	Lambda2        []float64 `json:"lambda2,omitempty"`
	RecordsPerPage int       `json:"records_per_page"`
	Points         *[][]int  `json:"points,omitempty"`
	Rank           []int     `json:"rank"`
}

// ReadIndex imports an index from the version-1 JSON format, validating
// the format tag, the version, and that the rank slice is a permutation
// over the declared points (ErrNotPermutation otherwise). Structural
// inconsistencies an attacker could plant in a hand-crafted file — a grid
// whose dims product would wrap the vertex count, a non-positive page
// size, impossible λ₂ entries — are rejected with errors matching
// ErrCorruptIndex or ErrDimensionMismatch rather than being allowed to
// panic or over-allocate. Write the imported index with WriteToV2 to serve
// it from a read-only map. Serving parallelism is not part of the format:
// a reloaded index runs QueryBatch at GOMAXPROCS regardless of the
// WithParallelism the builder used.
func ReadIndex(r io.Reader) (*Index, error) {
	var f indexFileV1
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("spectrallpm: decode index: %w", err)
	}
	if f.Format != indexFormat {
		return nil, fmt.Errorf("spectrallpm: not an index file (format %q, want %q)", f.Format, indexFormat)
	}
	if f.Version != indexVersion {
		return nil, fmt.Errorf("spectrallpm: unsupported index version %d (this build reads version %d)", f.Version, indexVersion)
	}
	if f.Name == "" {
		return nil, fmt.Errorf("spectrallpm: index file has no mapping name")
	}
	if f.RecordsPerPage < 1 {
		return nil, fmt.Errorf("spectrallpm: records_per_page %d < 1: %w", f.RecordsPerPage, ErrCorruptIndex)
	}
	grid, err := graph.NewGrid(f.Dims...)
	if err != nil {
		return nil, fmt.Errorf("spectrallpm: index dims: %w (%w)", err, ErrCorruptIndex)
	}
	// λ₂ entries are one per connected component of the solved graph: a
	// grid graph is connected (at most one), a point graph has at most one
	// per point. Negative algebraic connectivity is impossible.
	maxLambda := 1
	if f.Points != nil {
		maxLambda = len(*f.Points)
	}
	if len(f.Lambda2) > maxLambda {
		return nil, fmt.Errorf("spectrallpm: %d lambda2 entries for at most %d components: %w", len(f.Lambda2), maxLambda, ErrCorruptIndex)
	}
	for _, l := range f.Lambda2 {
		if l < 0 {
			return nil, fmt.Errorf("spectrallpm: negative lambda2 %v: %w", l, ErrCorruptIndex)
		}
	}
	ix := &Index{
		name:    f.Name,
		grid:    grid,
		lambda2: f.Lambda2,
		meta:    provenance{connectivity: f.Connectivity, weights: f.Weights, affinity: f.Affinity, solver: f.Solver},
	}
	if f.Points != nil {
		if err := loadPointSet(ix, grid, &f); err != nil {
			return nil, err
		}
		pager, err := storage.NewPager(len(*f.Points), f.RecordsPerPage)
		if err != nil {
			return nil, err
		}
		ix.pager = pager
	} else {
		m, err := order.FromRanks(f.Name, grid, f.Rank)
		if err != nil {
			return nil, err
		}
		st, err := storage.NewStore(m, f.RecordsPerPage)
		if err != nil {
			return nil, err
		}
		ix.mapping = m
		ix.store = st
		ix.pager = st.Pager()
	}
	ix.initCore()
	return ix, nil
}

// loadPointSet reconstructs the point-set half of an Index from the wire
// form: the grid-id lookup slices, the rank/vert permutations, and the
// rank-order packed R-tree the box-query path probes, with the same
// validation Build applies.
func loadPointSet(ix *Index, grid *graph.Grid, f *indexFileV1) error {
	pts := *f.Points
	n := len(pts)
	if len(f.Rank) != n {
		return fmt.Errorf("spectrallpm: index has %d points but %d ranks: %w", n, len(f.Rank), ErrDimensionMismatch)
	}
	idSorted, pidOf, err := indexPoints(grid, pts)
	if err != nil {
		return err
	}
	vert := make([]int, n)
	seen := make([]bool, n)
	for pid, r := range f.Rank {
		if r < 0 || r >= n || seen[r] {
			return fmt.Errorf("spectrallpm: point %d, rank %d: %w", pid, r, ErrNotPermutation)
		}
		seen[r] = true
		vert[r] = pid
	}
	ix.pts = pts
	ix.idSorted = idSorted
	ix.pidOf = pidOf
	ix.rank = f.Rank
	ix.vert = vert
	if n == 0 {
		// An empty point-set file is a valid (if useless) index; Pack
		// rejects zero points, and every query answers empty without it.
		return nil
	}
	ix.rt, err = rtree.Pack(pts, vert, pointTreeFanout)
	return err
}
