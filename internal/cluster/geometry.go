// Geometry bootstrap: the router learns the cluster's shape from the
// workers themselves (GET /v1/shardinfo) instead of trusting a config
// file — the topology says only WHO serves each shard; the index file
// says WHAT each shard is. The router cross-checks every worker's report
// (same grid, same page geometry, rank blocks that tile [0, N)) and
// refuses to serve until the picture is complete and consistent, so a
// miswired topology (a worker serving shard 2 listed under shard 0)
// is a startup diagnostic, never silently wrong answers.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// shardInfo is one worker's self-description — the wire form of
// GET /v1/shardinfo.
type shardInfo struct {
	Shard          int   `json:"shard"`
	Points         bool  `json:"points"`
	D              int   `json:"d"`
	Dims           []int `json:"dims"`
	Lo             []int `json:"lo"`
	Hi             []int `json:"hi"`
	RankOffset     int   `json:"rank_offset"`
	Records        int   `json:"records"`
	TotalRecords   int   `json:"total_records"`
	RecordsPerPage int   `json:"records_per_page"`
}

// geometry is the assembled, validated cluster shape. Immutable once
// published; the serving paths read it through an atomic pointer.
type geometry struct {
	d        int
	points   bool
	dims     []int
	total    int
	rpp      int
	numPages int
	// Per shard, indexed by shard id.
	lo, hi  [][]int
	offset  []int
	records []int
}

// fetchShardInfo asks shard s's replica set for its self-description,
// through the same retry/hedge/health machinery as queries.
func (rt *Router) fetchShardInfo(ctx context.Context, s int) (*shardInfo, error) {
	data, status, err := rt.fetch(ctx, s, "/v1/shardinfo", nil, smallReplyLimit)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("cluster: shard %d shardinfo answered status %d", s, status)
	}
	var info shardInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, fmt.Errorf("cluster: shard %d shardinfo: %w", s, err)
	}
	if info.Shard != s {
		return nil, fmt.Errorf("cluster: topology lists a shard-%d worker under shard %d — refusing miswired topology", info.Shard, s)
	}
	return &info, nil
}

// refreshGeometryLocked (geoMu held) fills in missing shard infos and,
// once all are known, validates and publishes the geometry. Unreachable
// workers leave gaps to retry on the next call; an inconsistent set is
// discarded whole so a fixed fleet can re-handshake from scratch.
func (rt *Router) refreshGeometryLocked(ctx context.Context) {
	for s := range rt.shards {
		if rt.infos[s] != nil {
			continue
		}
		info, err := rt.fetchShardInfo(ctx, s)
		if err != nil {
			rt.cfg.Logf("geometry handshake with shard %d pending: %v", s, err)
			continue
		}
		rt.infos[s] = info
	}
	for s := range rt.shards {
		if rt.infos[s] == nil {
			return
		}
	}
	g, err := buildGeometry(rt.infos)
	if err != nil {
		rt.cfg.Logf("discarding inconsistent shard geometry: %v", err)
		for s := range rt.infos {
			rt.infos[s] = nil
		}
		return
	}
	rt.geo.Store(g)
	rt.cfg.Logf("geometry complete: %d shards, %d records, %d dims", len(rt.shards), g.total, g.d)
}

// buildGeometry assembles and cross-checks the per-shard reports: every
// worker must agree on the global frame, and the rank blocks must tile
// [0, total) exactly.
func buildGeometry(infos []*shardInfo) (*geometry, error) {
	ref := infos[0]
	if ref.D <= 0 || len(ref.Dims) != ref.D || ref.TotalRecords <= 0 || ref.RecordsPerPage <= 0 {
		return nil, fmt.Errorf("cluster: shard 0 reports degenerate frame (d=%d, total=%d, rpp=%d)", ref.D, ref.TotalRecords, ref.RecordsPerPage)
	}
	g := &geometry{
		d:       ref.D,
		points:  ref.Points,
		dims:    append([]int(nil), ref.Dims...),
		total:   ref.TotalRecords,
		rpp:     ref.RecordsPerPage,
		lo:      make([][]int, len(infos)),
		hi:      make([][]int, len(infos)),
		offset:  make([]int, len(infos)),
		records: make([]int, len(infos)),
	}
	g.numPages = (g.total + g.rpp - 1) / g.rpp
	for s, info := range infos {
		if info.D != g.d || !slices.Equal(info.Dims, g.dims) || info.Points != g.points ||
			info.TotalRecords != g.total || info.RecordsPerPage != g.rpp {
			return nil, fmt.Errorf("cluster: shard %d disagrees with shard 0 on the global frame — are all workers serving the same index file?", s)
		}
		if len(info.Lo) != g.d || len(info.Hi) != g.d {
			return nil, fmt.Errorf("cluster: shard %d reports bounds of arity %d/%d, want %d", s, len(info.Lo), len(info.Hi), g.d)
		}
		if info.Records < 0 || info.RankOffset < 0 || info.RankOffset+info.Records > g.total {
			return nil, fmt.Errorf("cluster: shard %d rank block [%d,%d) outside [0,%d)", s, info.RankOffset, info.RankOffset+info.Records, g.total)
		}
		g.lo[s] = append([]int(nil), info.Lo...)
		g.hi[s] = append([]int(nil), info.Hi...)
		g.offset[s] = info.RankOffset
		g.records[s] = info.Records
	}
	// Rank blocks must tile [0, total) — holes or overlaps mean the merge
	// would silently drop or duplicate ranks.
	order := make([]int, len(infos))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return g.offset[order[i]] < g.offset[order[j]] })
	at := 0
	for _, s := range order {
		if g.offset[s] != at {
			return nil, fmt.Errorf("cluster: rank blocks do not tile: expected offset %d, shard %d starts at %d", at, s, g.offset[s])
		}
		at += g.records[s]
	}
	if at != g.total {
		return nil, fmt.Errorf("cluster: rank blocks cover %d of %d records", at, g.total)
	}
	return g, nil
}

// geometry returns the published cluster shape, completing the handshake
// synchronously (bounded by ctx) if it has not finished yet. Nil means
// some worker is still unreachable: the router answers 503 rather than
// guess at a frame it cannot validate queries against.
func (rt *Router) geometry(ctx context.Context) *geometry {
	if g := rt.geo.Load(); g != nil {
		return g
	}
	rt.geoMu.Lock()
	defer rt.geoMu.Unlock()
	if g := rt.geo.Load(); g != nil {
		return g
	}
	rt.refreshGeometryLocked(ctx)
	return rt.geo.Load()
}

// validateBox mirrors the monolithic ShardedIndex's box validation.
func (g *geometry) validateBox(start, dims []int) error {
	if len(start) != g.d || len(dims) != g.d {
		return fmt.Errorf("cluster: box arity %d/%d, want %d: %w", len(start), len(dims), g.d, spectrallpm.ErrDimensionMismatch)
	}
	if g.points {
		return nil
	}
	for i, st := range start {
		if dims[i] < 1 || st < 0 || st+dims[i] > g.dims[i] {
			return fmt.Errorf("cluster: box start=%v dims=%v exceeds grid %v: %w", start, dims, g.dims, spectrallpm.ErrDimensionMismatch)
		}
	}
	return nil
}

// validateCoords mirrors the monolithic ShardedIndex's coordinate
// validation for rank lookups.
func (g *geometry) validateCoords(coords []int) error {
	if len(coords) != g.d {
		return fmt.Errorf("cluster: coordinate arity %d, want %d: %w", len(coords), g.d, spectrallpm.ErrDimensionMismatch)
	}
	for i, c := range coords {
		if c < 0 || c >= g.dims[i] {
			if !g.points {
				return fmt.Errorf("cluster: coordinate %d outside [0,%d): %w", c, g.dims[i], spectrallpm.ErrDimensionMismatch)
			}
			return fmt.Errorf("cluster: point %v not indexed: %w", coords, spectrallpm.ErrPointNotIndexed)
		}
	}
	return nil
}

// contains reports whether shard s's inclusive bounding box holds coords.
func (g *geometry) contains(s int, coords []int) bool {
	for j, c := range coords {
		if c < g.lo[s][j] || c > g.hi[s][j] {
			return false
		}
	}
	return true
}

// owner returns the shard whose rank block holds rank (rank must be in
// [0, total)).
func (g *geometry) owner(rank int) int {
	best, bestOff := 0, -1
	for s, off := range g.offset {
		if off <= rank && off > bestOff {
			best, bestOff = s, off
		}
	}
	return best
}
