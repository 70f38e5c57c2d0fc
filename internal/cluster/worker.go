// The worker side of the cluster: ShardView serves one shard of a
// sharded v2 container on the standard serving surface, in the GLOBAL
// coordinate and rank frame, through ShardedIndex.Scope — the same
// planner, translation and serving core as the monolithic index, narrowed
// to the shard's rank block. Ranks a worker returns are global ranks,
// coordinates are global coordinates, and page runs are computed against
// the global pager — so the router can merge per-worker answers without
// re-translating anything, and a worker's answer for its slice of a query
// is bit-identical to the monolithic ShardedIndex's contribution from
// that shard.
package cluster

import (
	"context"
	"net/http"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
	"github.com/spectral-lpm/spectrallpm/internal/server/faultinject"
)

// ShardView is one shard of a mapped sharded index, presented as a
// server.Queryable in the global frame. It serves through the container's
// Scope view of the shard, so every query runs the same serving core as
// the monolithic ShardedIndex; ShardView itself only fires the
// worker-reply fault point and carries the shard id and the container
// total. It owns the mapping (Close closes it), even though it only ever
// queries one shard — the other shards' pages are mapped but never
// touched, so the resident cost is one shard plus the container header.
type ShardView struct {
	sx      *spectrallpm.ShardedIndex // Scope view of shard shardID
	shardID int
	totalN  int
}

// OpenShardWorker opens path as a sharded v2 container and scopes it to
// one shard — the server.Config.Open hook for `lpmserve -role worker`,
// so SIGHUP hot reloads re-scope the replacement file to the same shard.
func OpenShardWorker(path string, shardID int) (server.Queryable, error) {
	sx, err := spectrallpm.OpenMappedSharded(path)
	if err != nil {
		return nil, err
	}
	scoped, err := sx.Scope(shardID)
	if err != nil {
		sx.Close()
		return nil, err
	}
	return &ShardView{sx: scoped, shardID: shardID, totalN: sx.N()}, nil
}

// ShardID returns which shard of the container this view serves.
func (v *ShardView) ShardID() int { return v.shardID }

// N reports the records THIS WORKER serves (its shard), not the
// container total — /healthz and /stats describe the worker itself.
// TotalN reports the container total the rank frame is scoped to.
func (v *ShardView) N() int      { return v.sx.N() }
func (v *ShardView) TotalN() int { return v.totalN }

// D, Dims, RecordsPerPage and NumPages describe the GLOBAL frame: the
// grid shape and page geometry are properties of the whole index, and
// the router cross-checks every worker reports the same ones.
func (v *ShardView) D() int              { return v.sx.D() }
func (v *ShardView) Dims() []int         { return v.sx.Dims() }
func (v *ShardView) RecordsPerPage() int { return v.sx.RecordsPerPage() }
func (v *ShardView) NumPages() int       { return v.sx.NumPages() }

// RankContext answers with the GLOBAL rank. Points outside this shard's
// bounds answer ErrPointNotIndexed — for a grid that means "ask the owning
// shard", for a point set it means "not here" (the router treats
// overlapping point-shard boxes as a candidate list and keeps asking).
func (v *ShardView) RankContext(ctx context.Context, coords ...int) (int, error) {
	faultinject.Fire(faultinject.PointWorkerReply)
	return v.sx.RankContext(ctx, coords...)
}

// PointContext answers the point at a GLOBAL rank. Ranks outside this
// shard's block answer ErrRankOutOfRange even when they are valid ranks of
// the whole index: a worker only vouches for its own block, and the router
// routes each rank to its owner by offset.
func (v *ShardView) PointContext(ctx context.Context, rank int) ([]int, error) {
	faultinject.Fire(faultinject.PointWorkerReply)
	return v.sx.PointContext(ctx, rank)
}

// Rank and Point are RankContext and PointContext without a deadline.
func (v *ShardView) Rank(coords ...int) (int, error) {
	return v.RankContext(context.Background(), coords...)
}
func (v *ShardView) Point(rank int) ([]int, error) { return v.PointContext(context.Background(), rank) }

// ScanIntoContext yields this shard's slice of the box in ascending
// GLOBAL rank order with GLOBAL coordinates. Boxes are validated against
// the global grid: a worker rejects exactly the boxes the monolith would,
// so a worker 4xx on a box the router validated is a fault.
func (v *ShardView) ScanIntoContext(ctx context.Context, b spectrallpm.Box, yield func(rank int, coords []int) bool) error {
	faultinject.Fire(faultinject.PointWorkerReply)
	return v.sx.ScanIntoContext(ctx, b, yield)
}

// PagesIntoContext plans this shard's page runs for a box against the
// GLOBAL pager, so run page numbers agree with the monolithic plan and
// the router can coalesce runs across workers.
func (v *ShardView) PagesIntoContext(ctx context.Context, b spectrallpm.Box, dst []spectrallpm.PageRun) ([]spectrallpm.PageRun, error) {
	faultinject.Fire(faultinject.PointWorkerReply)
	return v.sx.PagesIntoContext(ctx, b, dst)
}

// QueryIOContext computes this shard's I/O stats for a box in the GLOBAL
// page space. Note cross-shard seek/span composition happens at the
// router (stats are not additive), so this is mostly useful for
// inspecting one worker in isolation.
func (v *ShardView) QueryIOContext(ctx context.Context, b spectrallpm.Box) (spectrallpm.IOStats, error) {
	faultinject.Fire(faultinject.PointWorkerReply)
	return v.sx.QueryIOContext(ctx, b)
}

// QueryBatchContext answers QueryIOContext per box with the monolithic
// all-or-nothing contract: a bad box fails the whole batch, and the error
// names the lowest bad box.
func (v *ShardView) QueryBatchContext(ctx context.Context, boxes []spectrallpm.Box) ([]spectrallpm.IOStats, error) {
	faultinject.Fire(faultinject.PointWorkerReply)
	return v.sx.QueryBatchContext(ctx, boxes)
}

// Close releases the whole mapped container.
func (v *ShardView) Close() error { return v.sx.Close() }

// WorkerRoutes is the server.Config.Routes hook for worker daemons: it
// exposes GET /v1/shardinfo, the geometry handshake the router bootstraps
// from. It reads the CURRENT index handle per request, so the advertised
// geometry tracks hot reloads.
func WorkerRoutes(s *server.Server, mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/shardinfo", func(w http.ResponseWriter, r *http.Request) {
		v, ok := s.Index().(*ShardView)
		if !ok {
			http.Error(w, "not a shard worker", http.StatusInternalServerError)
			return
		}
		ps := server.GetProto()
		defer ps.Put()
		lo, hi, offset, records := v.sx.ShardBounds(0)
		ps.Buf = append(ps.Buf, `{"shard":`...)
		ps.Buf = server.AppendInt(ps.Buf, v.shardID)
		ps.Buf = append(ps.Buf, `,"points":`...)
		if v.sx.PointSet() {
			ps.Buf = append(ps.Buf, `true`...)
		} else {
			ps.Buf = append(ps.Buf, `false`...)
		}
		ps.Buf = append(ps.Buf, `,"d":`...)
		ps.Buf = server.AppendInt(ps.Buf, v.sx.D())
		ps.Buf = append(ps.Buf, `,"dims":`...)
		ps.Buf = server.AppendIntArray(ps.Buf, v.sx.Dims())
		ps.Buf = append(ps.Buf, `,"lo":`...)
		ps.Buf = server.AppendIntArray(ps.Buf, lo)
		ps.Buf = append(ps.Buf, `,"hi":`...)
		ps.Buf = server.AppendIntArray(ps.Buf, hi)
		ps.Buf = append(ps.Buf, `,"rank_offset":`...)
		ps.Buf = server.AppendInt(ps.Buf, offset)
		ps.Buf = append(ps.Buf, `,"records":`...)
		ps.Buf = server.AppendInt(ps.Buf, records)
		ps.Buf = append(ps.Buf, `,"total_records":`...)
		ps.Buf = server.AppendInt(ps.Buf, v.totalN)
		ps.Buf = append(ps.Buf, `,"records_per_page":`...)
		ps.Buf = server.AppendInt(ps.Buf, v.sx.RecordsPerPage())
		ps.Buf = append(ps.Buf, '}')
		w.Header().Set("Content-Type", "application/json")
		w.Write(ps.Buf)
	})
}
