package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/cluster"
	"github.com/spectral-lpm/spectrallpm/internal/server"
	"github.com/spectral-lpm/spectrallpm/internal/shard"
	"github.com/spectral-lpm/spectrallpm/internal/storage"
)

const (
	clusterShards   = 4
	clusterReplicas = 2
	routerSrv       = clusterShards*clusterReplicas + 1 // server id of the router in spans; workers are 1..8
)

// clusterWorkload is the distributed serving user: a router over
// 4 shards x 2 replica workers, all on loopback, serving a BuildSharded(4)
// container of the same grid as the daemon. Box positions are uniform, so
// boxes often cross shard boundaries and the working set is cold.
var clusterWorkload = servingWorkload{
	name: "cluster",
	dims: servedDims,
	mix: mix{
		entries: []mixEntry{
			{cls: clsRank, weight: 20},
			{cls: clsPoint, weight: 5},
			{cls: clsBox, side: 4, weight: 5},
			{cls: clsBox, side: 16, weight: 20},
			{cls: clsBox, side: 64, weight: 20},
			{cls: clsPages, weight: 20},
			{cls: clsBatch, weight: 10},
		},
		sides: []int{4, 16, 64},
		batch: 8,
	},
	nominal: 150,
	windows: 3,
	ladder:  []float64{560, 700, 780, 870, 970, 1080, 1200, 1350},
	step:    2 * time.Second,
	lim:     limits{scanTailMs: 50, lateMs: 5, backlog: 0.05},
	build:   buildClusterIndex,
	setup:   clusterSetup,
	layers:  clusterLayers,
}

// shardGeom is the shard plan the replays and span attachment clip with.
type shardGeom struct {
	lo, hi [][]int
	offset []int
}

func buildClusterIndex() (indexFile, error) {
	return spectrallpm.BuildSharded(context.Background(), clusterShards, spectrallpm.WithGrid(servedDims...))
}

func clusterSetup(rc *runCtx) (*target, error) {
	dir, err := rc.tempDir()
	if err != nil {
		return nil, err
	}
	a, b, path := filepath.Join(dir, "index.a"), filepath.Join(dir, "index.b"), filepath.Join(dir, "index")
	t0 := time.Now()
	sx, err := buildClusterIndex()
	if err != nil {
		return nil, err
	}
	rc.tr.timed("codec.write_v2", func() { err = writeIndexFile(a, sx) })
	if err != nil {
		return nil, err
	}
	buildS := time.Since(t0).Seconds()
	if err := os.Link(a, path); err != nil {
		return nil, err
	}
	orc, err := spectrallpm.OpenMappedSharded(a)
	if err != nil {
		return nil, err
	}
	geom := shardGeom{}
	for s := 0; s < orc.NumShards(); s++ {
		lo, hi, off, _ := orc.ShardBounds(s)
		geom.lo, geom.hi, geom.offset = append(geom.lo, lo), append(geom.hi, hi), append(geom.offset, off)
	}

	var stops []func()
	stop := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		orc.Close()
		os.RemoveAll(dir)
	}
	t1 := time.Now()
	var workers []*server.Server
	topo := &cluster.Topology{}
	for s := 0; s < clusterShards; s++ {
		reps := cluster.ShardReplicas{Shard: s}
		for r := 0; r < clusterReplicas; r++ {
			srv, addr, stopW, err := startWorker(rc, path, s, 1+s*clusterReplicas+r)
			if err != nil {
				stop()
				return nil, err
			}
			stops = append(stops, stopW)
			workers = append(workers, srv)
			reps.Replicas = append(reps.Replicas, addr)
		}
		topo.Shards = append(topo.Shards, reps)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Topology: topo, Logf: func(string, ...any) {}})
	if err != nil {
		stop()
		return nil, err
	}
	addr, stopR, err := serve(rc.tr.middleware("router.handler", routerSrv, false, rt.Handler()))
	if err != nil {
		stop()
		return nil, err
	}
	stops = append(stops, stopR)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	rt.ProbeOnce(ctx)
	cancel()
	if !rt.Ready() {
		stop()
		return nil, fmt.Errorf("router geometry handshake incomplete")
	}
	if err := firstAnswer(addr, orc, handshakeRequest(len(servedDims))); err != nil {
		stop()
		return nil, err
	}
	openMs := ms(time.Since(t1))

	if err := writeIndexFile(b, sx); err != nil {
		stop()
		return nil, err
	}
	sw := &swapper{path: path, a: a, b: b}
	next := 0
	rc.geom = geom
	return &target{
		addr:   addr,
		oracle: orc,
		setupS: buildS + openMs/1e3,
		buildS: buildS,
		openMs: openMs,
		// A rolling reload: each call swaps the file and reloads the next
		// worker replica.
		reload: func() error {
			if err := sw.swap(); err != nil {
				return err
			}
			w := workers[next%len(workers)]
			next++
			return w.Reload()
		},
		stats: func() (map[string]float64, error) {
			var rs struct {
				Hedges    int64 `json:"hedges"`
				Retries   int64 `json:"retries"`
				Ejections int64 `json:"ejections"`
			}
			if err := getJSON("http://"+addr+"/stats", &rs); err != nil {
				return nil, err
			}
			out := map[string]float64{
				"router.hedges":    float64(rs.Hedges),
				"router.retries":   float64(rs.Retries),
				"router.ejections": float64(rs.Ejections),
			}
			for _, reps := range topo.Shards {
				for _, wa := range reps.Replicas {
					var ws struct {
						Shed    int64 `json:"shed"`
						Expired int64 `json:"expired"`
					}
					if err := getJSON("http://"+wa+"/stats", &ws); err != nil {
						return nil, err
					}
					out["server.shed"] += float64(ws.Shed)
					out["server.expired"] += float64(ws.Expired)
				}
			}
			return out, nil
		},
		handler: workers[0].Handler(),
		probe:   appendCoordsBody(nil, geom.lo[0]),
		stop:    stop,
		n:       orc.N(),
	}, nil
}

// startWorker starts one shard worker daemon on loopback. In traced runs
// its opener wraps the shard view, so /v1/shardinfo (which needs the bare
// view) is answered by a shadow server over the first view opened; the
// advertised geometry is the same for every generation.
func startWorker(rc *runCtx, path string, shardID, srvID int) (*server.Server, string, func(), error) {
	var bare server.Queryable
	open := func(p string) (server.Queryable, error) {
		q, err := cluster.OpenShardWorker(p, shardID)
		if err == nil && bare == nil {
			bare = q
		}
		return q, err
	}
	routes := cluster.WorkerRoutes
	if rc.tr != nil {
		routes = func(_ *server.Server, mux *http.ServeMux) {
			shadow, err := server.New(server.Config{
				IndexPath: path,
				Logf:      func(string, ...any) {},
				Open:      func(string) (server.Queryable, error) { return bare, nil },
			})
			if err == nil {
				cluster.WorkerRoutes(shadow, mux)
			}
		}
	}
	srv, err := server.New(server.Config{
		IndexPath: path,
		Logf:      func(string, ...any) {},
		Open:      rc.tr.tracedOpen(open, "worker.query", srvID),
		Routes:    routes,
	})
	if err != nil {
		return nil, "", nil, err
	}
	addr, stopHTTP, err := serve(rc.tr.middleware("worker.handler", srvID, true, srv.Handler()))
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, "", nil, err
	}
	return srv, addr, func() {
		stopHTTP()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}, nil
}

// workerKeys lists, for one client request, the (shard, body) pairs the
// router sends its workers when nothing fails: the key a worker span is
// matched on.
func workerKeys(g shardGeom, rq *request) []string {
	var keys []string
	key := func(s int, body []byte) { keys = append(keys, strconv.Itoa(s)+"|"+string(body)) }
	switch rq.cls {
	case clsRank:
		for s := range g.lo {
			if inside(g, s, rq.coords) {
				key(s, appendCoordsBody(nil, rq.coords))
				break
			}
		}
	case clsPoint:
		s := len(g.offset) - 1
		for s > 0 && g.offset[s] > rq.rank {
			s--
		}
		key(s, rq.body)
	default:
		d := len(servedDims)
		cs, cd := make([]int, d), make([]int, d)
		for _, bx := range rq.boxes {
			for s := range g.lo {
				if shard.ClipBox(bx.start, bx.dims, g.lo[s], g.hi[s], cs, cd) {
					key(s, appendBoxBody(nil, box{start: cs, dims: cd}))
				}
			}
		}
	}
	return keys
}

func inside(g shardGeom, s int, c []int) bool {
	for j, v := range c {
		if v < g.lo[s][j] || v > g.hi[s][j] {
			return false
		}
	}
	return true
}

// attachWorkers parents every worker span on the router span it served:
// same expected (shard, body) key and contained in its interval (the
// latest-starting one, if several). It returns, per router span id, the
// worker spans attached and the replies the router would merge.
func attachWorkers(g shardGeom, stream []request, spans []span) (children map[int64][]span, useful map[int64]int) {
	children, useful = map[int64][]span{}, map[int64]int{}
	cands := map[string][]span{}
	for _, s := range spans {
		if s.Name != "router.handler" || s.Req < 0 {
			continue
		}
		keys := workerKeys(g, &stream[s.Req])
		useful[s.ID] = len(keys)
		for _, k := range keys {
			cands[k] = append(cands[k], s)
		}
	}
	for _, w := range spans {
		if w.Name != "worker.handler" {
			continue
		}
		shardID := (w.Srv - 1) / clusterReplicas
		var best *span
		for i, r := range cands[strconv.Itoa(shardID)+"|"+w.Key] {
			if r.Start <= w.Start && w.End <= r.End && (best == nil || r.Start > best.Start) {
				best = &cands[strconv.Itoa(shardID)+"|"+w.Key][i]
			}
		}
		if best != nil {
			children[best.ID] = append(children[best.ID], w)
		}
	}
	return children, useful
}

// clusterLayers reads router, worker and query spans, and replays clip and
// merge on the recorded boxes.
func clusterLayers(rc *runCtx, tgt *target, t *tracedPhase, rep report) {
	children, useful := attachWorkers(rc.geom, t.stream, t.spans)
	workerIDs := map[int64]bool{}
	var rh, rself, wh []float64
	sent, merged, scans := 0, 0, 0
	for _, s := range t.spans {
		if s.Name != "router.handler" || s.Req < 0 {
			continue
		}
		rq := &t.stream[s.Req]
		kids := children[s.ID]
		if rq.cls.scan() {
			scans++
			sent += len(kids)
			merged += useful[s.ID]
		}
		if !box64(rq) {
			continue
		}
		rh = append(rh, float64(s.dur())/1e3)
		rself = append(rself, float64(selfTime(s, kids))/1e3)
		for _, k := range kids {
			workerIDs[k.ID] = true
			wh = append(wh, float64(k.dur())/1e3)
		}
	}
	spans := append([]span(nil), t.spans...)
	attachByContainment(spans, "worker.query", "worker.handler")
	var wq []float64
	for _, s := range spans {
		if s.Name == "worker.query" && workerIDs[s.Parent] {
			wq = append(wq, float64(s.dur())/1e3)
		}
	}
	rep.set("router.handler_us", median(rh))
	rep.set("router.self_us", median(rself))
	rep.set("worker.handler_us", median(wh))
	rep.set("worker.query_us", median(wq))
	if scans > 0 && sent > 0 {
		rep.set("router.fanout_per_req", float64(sent)/float64(scans))
		rep.set("router.useful_ratio", float64(merged)/float64(sent))
	}
	rep.set("net.self_us", netSelf(t.stream, t.spans, "router.handler"))
	replayClipMerge(rc, tgt, t, rep)
	addCounters(rc, tgt, rep)
}

// replayClipMerge times shard.ClipBox over every recorded box against
// every shard, and storage.MergeSortedAppend over the per-shard rank
// streams of the recorded 64-side boxes.
func replayClipMerge(rc *runCtx, tgt *target, t *tracedPhase, rep report) {
	g := rc.geom
	d := len(servedDims)
	cs, cd := make([]int, d), make([]int, d)
	var boxes []box
	var b64 []box
	for _, s := range t.ph.samples {
		rq := &t.stream[s.req]
		boxes = append(boxes, rq.boxes...)
		if box64(rq) && len(b64) < 400 {
			b64 = append(b64, rq.boxes[0])
		}
	}
	if len(boxes) == 0 {
		return
	}
	t0 := time.Now()
	for _, bx := range boxes {
		for s := range g.lo {
			shard.ClipBox(bx.start, bx.dims, g.lo[s], g.hi[s], cs, cd)
		}
	}
	rep.set("shard.clip_us", float64(time.Since(t0))/1e3/float64(len(boxes)))

	if len(b64) == 0 {
		return
	}
	var elapsed time.Duration
	var dst []int
	for _, bx := range b64 {
		var streams [][]int
		for s := range g.lo {
			if !shard.ClipBox(bx.start, bx.dims, g.lo[s], g.hi[s], cs, cd) {
				continue
			}
			var ranks []int
			err := tgt.oracle.ScanIntoContext(context.Background(), spectrallpm.Box{Start: cs, Dims: cd}, func(r int, _ []int) bool {
				ranks = append(ranks, r)
				return true
			})
			if err != nil {
				rc.verdict.failed++
				rc.verdict.note("merge replay: " + err.Error())
				return
			}
			streams = append(streams, ranks)
		}
		t0 := time.Now()
		dst = storage.MergeSortedAppend(dst[:0], streams)
		elapsed += time.Since(t0)
	}
	rep.set("storage.merge_us", float64(elapsed)/1e3/float64(len(b64)))
}
