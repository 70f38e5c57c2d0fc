package main

import (
	"context"
	"os"
	"path/filepath"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
)

// servedDims is the grid both serving workloads serve. It has no tied
// axes, so its build stays off the tie-group recursion the library
// workload's square measures.
var servedDims = []int{1024, 768}

// daemonWorkload is the single-node serving user: one server.Server on a
// real loopback listener over a v2-mapped index, hot-reloaded under load.
// Box positions are Zipf-ranked over a hot set, so the working set is hot.
var daemonWorkload = servingWorkload{
	name: "daemon",
	dims: servedDims,
	mix: mix{
		entries: []mixEntry{
			{cls: clsRank, weight: 20},
			{cls: clsPoint, weight: 5},
			{cls: clsBox, side: 4, weight: 20},
			{cls: clsBox, side: 16, weight: 20},
			{cls: clsBox, side: 64, weight: 15},
			{cls: clsPages, weight: 15},
			{cls: clsBatch, weight: 5},
		},
		sides:   []int{4, 16, 64},
		batch:   8,
		zipf:    true,
		hotSize: 1024,
	},
	nominal: 600,
	windows: 6,
	ladder:  []float64{2300, 2900, 3350, 3850, 4400, 5000, 5700, 6500},
	step:    2 * time.Second,
	lim:     limits{scanTailMs: 5, lateMs: 2, backlog: 0.05},
	build:   buildDaemonIndex,
	setup:   daemonSetup,
	layers:  daemonLayers,
}

func buildDaemonIndex() (indexFile, error) {
	return spectrallpm.Build(context.Background(), spectrallpm.WithGrid(servedDims...))
}

func daemonSetup(rc *runCtx) (*target, error) {
	dir, err := rc.tempDir()
	if err != nil {
		return nil, err
	}
	a, b, path := filepath.Join(dir, "index.a"), filepath.Join(dir, "index.b"), filepath.Join(dir, "index")
	t0 := time.Now()
	ix, err := buildDaemonIndex()
	if err != nil {
		return nil, err
	}
	rc.tr.timed("codec.write_v2", func() { err = writeIndexFile(a, ix) })
	if err != nil {
		return nil, err
	}
	buildS := time.Since(t0).Seconds()
	if err := os.Link(a, path); err != nil {
		return nil, err
	}
	orc, err := spectrallpm.OpenMapped(a)
	if err != nil {
		return nil, err
	}

	t1 := time.Now()
	srv, err := server.New(server.Config{
		IndexPath: path,
		Logf:      func(string, ...any) {},
		Open:      rc.tr.tracedOpen(server.Open, "server.query", 0),
	})
	if err != nil {
		orc.Close()
		return nil, err
	}
	addr, stopHTTP, err := serve(rc.tr.middleware("server.handler", 0, false, srv.Handler()))
	if err != nil {
		orc.Close()
		return nil, err
	}
	stop := func() {
		stopHTTP()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		orc.Close()
		os.RemoveAll(dir)
	}
	if err := firstAnswer(addr, orc, handshakeRequest(len(servedDims))); err != nil {
		stop()
		return nil, err
	}
	openMs := ms(time.Since(t1))

	// The reload alternate is written after the clock stops: it exists only
	// so each reload opens a fresh inode.
	if err := writeIndexFile(b, ix); err != nil {
		stop()
		return nil, err
	}
	sw := &swapper{path: path, a: a, b: b}
	return &target{
		addr:   addr,
		oracle: orc,
		setupS: buildS + openMs/1e3,
		buildS: buildS,
		openMs: openMs,
		reload: func() error {
			if err := sw.swap(); err != nil {
				return err
			}
			return srv.Reload()
		},
		stats: func() (map[string]float64, error) {
			var st struct {
				Shed    int64 `json:"shed"`
				Expired int64 `json:"expired"`
			}
			err := getJSON("http://"+addr+"/stats", &st)
			return map[string]float64{"server.shed": float64(st.Shed), "server.expired": float64(st.Expired)}, err
		},
		handler: srv.Handler(),
		probe:   appendCoordsBody(nil, []int{1, 1}),
		stop:    stop,
		n:       orc.N(),
	}, nil
}

// daemonLayers reads the daemon's handler and query spans for the 64-side
// boxes, and the transport's share of a lookup.
func daemonLayers(rc *runCtx, tgt *target, t *tracedPhase, rep report) {
	handlers := map[int64]span{} // by handler span id
	var hs, qs []float64
	for _, s := range t.spans {
		if s.Name == "server.handler" && s.Req >= 0 && box64(&t.stream[s.Req]) {
			handlers[s.ID] = s
			hs = append(hs, float64(s.dur())/1e3)
		}
	}
	spans := append([]span(nil), t.spans...)
	attachByContainment(spans, "server.query", "server.handler")
	for _, s := range spans {
		if _, ok := handlers[s.Parent]; ok && s.Name == "server.query" {
			qs = append(qs, float64(s.dur())/1e3)
		}
	}
	rep.set("server.handler_us", median(hs))
	rep.set("server.query_us", median(qs))
	rep.set("net.self_us", netSelf(t.stream, t.spans, "server.handler"))
	addCounters(rc, tgt, rep)
}

// addCounters copies the system's /stats counters into the report.
func addCounters(rc *runCtx, tgt *target, rep report) {
	st, err := tgt.stats()
	if err != nil {
		rc.verdict.failed++
		rc.verdict.note("stats: " + err.Error())
		return
	}
	for k, v := range st {
		rep.set(k, v)
	}
}
