// The router: the cluster's query front end. It owns no index data — it
// holds the static replica topology, learns the shard geometry from the
// workers, and turns every query into a per-shard plan (ClipBox against
// each shard's bounds), a replicated network fan-out (per-attempt
// timeouts, hedged reads, jittered-backoff retries, health-aware replica
// rotation), and a merge in global rank order. It serves through
// server.Server, the spine the daemon and the workers use: routerView
// presents the remote shards as a server.Queryable, so the router has the
// daemon's request decoding, bounded admission (429 + Retry-After),
// deadlines (504, including before any fan-out), error mapping, single
// buffered write and drain. The router adds only its own /healthz and
// /stats.
//
// Failure semantics, per endpoint class:
//
//   - box/pages/batch (collection answers): a shard whose replicas are
//     all unreachable fails the whole query in strict mode (502, or 504
//     when the deadline died first); in -partial mode the response is
//     emitted for the reachable shards — rank-correct for every shard
//     present — with the unreachable shard ids in "shards_missing".
//   - rank/point (scalar answers): routed to the shard that owns the
//     coordinates or the rank block; a scalar cannot be partially
//     correct, so an unreachable owner is always an error. A worker's 4xx
//     becomes the library error the daemon would have returned.
//   - every per-shard reply is read up to a size limit (a box reply's is
//     the shard's whole record set, at most 20 digits per integer) and
//     parsed by one strict, allocation-free scanner (reply.go) that checks
//     it against the shard's declared rank block, bounding box and page
//     count in the same pass; an oversized, torn, malformed or
//     cross-wired reply is discarded as a replica failure, never merged.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
	"github.com/spectral-lpm/spectrallpm/internal/server/faultinject"
	"github.com/spectral-lpm/spectrallpm/internal/shard"
)

// RouterConfig carries the router's tunables. The zero value of any field
// picks the default documented on it.
type RouterConfig struct {
	// Topology is the static shard→replicas layout (required).
	Topology *Topology
	// Addr is the listen address (default ":8090").
	Addr string
	// Partial enables partial results: when a shard's replicas are all
	// unreachable, box/pages/batch answer for the reachable shards and
	// label the gap with "shards_missing" instead of failing.
	Partial bool
	// AttemptTimeout bounds each per-replica attempt (default 1s).
	AttemptTimeout time.Duration
	// HedgeAfter is the latency threshold past which the router races a
	// hedged second request against the next replica (default 50ms;
	// hedging is skipped for single-replica shards).
	HedgeAfter time.Duration
	// Retries is how many extra attempts follow a failed first one, each
	// against the next replica in rotation after a jittered exponential
	// backoff (default 2).
	Retries int
	// BackoffBase is the pre-jitter backoff before the first retry,
	// doubling per retry (default 20ms; jittered to [0.5x, 1.5x)).
	BackoffBase time.Duration
	// FailThreshold ejects a replica after this many consecutive failed
	// attempts (default 3); a background probe reinstates it.
	FailThreshold int
	// ProbeInterval is the cadence of the ejected-replica health probe and
	// of geometry-handshake retries (default 500ms).
	ProbeInterval time.Duration
	// DefaultTimeout is the per-request deadline when the client sends no
	// timeout_ms query parameter (default 5s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested deadline (default 30s).
	MaxTimeout time.Duration
	// DrainTimeout bounds how long Shutdown waits for in-flight requests
	// (default 10s).
	DrainTimeout time.Duration
	// Logf receives operational log lines (default stderr).
	Logf func(format string, args ...any)
}

func (c *RouterConfig) fillDefaults() error {
	if c.Topology == nil {
		return fmt.Errorf("cluster: router needs a topology")
	}
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.Addr == "" {
		c.Addr = ":8090"
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = time.Second
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 50 * time.Millisecond
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 20 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "lpmserve-router: "+format+"\n", args...)
		}
	}
	return nil
}

// Router is the cluster front end. Create with NewRouter, serve with Run
// (or wire Handler into a test server), stop with Shutdown. Admission runs
// at the server.Config defaults.
type Router struct {
	cfg    RouterConfig
	shards []*shardState

	// Geometry handshake state: infos collects per-shard self-reports
	// under geoMu until all are known; geo publishes the validated whole.
	geoMu sync.Mutex
	geo   atomic.Pointer[geometry]
	infos []*shardInfo

	client *http.Client
	rng    atomic.Uint64 // splitmix64 state for backoff jitter

	// Counters for /stats (monotonic).
	hedges         atomic.Int64 // hedged second requests launched
	retried        atomic.Int64 // backoff retries
	ejections      atomic.Int64 // replicas ejected
	reinstatements atomic.Int64 // replicas reinstated
	partials       atomic.Int64 // responses answered with shards_missing

	srv   *server.Server // serves routerView; owns the listener and the drain
	front http.Handler   // /healthz and /stats; everything else goes to srv
}

// NewRouter validates the topology and assembles the router. The returned
// router has not handshaken with the workers yet: geometry completes
// lazily on the first request (or via ProbeOnce / the Run probe loop),
// and the router answers 503 until it does.
//
// A SIGHUP to Run re-opens the view, which re-reads nothing: the topology
// is fixed for the router's lifetime and the geometry is the workers'.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	byShard := cfg.Topology.byShard()
	rt := &Router{
		cfg:    cfg,
		shards: make([]*shardState, len(byShard)),
		infos:  make([]*shardInfo, len(byShard)),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}},
	}
	for s, addrs := range byShard {
		ss := &shardState{id: s, replicas: make([]*replica, len(addrs))}
		for i, addr := range addrs {
			ss.replicas[i] = &replica{addr: addr}
		}
		rt.shards[s] = ss
	}
	srv, err := server.New(server.Config{
		IndexPath:      fmt.Sprintf("%d routed shards", len(byShard)),
		Addr:           cfg.Addr,
		DefaultTimeout: cfg.DefaultTimeout,
		MaxTimeout:     cfg.MaxTimeout,
		DrainTimeout:   cfg.DrainTimeout,
		Logf:           cfg.Logf,
		Open:           func(string) (server.Queryable, error) { return routerView{rt}, nil },
	})
	if err != nil {
		return nil, err
	}
	rt.srv = srv
	rt.front = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet || r.Method == http.MethodHead {
			switch r.URL.Path {
			case "/healthz":
				rt.handleHealthz(w, r)
				return
			case "/stats":
				rt.handleStats(w, r)
				return
			}
		}
		srv.Handler().ServeHTTP(w, r)
	})
	srv.SetHandler(rt.front)
	return rt, nil
}

// NumShards returns the number of shards in the routed topology.
func (rt *Router) NumShards() int { return len(rt.shards) }

// Handler returns the router's HTTP handler for tests and benchmarks that
// bring their own listener.
func (rt *Router) Handler() http.Handler { return rt.front }

// Ready reports whether the geometry handshake has completed.
func (rt *Router) Ready() bool { return rt.geo.Load() != nil }

// --- transport: one attempt, hedged attempt, retry loop ---

// smallReplyLimit bounds every worker reply but box and pages replies: a
// rank, a point, a shard description, a health answer or an error line.
const smallReplyLimit = 64 << 10

// intWidth is the widest decimal int on the wire, "-9223372036854775808",
// plus the separator after it.
const intWidth = 21

// boxReplyLimit bounds shard s's box reply by the largest honest one:
// every record of the shard as a row of 1+d integers.
func (g *geometry) boxReplyLimit(s int) int64 {
	return smallReplyLimit + int64(g.records[s])*(int64(1+g.d)*intWidth+2)
}

// pagesReplyLimit bounds a pages reply by the largest honest one: one run
// per page of the rank space.
func (g *geometry) pagesReplyLimit() int64 {
	return smallReplyLimit + int64(g.numPages)*(2*intWidth+2)
}

// do performs one HTTP exchange with one replica: GET when body is nil,
// POST otherwise, bounded by ctx, body fully read. A reply longer than
// limit bytes is an error, so a faulty worker cannot make the router
// buffer an endless body. The router.dial fault point fires before the
// request leaves, so chaos tests can fail or stall individual dials on
// the fan-out path.
func (rt *Router) do(ctx context.Context, rep *replica, path string, body []byte, limit int64) ([]byte, int, error) {
	faultinject.Fire(faultinject.PointRouterDial)
	method := http.MethodGet
	var rd io.Reader
	if body != nil {
		method = http.MethodPost
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+rep.addr+path, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := readReply(resp, limit)
	resp.Body.Close()
	if err != nil {
		// A connection severed mid-body (worker killed mid-write) or an
		// oversized reply lands here: the reply never reaches a merge.
		return nil, 0, fmt.Errorf("cluster: replica %s: %w", rep.addr, err)
	}
	return data, resp.StatusCode, nil
}

// readReply reads resp's body, failing once it exceeds limit bytes. A
// declared Content-Length sizes the buffer exactly (the transport holds
// the body to it); a chunked body is read through a limit.
func readReply(resp *http.Response, limit int64) ([]byte, error) {
	if resp.ContentLength > limit {
		return nil, fmt.Errorf("reply of %d bytes exceeds the %d-byte limit", resp.ContentLength, limit)
	}
	if resp.ContentLength >= 0 {
		data := make([]byte, resp.ContentLength)
		_, err := io.ReadFull(resp.Body, data)
		return data, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err == nil && int64(len(data)) > limit {
		err = fmt.Errorf("reply exceeds the %d-byte limit", limit)
	}
	return data, err
}

// attemptResult is one replica's answer inside a hedged attempt.
type attemptResult struct {
	rep    *replica
	data   []byte
	status int
	err    error
}

// attemptHedged runs one bounded attempt against primary, racing a hedged
// request against backup when primary has not answered within HedgeAfter.
// First success wins; the shared attempt context is canceled on return,
// aborting the loser. Failures (transport errors and 5xx) mark the
// replica; a canceled loser marks nothing.
func (rt *Router) attemptHedged(ctx context.Context, primary, backup *replica, path string, body []byte, limit int64) ([]byte, int, error) {
	actx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	ch := make(chan attemptResult, 2) // buffered: a canceled loser's send never blocks
	launch := func(rep *replica) {
		go func() {
			data, status, err := rt.do(actx, rep, path, body, limit)
			ch <- attemptResult{rep, data, status, err}
		}()
	}
	launch(primary)
	outstanding := 1
	var hedgeC <-chan time.Time
	if backup != nil {
		t := time.NewTimer(rt.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var firstErr error
	for outstanding > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			faultinject.Fire(faultinject.PointRouterHedge)
			rt.hedges.Add(1)
			launch(backup)
			outstanding++
		case res := <-ch:
			outstanding--
			if res.err == nil && res.status < http.StatusInternalServerError {
				res.rep.succeed(rt)
				return res.data, res.status, nil
			}
			// Don't hold a replica's health hostage to the caller's clock:
			// an attempt cut short because the REQUEST deadline (not the
			// attempt budget) expired says nothing about the replica.
			if ctx.Err() == nil {
				res.rep.fail(rt)
			}
			err := res.err
			if err == nil {
				err = fmt.Errorf("cluster: replica %s answered status %d", res.rep.addr, res.status)
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return nil, 0, firstErr
}

// fetch resolves one logical exchange with shard s: replicas are tried
// healthy-first in rotation, each attempt is hedged and bounded, and
// failed attempts retry against the next replica after a jittered
// exponential backoff. 2xx–4xx statuses return to the caller (the workers
// validate with the same rules the router does, so a 4xx is the client's
// to see); transport errors and 5xx burn the attempt.
func (rt *Router) fetch(ctx context.Context, s int, path string, body []byte, limit int64) ([]byte, int, error) {
	ss := rt.shards[s]
	reps := ss.order(make([]*replica, 0, len(ss.replicas)))
	var lastErr error
	for attempt := 0; attempt <= rt.cfg.Retries; attempt++ {
		if attempt > 0 {
			rt.retried.Add(1)
			if err := rt.backoff(ctx, attempt); err != nil {
				break // request deadline died waiting to retry
			}
		}
		primary := reps[attempt%len(reps)]
		var backup *replica
		if len(reps) > 1 {
			backup = reps[(attempt+1)%len(reps)]
		}
		data, status, err := rt.attemptHedged(ctx, primary, backup, path, body, limit)
		if err == nil {
			return data, status, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	return nil, 0, fmt.Errorf("cluster: shard %d unreachable: %w", s, lastErr)
}

// backoff sleeps the jittered exponential retry delay (ctx-bounded):
// BackoffBase doubles per retry and lands uniformly in [0.5x, 1.5x) so
// synchronized retries de-correlate.
func (rt *Router) backoff(ctx context.Context, attempt int) error {
	base := rt.cfg.BackoffBase << (attempt - 1)
	d := base/2 + time.Duration(rt.rand64()%uint64(base))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// rand64 draws from a lock-free splitmix64 sequence — cheap, contention
// free, and good enough to de-correlate retry storms.
func (rt *Router) rand64() uint64 {
	x := rt.rng.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// --- fan-out planning and merging ---

// boxPart is one shard's slice of a box query: the clipped box to send
// and the reply slot to fill.
type boxPart struct {
	shard       int
	start, dims []int
	ranks       []int // parsed reply: global ranks, ascending
	coords      []int // parsed reply: flat d-stride global coordinates
	runs        []spectrallpm.PageRun
	err         error
}

// planParts clips the box against every shard's bounds, returning one
// part per intersecting shard, in rank-block order. Grid shards tile the
// domain so parts are disjoint; point-set shard boxes may overlap, which
// is fine — each worker returns only its own points, and rank blocks stay
// disjoint.
func (g *geometry) planParts(start, dims []int) []*boxPart {
	parts := make([]*boxPart, 0, len(g.offset))
	for _, s := range g.blockOrder {
		cs, cd := make([]int, g.d), make([]int, g.d)
		if !shard.ClipBox(start, dims, g.lo[s], g.hi[s], cs, cd) {
			continue
		}
		parts = append(parts, &boxPart{shard: s, start: cs, dims: cd})
	}
	return parts
}

// appendBoxBody encodes {"start":[...],"dims":[...]} for a worker.
func appendBoxBody(b []byte, start, dims []int) []byte {
	b = append(b, `{"start":`...)
	b = server.AppendIntArray(b, start)
	b = append(b, `,"dims":`...)
	b = server.AppendIntArray(b, dims)
	return append(b, '}')
}

// fanOut runs fn for every part concurrently and waits. Each fn owns its
// part exclusively; the caller reads the parts only after fanOut returns.
func fanOut(parts []*boxPart, fn func(p *boxPart)) {
	if len(parts) == 1 {
		fn(parts[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(parts))
	for _, p := range parts {
		go func(p *boxPart) {
			defer wg.Done()
			fn(p)
		}(p)
	}
	wg.Wait()
}

// fetchPart resolves one shard's slice of a box query into a validated
// part: its rows when rows is set, else its page runs.
func (rt *Router) fetchPart(ctx context.Context, g *geometry, p *boxPart, rows bool) {
	path, limit := "/v1/pages", g.pagesReplyLimit()
	if rows {
		path, limit = "/v1/box", g.boxReplyLimit(p.shard)
	}
	data, status, err := rt.fetch(ctx, p.shard, path, appendBoxBody(nil, p.start, p.dims), limit)
	switch {
	case err != nil:
		p.err = err
	case status != http.StatusOK:
		p.err = fmt.Errorf("cluster: shard %d answered status %d: %s", p.shard, status, bytes.TrimSpace(data))
	case rows:
		p.err = g.parseBoxReply(p.shard, data, p)
	default:
		p.err = g.parsePagesReply(p.shard, data, p)
	}
}

// mergeRuns appends to dst the global plan the per-shard page-run plans
// coalesce into: runs sorted by start page, adjacent or overlapping runs
// fused (next.Start <= cur.End+1, end extends to the max) — exactly the
// adjacency rule Pager.RunsAppend uses, so the merged plan matches what
// the monolithic index would have planned. Shard rank blocks can split
// mid-page, so two shards may both touch a boundary page; the overlap
// fuses here rather than double-counting.
func mergeRuns(dst []spectrallpm.PageRun, parts []*boxPart) []spectrallpm.PageRun {
	total := 0
	for _, p := range parts {
		total += len(p.runs)
	}
	if total == 0 {
		return dst
	}
	all := make([]spectrallpm.PageRun, 0, total)
	for _, p := range parts {
		all = append(all, p.runs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	cur := all[0]
	for _, r := range all[1:] {
		curEnd := cur.Start + cur.Pages - 1
		if r.Start <= curEnd+1 {
			if end := r.Start + r.Pages - 1; end > curEnd {
				cur.Pages = end - cur.Start + 1
			}
			continue
		}
		dst = append(dst, cur)
		cur = r
	}
	return append(dst, cur)
}

// statsFromRuns derives the monolithic IOStats from a merged run plan:
// distinct pages, one seek per run, span from first to last page.
func statsFromRuns(runs []spectrallpm.PageRun) spectrallpm.IOStats {
	var st spectrallpm.IOStats
	if len(runs) == 0 {
		return st
	}
	for _, r := range runs {
		st.Pages += r.Pages
	}
	st.Seeks = len(runs)
	last := runs[len(runs)-1]
	st.SpanPages = last.Start + last.Pages - runs[0].Start
	return st
}

// gather fans box b out to the shards it intersects (see fetchPart) and
// returns the parts that answered, in rank-block order, with the sorted
// ids of the shards that did not. In strict mode a missing shard fails the
// query with ErrUpstream instead.
func (rt *Router) gather(ctx context.Context, g *geometry, b spectrallpm.Box, rows bool) (ok []*boxPart, missing []int, err error) {
	parts := g.planParts(b.Start, b.Dims)
	fanOut(parts, func(p *boxPart) { rt.fetchPart(ctx, g, p, rows) })
	ok = parts[:0]
	for _, p := range parts {
		if p.err == nil {
			ok = append(ok, p)
			continue
		}
		if !rt.cfg.Partial {
			return nil, nil, upstream(p.err)
		}
		missing = append(missing, p.shard)
	}
	sort.Ints(missing)
	return ok, missing, nil
}

// partial is the error a collection answer returns with: nil when every
// shard answered, else the spine's label for the missing ones.
func (rt *Router) partial(missing []int) error {
	if len(missing) == 0 {
		return nil
	}
	rt.partials.Add(1)
	return &server.ShardsMissingError{Shards: missing}
}

// upstream tags a fan-out failure for the spine: 502, or 504 when the
// request deadline is in its chain.
func upstream(err error) error { return fmt.Errorf("%w: %w", server.ErrUpstream, err) }

// workerError turns a worker's non-200 answer to a lookup into the error
// the daemon would have returned, so the spine answers the same status:
// 404 is ErrPointNotIndexed, 400 is badRequest, and anything else is an
// upstream failure.
func workerError(s, status int, body []byte, badRequest error) error {
	kind := server.ErrUpstream
	switch status {
	case http.StatusNotFound:
		kind = spectrallpm.ErrPointNotIndexed
	case http.StatusBadRequest:
		kind = badRequest
	}
	return fmt.Errorf("cluster: shard %d answered status %d: %s: %w", s, status, bytes.TrimSpace(body), kind)
}

func appendCoordsBody(b []byte, coords []int) []byte {
	b = append(b, `{"coords":`...)
	b = server.AppendIntArray(b, coords)
	return append(b, '}')
}

func appendRankBody(b []byte, rank int) []byte {
	b = append(b, `{"rank":`...)
	b = server.AppendInt(b, rank)
	return append(b, '}')
}

// --- the router as a server.Queryable ---

// routerView presents the router's remote shards as a server.Queryable.
// Every query resolves the geometry (ErrWarming until the handshake
// completes), then validates, plans, fans out and merges.
type routerView struct{ rt *Router }

var noGeometry geometry // the shape before the handshake completes

func (v routerView) published() *geometry {
	if g := v.rt.geo.Load(); g != nil {
		return g
	}
	return &noGeometry
}

func (v routerView) N() int              { return v.published().total }
func (v routerView) D() int              { return v.published().d }
func (v routerView) Dims() []int         { return v.published().dims }
func (v routerView) RecordsPerPage() int { return v.published().rpp }
func (v routerView) NumPages() int       { return v.published().numPages }

// Close is a no-op: the router owns no index data.
func (v routerView) Close() error { return nil }

// frame resolves the geometry a query is planned against, completing the
// handshake within ctx if need be.
func (v routerView) frame(ctx context.Context) (*geometry, error) {
	if g := v.rt.geometry(ctx); g != nil {
		return g, nil
	}
	return nil, fmt.Errorf("cluster: shard geometry incomplete: %w", server.ErrWarming)
}

// query resolves the geometry, validates box b and gathers its parts.
func (v routerView) query(ctx context.Context, b spectrallpm.Box, rows bool) (*geometry, []*boxPart, []int, error) {
	g, err := v.frame(ctx)
	if err == nil {
		err = g.validateBox(b.Start, b.Dims)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	ok, missing, err := v.rt.gather(ctx, g, b, rows)
	return g, ok, missing, err
}

// ScanIntoContext yields the box's records in global rank order. Shard rank
// blocks are disjoint and each part's ranks are checked to lie ascending in
// its shard's block, so that order is the parts' rows concatenated in
// block order.
func (v routerView) ScanIntoContext(ctx context.Context, b spectrallpm.Box, yield func(rank int, coords []int) bool) error {
	g, ok, missing, err := v.query(ctx, b, true)
	if err != nil {
		return err
	}
	for _, p := range ok {
		for i, rank := range p.ranks {
			if !yield(rank, p.coords[i*g.d:(i+1)*g.d]) {
				return v.rt.partial(missing)
			}
		}
	}
	return v.rt.partial(missing)
}

// PagesIntoContext appends the box's global page-run plan to dst.
func (v routerView) PagesIntoContext(ctx context.Context, b spectrallpm.Box, dst []spectrallpm.PageRun) ([]spectrallpm.PageRun, error) {
	_, ok, missing, err := v.query(ctx, b, false)
	if err != nil {
		return dst, err
	}
	return mergeRuns(dst, ok), v.rt.partial(missing)
}

// QueryIOContext derives the box's I/O stats from its merged page plan.
func (v routerView) QueryIOContext(ctx context.Context, b spectrallpm.Box) (spectrallpm.IOStats, error) {
	runs, err := v.PagesIntoContext(ctx, b, nil)
	return statsFromRuns(runs), err
}

// QueryBatchContext answers every box with the monolithic all-or-nothing
// contract: all boxes are validated before any fans out.
func (v routerView) QueryBatchContext(ctx context.Context, boxes []spectrallpm.Box) ([]spectrallpm.IOStats, error) {
	g, err := v.frame(ctx)
	if err != nil {
		return nil, err
	}
	for _, b := range boxes {
		if err := g.validateBox(b.Start, b.Dims); err != nil {
			return nil, err
		}
	}
	stats := make([]spectrallpm.IOStats, len(boxes))
	var missing []int
	for i, b := range boxes {
		ok, boxMissing, err := v.rt.gather(ctx, g, b, false)
		if err != nil {
			return nil, err
		}
		missing = append(missing, boxMissing...)
		stats[i] = statsFromRuns(mergeRuns(nil, ok))
	}
	slices.Sort(missing)
	return stats, v.rt.partial(slices.Compact(missing))
}

// RankContext asks the shards whose bounds hold coords. Grid shards tile
// the domain, so exactly one shard contains the point; point-set shard
// boxes may overlap, so every containing shard is a candidate and a 404
// means "keep asking".
func (v routerView) RankContext(ctx context.Context, coords ...int) (int, error) {
	g, err := v.frame(ctx)
	if err != nil {
		return 0, err
	}
	if err := g.validateCoords(coords); err != nil {
		return 0, err
	}
	body := appendCoordsBody(nil, coords)
	var lastErr error
	asked := false
	for s := range g.offset {
		if !g.contains(s, coords) {
			continue
		}
		asked = true
		data, status, err := v.rt.fetch(ctx, s, "/v1/rank", body, smallReplyLimit)
		if err != nil {
			lastErr = err
			if !g.points {
				break
			}
			continue
		}
		if status == http.StatusNotFound && g.points {
			continue // not in this candidate shard
		}
		if status != http.StatusOK {
			return 0, workerError(s, status, data, spectrallpm.ErrDimensionMismatch)
		}
		rank, err := g.parseRankReply(s, data)
		if err != nil {
			return 0, upstream(err)
		}
		return rank, nil
	}
	if lastErr != nil {
		// A scalar answer cannot be partial: an unreachable owner (or, for
		// point sets, any unreachable candidate once every reachable one
		// said "not here") is an error even in -partial mode.
		return 0, upstream(lastErr)
	}
	if !asked || g.points {
		return 0, fmt.Errorf("cluster: point %v not indexed: %w", coords, spectrallpm.ErrPointNotIndexed)
	}
	return 0, fmt.Errorf("cluster: no shard owns point %v: %w", coords, server.ErrUpstream)
}

// PointContext asks the shard whose rank block holds rank.
func (v routerView) PointContext(ctx context.Context, rank int) ([]int, error) {
	g, err := v.frame(ctx)
	if err != nil {
		return nil, err
	}
	if rank < 0 || rank >= g.total {
		return nil, fmt.Errorf("cluster: rank %d outside [0,%d): %w", rank, g.total, spectrallpm.ErrRankOutOfRange)
	}
	s := g.owner(rank)
	data, status, err := v.rt.fetch(ctx, s, "/v1/point", appendRankBody(nil, rank), smallReplyLimit)
	if err != nil {
		return nil, upstream(err)
	}
	if status != http.StatusOK {
		return nil, workerError(s, status, data, spectrallpm.ErrRankOutOfRange)
	}
	coords, err := g.parsePointReply(s, data, nil)
	if err != nil {
		return nil, upstream(err)
	}
	return coords, nil
}

// Rank and Point are RankContext and PointContext without a request
// deadline; each fetch attempt is still bounded by AttemptTimeout.
func (v routerView) Rank(coords ...int) (int, error) {
	return v.RankContext(context.Background(), coords...)
}
func (v routerView) Point(rank int) ([]int, error) { return v.PointContext(context.Background(), rank) }

// --- the router's own endpoints and lifecycle ---

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status, code := "ok", http.StatusOK
	switch {
	case rt.srv.Draining():
		status, code = "draining", http.StatusServiceUnavailable
	case !rt.Ready():
		status, code = "warming", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, `{"status":%q,"shards":%d}`, status, len(rt.shards))
}

func (rt *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	type replicaStats struct {
		Addr    string `json:"addr"`
		Ejected bool   `json:"ejected"`
		Fails   int32  `json:"consecutive_failures"`
	}
	type shardStats struct {
		Shard    int            `json:"shard"`
		Replicas []replicaStats `json:"replicas"`
	}
	resp := struct {
		Ready          bool         `json:"ready"`
		Draining       bool         `json:"draining"`
		Partial        bool         `json:"partial_mode"`
		Shards         []shardStats `json:"shards"`
		Hedges         int64        `json:"hedges"`
		Retries        int64        `json:"retries"`
		Ejections      int64        `json:"ejections"`
		Reinstatements int64        `json:"reinstatements"`
		Partials       int64        `json:"partial_responses"`
	}{
		Ready:          rt.Ready(),
		Draining:       rt.srv.Draining(),
		Partial:        rt.cfg.Partial,
		Shards:         make([]shardStats, len(rt.shards)),
		Hedges:         rt.hedges.Load(),
		Retries:        rt.retried.Load(),
		Ejections:      rt.ejections.Load(),
		Reinstatements: rt.reinstatements.Load(),
		Partials:       rt.partials.Load(),
	}
	for i, ss := range rt.shards {
		sr := shardStats{Shard: ss.id, Replicas: make([]replicaStats, len(ss.replicas))}
		for j, rep := range ss.replicas {
			sr.Replicas[j] = replicaStats{
				Addr:    rep.addr,
				Ejected: rep.ejected.Load(),
				Fails:   rep.fails.Load(),
			}
		}
		resp.Shards[i] = sr
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// Shutdown drains the router: /healthz answers 503 "draining", the
// listener stops accepting, and in-flight fan-outs finish within ctx's
// budget.
func (rt *Router) Shutdown(ctx context.Context) error { return rt.srv.Shutdown(ctx) }

// Run starts the probe loop (geometry handshake retries + ejected-replica
// reinstatement probes), then serves on the configured address through
// server.Server.Run until SIGTERM/SIGINT or ctx cancellation, then drains.
func (rt *Router) Run(ctx context.Context) error {
	rt.cfg.Logf("routing %d shards (partial=%v)", len(rt.shards), rt.cfg.Partial)
	pctx, stopProbes := context.WithCancel(ctx)
	defer stopProbes()
	rt.ProbeOnce(pctx) // kick the geometry handshake before the first request
	go rt.probeLoop(pctx)
	return rt.srv.Run(ctx)
}
