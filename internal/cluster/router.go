// The router: the cluster's query front end. It owns no index data — it
// holds the static replica topology, learns the shard geometry from the
// workers, and turns every query into a per-shard plan (ClipBox against
// each shard's bounds), a replicated network fan-out (per-attempt
// timeouts, hedged reads, jittered-backoff retries, health-aware replica
// rotation), and a k-way rank merge (storage.MergeSortedAppend) encoded
// through the same pooled protocol layer the single-node daemon uses.
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
//     correct, so an unreachable owner is always an error.
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
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
	"github.com/spectral-lpm/spectrallpm/internal/server/faultinject"
	"github.com/spectral-lpm/spectrallpm/internal/shard"
	"github.com/spectral-lpm/spectrallpm/internal/storage"
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
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "lpmserve-router: "+format+"\n", args...)
		}
	}
	return nil
}

// Router is the cluster front end. Create with NewRouter, serve with Run
// (or wire Handler into a test server), stop with Shutdown.
type Router struct {
	cfg    RouterConfig
	shards []*shardState

	// Geometry handshake state: infos collects per-shard self-reports
	// under geoMu until all are known; geo publishes the validated whole.
	geoMu sync.Mutex
	geo   atomic.Pointer[geometry]
	infos []*shardInfo

	client   *http.Client
	draining atomic.Bool
	rng      atomic.Uint64 // splitmix64 state for backoff jitter

	// Counters for /stats (monotonic).
	hedges         atomic.Int64 // hedged second requests launched
	retried        atomic.Int64 // backoff retries
	ejections      atomic.Int64 // replicas ejected
	reinstatements atomic.Int64 // replicas reinstated
	partials       atomic.Int64 // responses answered with shards_missing

	mux  *http.ServeMux
	http *http.Server
	ln   net.Listener
}

// NewRouter validates the topology and assembles the router. The returned
// router has not handshaken with the workers yet: geometry completes
// lazily on the first request (or via ProbeOnce / the Run probe loop),
// and the router answers 503 until it does.
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
	rt.mux = http.NewServeMux()
	rt.routes()
	rt.http = &http.Server{Handler: rt.mux}
	return rt, nil
}

// NumShards returns the number of shards in the routed topology.
func (rt *Router) NumShards() int { return len(rt.shards) }

// Handler returns the router's HTTP handler for tests and benchmarks that
// bring their own listener.
func (rt *Router) Handler() http.Handler { return rt.mux }

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
// part per intersecting shard. Grid shards tile the domain so parts are
// disjoint; point-set shard boxes may overlap, which is fine — each
// worker returns only its own points, and rank blocks stay disjoint.
func (g *geometry) planParts(start, dims []int) []*boxPart {
	parts := make([]*boxPart, 0, len(g.offset))
	for s := range g.offset {
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

// fetchBoxPart resolves one shard's slice of a box query into validated
// ranks and coordinates.
func (rt *Router) fetchBoxPart(ctx context.Context, g *geometry, p *boxPart) {
	body := appendBoxBody(nil, p.start, p.dims)
	data, status, err := rt.fetch(ctx, p.shard, "/v1/box", body, g.boxReplyLimit(p.shard))
	if err != nil {
		p.err = err
		return
	}
	if status != http.StatusOK {
		p.err = fmt.Errorf("cluster: shard %d answered status %d: %s", p.shard, status, bytes.TrimSpace(data))
		return
	}
	p.err = g.parseBoxReply(p.shard, data, p)
}

// fetchPagesPart resolves one shard's slice of a pages query into a
// validated run list.
func (rt *Router) fetchPagesPart(ctx context.Context, g *geometry, p *boxPart) {
	body := appendBoxBody(nil, p.start, p.dims)
	data, status, err := rt.fetch(ctx, p.shard, "/v1/pages", body, g.pagesReplyLimit())
	if err != nil {
		p.err = err
		return
	}
	if status != http.StatusOK {
		p.err = fmt.Errorf("cluster: shard %d answered status %d: %s", p.shard, status, bytes.TrimSpace(data))
		return
	}
	p.err = g.parsePagesReply(p.shard, data, p)
}

// splitParts separates succeeded parts from failed ones, returning the
// sorted shard ids of the failures.
func splitParts(parts []*boxPart) (ok []*boxPart, missing []int, firstErr error) {
	ok = parts[:0]
	for _, p := range parts {
		if p.err != nil {
			missing = append(missing, p.shard)
			if firstErr == nil {
				firstErr = p.err
			}
			continue
		}
		ok = append(ok, p)
	}
	sort.Ints(missing)
	return ok, missing, firstErr
}

// mergeRuns coalesces per-shard page-run plans into the global plan:
// runs sorted by start page, adjacent or overlapping runs fused
// (next.Start <= cur.End+1, end extends to the max) — exactly the
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
		return dst[:0]
	}
	all := make([]spectrallpm.PageRun, 0, total)
	for _, p := range parts {
		all = append(all, p.runs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	dst = dst[:0]
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

// --- HTTP front ---

func (rt *Router) routes() {
	rt.mux.HandleFunc("POST /v1/rank", rt.handleRank)
	rt.mux.HandleFunc("POST /v1/point", rt.handlePoint)
	rt.mux.HandleFunc("POST /v1/box", rt.handleBox)
	rt.mux.HandleFunc("POST /v1/pages", rt.handlePages)
	rt.mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /stats", rt.handleStats)
}

// begin derives the request deadline and resolves the geometry, answering
// 503 (and returning nil) while the handshake is incomplete: without a
// validated frame the router cannot even tell a bad box from a good one.
func (rt *Router) begin(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, *geometry) {
	ctx, cancel := server.RequestContext(r, rt.cfg.DefaultTimeout, rt.cfg.MaxTimeout)
	g := rt.geometry(ctx)
	if g == nil {
		cancel()
		http.Error(w, "router warming up: shard geometry incomplete", http.StatusServiceUnavailable)
		return nil, nil, nil
	}
	return ctx, cancel, g
}

// writeUpstreamError maps a fan-out failure: the client's deadline died
// (504) or the shard's replicas are unreachable/torn (502).
func writeUpstreamError(w http.ResponseWriter, err error) {
	status := http.StatusBadGateway
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		status = http.StatusGatewayTimeout
	}
	http.Error(w, err.Error(), status)
}

// finish emits a fully built response buffer in one Write.
func finish(w http.ResponseWriter, buf []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.Write(buf)
}

func (rt *Router) handleBox(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, g := rt.begin(w, r)
	if g == nil {
		return
	}
	defer cancel()
	var req server.BoxRequest
	if err := server.DecodeRequest(r, &req); err != nil {
		http.Error(w, fmt.Sprintf("%v: %v", server.ErrBadRequest, err), http.StatusBadRequest)
		return
	}
	if err := g.validateBox(req.Start, req.Dims); err != nil {
		server.WriteError(w, err)
		return
	}
	parts := g.planParts(req.Start, req.Dims)
	fanOut(parts, func(p *boxPart) { rt.fetchBoxPart(ctx, g, p) })
	ok, missing, firstErr := splitParts(parts)
	if len(missing) > 0 && !rt.cfg.Partial {
		writeUpstreamError(w, firstErr)
		return
	}
	if len(missing) > 0 {
		rt.partials.Add(1)
	}
	// Merge the per-shard rank streams into global rank order. Shard rank
	// blocks are disjoint, so this is MergeSortedAppend's concatenation
	// fast path; the per-part cursors then walk each stream in lockstep
	// with the merged order to recover each rank's coordinates — the
	// stream whose cursor head equals the merged rank is its source
	// (unique, because the validated blocks are disjoint).
	streams := make([][]int, len(ok))
	total := 0
	for i, p := range ok {
		streams[i] = p.ranks
		total += len(p.ranks)
	}
	merged := storage.MergeSortedAppend(make([]int, 0, total), streams)
	cursors := make([]int, len(ok))
	ps := server.GetProto()
	defer ps.Put()
	var countAt int
	ps.Buf, countAt = server.AppendBoxHeader(ps.Buf)
	for i, rank := range merged {
		for pi := range ok {
			c := cursors[pi]
			if c < len(ok[pi].ranks) && ok[pi].ranks[c] == rank {
				cursors[pi]++
				ps.Buf = server.AppendBoxRow(ps.Buf, i == 0, rank, ok[pi].coords[c*g.d:(c+1)*g.d])
				break
			}
		}
	}
	ps.Buf = server.FinishBoxResponse(ps.Buf, countAt, len(merged), missing)
	finish(w, ps.Buf)
}

func (rt *Router) handlePages(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, g := rt.begin(w, r)
	if g == nil {
		return
	}
	defer cancel()
	var req server.BoxRequest
	if err := server.DecodeRequest(r, &req); err != nil {
		http.Error(w, fmt.Sprintf("%v: %v", server.ErrBadRequest, err), http.StatusBadRequest)
		return
	}
	if err := g.validateBox(req.Start, req.Dims); err != nil {
		server.WriteError(w, err)
		return
	}
	parts := g.planParts(req.Start, req.Dims)
	fanOut(parts, func(p *boxPart) { rt.fetchPagesPart(ctx, g, p) })
	ok, missing, firstErr := splitParts(parts)
	if len(missing) > 0 && !rt.cfg.Partial {
		writeUpstreamError(w, firstErr)
		return
	}
	if len(missing) > 0 {
		rt.partials.Add(1)
	}
	ps := server.GetProto()
	defer ps.Put()
	ps.Runs = mergeRuns(ps.Runs, ok)
	ps.Buf = server.AppendPagesResponse(ps.Buf, ps.Runs, missing)
	finish(w, ps.Buf)
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, g := rt.begin(w, r)
	if g == nil {
		return
	}
	defer cancel()
	var req server.BatchRequest
	if err := server.DecodeRequest(r, &req); err != nil {
		http.Error(w, fmt.Sprintf("%v: %v", server.ErrBadRequest, err), http.StatusBadRequest)
		return
	}
	if len(req.Boxes) == 0 {
		http.Error(w, fmt.Sprintf("%v: batch has no boxes", server.ErrBadRequest), http.StatusBadRequest)
		return
	}
	// All-or-nothing validation, matching the monolithic batch contract.
	for _, b := range req.Boxes {
		if err := g.validateBox(b.Start, b.Dims); err != nil {
			server.WriteError(w, err)
			return
		}
	}
	stats := make([]spectrallpm.IOStats, len(req.Boxes))
	var missing []int
	for i, b := range req.Boxes {
		parts := g.planParts(b.Start, b.Dims)
		fanOut(parts, func(p *boxPart) { rt.fetchPagesPart(ctx, g, p) })
		ok, boxMissing, firstErr := splitParts(parts)
		if len(boxMissing) > 0 && !rt.cfg.Partial {
			writeUpstreamError(w, firstErr)
			return
		}
		missing = mergeMissing(missing, boxMissing)
		stats[i] = statsFromRuns(mergeRuns(nil, ok))
	}
	if len(missing) > 0 {
		rt.partials.Add(1)
	}
	ps := server.GetProto()
	defer ps.Put()
	ps.Buf = server.AppendBatchResponse(ps.Buf, stats, missing)
	finish(w, ps.Buf)
}

// mergeMissing unions two sorted shard-id lists without duplicates.
func mergeMissing(dst, add []int) []int {
	for _, s := range add {
		i := sort.SearchInts(dst, s)
		if i < len(dst) && dst[i] == s {
			continue
		}
		dst = append(dst, 0)
		copy(dst[i+1:], dst[i:])
		dst[i] = s
	}
	return dst
}

func (rt *Router) handleRank(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, g := rt.begin(w, r)
	if g == nil {
		return
	}
	defer cancel()
	var req server.RankRequest
	if err := server.DecodeRequest(r, &req); err != nil {
		http.Error(w, fmt.Sprintf("%v: %v", server.ErrBadRequest, err), http.StatusBadRequest)
		return
	}
	if err := g.validateCoords(req.Coords); err != nil {
		server.WriteError(w, err)
		return
	}
	body := appendCoordsBody(nil, req.Coords)
	// Grid shards tile the domain, so exactly one shard contains the
	// point; point-set shard boxes may overlap, so every containing shard
	// is a candidate and a 404 means "keep asking".
	var lastErr error
	asked := false
	for s := range g.offset {
		if !g.contains(s, req.Coords) {
			continue
		}
		asked = true
		data, status, err := rt.fetch(ctx, s, "/v1/rank", body, smallReplyLimit)
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
			relay(w, status, data)
			return
		}
		rank, err := g.parseRankReply(s, data)
		if err != nil {
			writeUpstreamError(w, err)
			return
		}
		ps := server.GetProto()
		defer ps.Put()
		ps.Buf = server.AppendRankResponse(ps.Buf, rank)
		finish(w, ps.Buf)
		return
	}
	if lastErr != nil {
		// A scalar answer cannot be partial: an unreachable owner (or, for
		// point sets, any unreachable candidate once every reachable one
		// said "not here") is an error even in -partial mode.
		writeUpstreamError(w, lastErr)
		return
	}
	if !asked || g.points {
		http.Error(w, fmt.Sprintf("cluster: point %v not indexed: %v", req.Coords, spectrallpm.ErrPointNotIndexed), http.StatusNotFound)
		return
	}
	http.Error(w, "cluster: no shard owns the point", http.StatusBadGateway)
}

func (rt *Router) handlePoint(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, g := rt.begin(w, r)
	if g == nil {
		return
	}
	defer cancel()
	var req server.PointRequest
	if err := server.DecodeRequest(r, &req); err != nil {
		http.Error(w, fmt.Sprintf("%v: %v", server.ErrBadRequest, err), http.StatusBadRequest)
		return
	}
	if req.Rank < 0 || req.Rank >= g.total {
		http.Error(w, fmt.Sprintf("cluster: rank %d outside [0,%d): %v", req.Rank, g.total, spectrallpm.ErrRankOutOfRange), http.StatusBadRequest)
		return
	}
	s := g.owner(req.Rank)
	body := appendRankBody(nil, req.Rank)
	data, status, err := rt.fetch(ctx, s, "/v1/point", body, smallReplyLimit)
	if err != nil {
		writeUpstreamError(w, err)
		return
	}
	if status != http.StatusOK {
		relay(w, status, data)
		return
	}
	ps := server.GetProto()
	defer ps.Put()
	ps.Coords, err = g.parsePointReply(s, data, ps.Coords[:0])
	if err != nil {
		writeUpstreamError(w, err)
		return
	}
	ps.Buf = server.AppendPointResponse(ps.Buf, ps.Coords)
	finish(w, ps.Buf)
}

// relay passes a worker's non-200 answer through unchanged — the workers
// validate with the same rules the router does, so their 4xx diagnostics
// are the client's to see.
func relay(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	w.Write(body)
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

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	draining := rt.draining.Load()
	ready := rt.Ready()
	ps := server.GetProto()
	defer ps.Put()
	ps.Buf = append(ps.Buf, `{"status":"`...)
	switch {
	case draining:
		ps.Buf = append(ps.Buf, `draining`...)
	case !ready:
		ps.Buf = append(ps.Buf, `warming`...)
	default:
		ps.Buf = append(ps.Buf, `ok`...)
	}
	ps.Buf = append(ps.Buf, `","shards":`...)
	ps.Buf = server.AppendInt(ps.Buf, len(rt.shards))
	ps.Buf = append(ps.Buf, '}')
	w.Header().Set("Content-Type", "application/json")
	if draining || !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	w.Write(ps.Buf)
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
		Draining:       rt.draining.Load(),
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

// --- daemon lifecycle ---

// Shutdown drains the router: flip the health signal, stop accepting,
// let in-flight fan-outs finish within ctx's budget.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.draining.Store(true)
	err := rt.http.Shutdown(ctx)
	if err != nil {
		rt.http.Close()
	}
	return err
}

// Run listens on the configured address, starts the probe loop (geometry
// handshake retries + ejected-replica reinstatement probes), and serves
// until SIGTERM/SIGINT or ctx cancellation, then drains.
func (rt *Router) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", rt.cfg.Addr)
	if err != nil {
		return err
	}
	rt.ln = ln
	rt.cfg.Logf("routing %d shards on %s (partial=%v)", len(rt.shards), ln.Addr(), rt.cfg.Partial)
	pctx, stopProbes := context.WithCancel(ctx)
	defer stopProbes()
	rt.ProbeOnce(pctx) // kick the geometry handshake before the first request
	go rt.probeLoop(pctx)
	serveErr := make(chan error, 1)
	go func() { serveErr <- rt.http.Serve(ln) }()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sig)
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	case sg := <-sig:
		rt.cfg.Logf("%v: draining (budget %v)", sg, rt.cfg.DrainTimeout)
	}
	dctx, cancel := context.WithTimeout(context.Background(), rt.cfg.DrainTimeout)
	defer cancel()
	err = rt.Shutdown(dctx)
	<-serveErr
	if err != nil {
		return err
	}
	rt.cfg.Logf("drained cleanly")
	return nil
}

// Addr returns the bound listen address once Run has started listening.
func (rt *Router) Addr() net.Addr {
	if rt.ln == nil {
		return nil
	}
	return rt.ln.Addr()
}
