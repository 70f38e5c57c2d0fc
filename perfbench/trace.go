package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
)

// Spans are recorded only by the benchmark's own wrappers around the public
// entry points of each layer; nothing inside the program is instrumented.

// reqHeader carries the client's request id to the first server it hits.
// The router does not forward it, so worker spans attach to router spans by
// shard, request body and time overlap instead (see attachWorkers).
const reqHeader = "X-Bench-Req"

// span is one timed call at a layer boundary.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"` // span id, or -1 when resolved after the run
	Req    int64  `json:"req"`    // client request id, or -1 when not known at the boundary
	Srv    int    `json:"srv"`    // which server instance recorded it (-1: client, library)
	Key    string `json:"key,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pay no tracing cost. In traced runs
// on switches recording per window, so the same run also measures the
// untraced path for the overhead figure.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin opens a span while recording is on and returns the function that
// closes it.
func (t *tracer) begin(name string, parent int64, srv int) (end func()) {
	if !t.active() {
		return func() {}
	}
	id := t.next.Add(1)
	start := t.now()
	return func() {
		t.record(span{ID: id, Name: name, Start: start, End: t.now(), Parent: parent, Req: -1, Srv: srv})
	}
}

// timed runs fn inside a span, recorded even when the window is off: build
// replays and other one-off layer calls are traced whenever a tracer exists.
func (t *tracer) timed(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := t.now()
	fn()
	t.record(span{ID: t.next.Add(1), Name: name, Start: start, End: t.now(), Parent: -1, Req: -1, Srv: -1})
}

// snapshot returns the spans recorded so far, ordered by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanCtxKey struct{}

// parentOf returns the span id a handler middleware stored in ctx, or -1.
func parentOf(ctx context.Context) int64 {
	if ctx != nil {
		if id, ok := ctx.Value(spanCtxKey{}).(int64); ok {
			return id
		}
	}
	return -1
}

// middleware wraps a server's handler in a span. keepBody records the
// request body as the span key (worker spans need it to find their router
// span); it costs a body copy, paid only while the window is on.
func (t *tracer) middleware(name string, srv int, keepBody bool, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		id := t.next.Add(1)
		var key string
		if keepBody && r.Body != nil {
			body, err := io.ReadAll(r.Body)
			if err == nil {
				key = string(body)
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
		}
		req := int64(-1)
		if v := r.Header.Get(reqHeader); v != "" {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				req = n
			}
		}
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, id)))
		t.record(span{ID: id, Name: name, Start: start, End: t.now(), Parent: -1, Req: req, Srv: srv, Key: key})
	})
}

// tracedQuery wraps the Queryable a server opens (installed through
// server.Config.Open), timing every query method. Methods that take a
// context find their handler span there; Rank and Point are attached to the
// enclosing handler span of the same server after the run.
type tracedQuery struct {
	server.Queryable
	t    *tracer
	name string
	srv  int
}

func (q tracedQuery) Rank(coords ...int) (int, error) {
	end := q.t.begin(q.name, -1, q.srv)
	defer end()
	return q.Queryable.Rank(coords...)
}

func (q tracedQuery) Point(rank int) ([]int, error) {
	end := q.t.begin(q.name, -1, q.srv)
	defer end()
	return q.Queryable.Point(rank)
}

func (q tracedQuery) ScanIntoContext(ctx context.Context, b spectrallpm.Box, yield func(int, []int) bool) error {
	end := q.t.begin(q.name, parentOf(ctx), q.srv)
	defer end()
	return q.Queryable.ScanIntoContext(ctx, b, yield)
}

func (q tracedQuery) PagesIntoContext(ctx context.Context, b spectrallpm.Box, dst []spectrallpm.PageRun) ([]spectrallpm.PageRun, error) {
	end := q.t.begin(q.name, parentOf(ctx), q.srv)
	defer end()
	return q.Queryable.PagesIntoContext(ctx, b, dst)
}

func (q tracedQuery) QueryIOContext(ctx context.Context, b spectrallpm.Box) (spectrallpm.IOStats, error) {
	end := q.t.begin(q.name, parentOf(ctx), q.srv)
	defer end()
	return q.Queryable.QueryIOContext(ctx, b)
}

func (q tracedQuery) QueryBatchContext(ctx context.Context, boxes []spectrallpm.Box) ([]spectrallpm.IOStats, error) {
	end := q.t.begin(q.name, parentOf(ctx), q.srv)
	defer end()
	return q.Queryable.QueryBatchContext(ctx, boxes)
}

// tracedOpen wraps an opener so the open itself is a span and the opened
// index reports its queries.
func (t *tracer) tracedOpen(open func(string) (server.Queryable, error), queryName string, srv int) func(string) (server.Queryable, error) {
	if t == nil {
		return open
	}
	return func(path string) (server.Queryable, error) {
		var q server.Queryable
		var err error
		t.timed("codec.open_mapped", func() { q, err = open(path) })
		if err != nil {
			return nil, err
		}
		return tracedQuery{Queryable: q, t: t, name: queryName, srv: srv}, nil
	}
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children (a parallel fan-out) are counted
// once, so the result is the time the span spent outside every child.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// attachByContainment sets Parent on every orphan span (Parent == -1) of
// the given name to the latest-starting parent-named span of the same
// server whose interval contains it.
func attachByContainment(spans []span, childName, parentName string) {
	bySrv := map[int][]int{}
	for i, s := range spans {
		if s.Name == parentName {
			bySrv[s.Srv] = append(bySrv[s.Srv], i)
		}
	}
	for i := range spans {
		c := &spans[i]
		if c.Name != childName || c.Parent != -1 {
			continue
		}
		for _, pi := range bySrv[c.Srv] { // ordered by start
			p := spans[pi]
			if p.Start > c.Start {
				break
			}
			if p.End >= c.End {
				c.Parent = p.ID
			}
		}
	}
}
