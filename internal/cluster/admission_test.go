// Router admission and drain: the router serves through server.Server, so
// it sheds, expires and drains exactly like the daemon and the workers.
package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
)

// routerSlots and routerQueue are server.Config's admission defaults at
// GOMAXPROCS(1): 4×GOMAXPROCS in flight, 256 queued.
const routerSlots, routerQueue = 4, 256

// gatedFleet is a 2-shard fleet whose shard-0 worker holds every box
// request until open is called, counting the ones it sees.
type gatedFleet struct {
	rt      *Router
	box     string // a box inside shard 0 only
	seen    atomic.Int64
	release chan struct{}
	once    sync.Once
}

// newGatedFleet pins GOMAXPROCS(1) while the router is built, so its
// admission bounds are routerSlots and routerQueue.
func newGatedFleet(t *testing.T) *gatedFleet {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	path := filepath.Join(t.TempDir(), "sharded.slpm")
	writeShardedFile(t, path, 2, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	lo, _, _, _ := openOracle(t, path).ShardBounds(0)
	f := &gatedFleet{
		box:     boxBody(spectrallpm.Box{Start: lo, Dims: []int{1, 1}}),
		release: make(chan struct{}),
	}
	w0 := startWorker(t, path, 0, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/box" {
				f.seen.Add(1)
				<-f.release
			}
			h.ServeHTTP(w, r)
		})
	})
	w1 := startWorker(t, path, 1, nil)
	t.Cleanup(f.open) // runs before the workers' cleanups, which wait for held requests
	f.rt = startRouter(t, fullTopology([]*worker{w0, w1}, 2, 1), func(c *RouterConfig) {
		c.AttemptTimeout = time.Minute
		c.DefaultTimeout = time.Minute
		c.Retries = -1
	})
	handshake(t, f.rt)
	return f
}

func (f *gatedFleet) open() { f.once.Do(func() { close(f.release) }) }

// waitSeen polls until shard 0's worker holds n box requests.
func (f *gatedFleet) waitSeen(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.seen.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("worker holds %d box requests, want %d", f.seen.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// next waits for one answer, failing the test if none comes.
func next(t *testing.T, done <-chan *httptest.ResponseRecorder) *httptest.ResponseRecorder {
	t.Helper()
	select {
	case w := <-done:
		return w
	case <-time.After(10 * time.Second):
		t.Fatal("no answer within 10s")
		return nil
	}
}

// TestRouterShedsWhenSaturated fills the router's slots with requests held
// at a worker and its queue behind them: every request beyond both sheds
// at once with 429 and a Retry-After hint, and the rest complete once the
// worker lets go.
func TestRouterShedsWhenSaturated(t *testing.T) {
	f := newGatedFleet(t)
	const extra = 8
	const n = routerSlots + routerQueue + extra
	done := make(chan *httptest.ResponseRecorder, n)
	for i := 0; i < n; i++ {
		go func() { done <- rpost(f.rt, "/v1/box", f.box) }()
	}
	// Nothing admitted can finish while the worker holds it, so the first
	// answers are exactly the shed ones.
	for i := 0; i < extra; i++ {
		w := next(t, done)
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("answer %d while saturated: status %d body %q, want 429", i, w.Code, w.Body)
		}
		if w.Header().Get("Retry-After") == "" {
			t.Fatalf("429 without Retry-After: %v", w.Header())
		}
	}
	f.open()
	for i := extra; i < n; i++ {
		if w := next(t, done); w.Code != http.StatusOK {
			t.Fatalf("admitted request: status %d body %q", w.Code, w.Body)
		}
	}
	if got := f.seen.Load(); got != routerSlots+routerQueue {
		t.Fatalf("worker saw %d box requests, want %d", got, routerSlots+routerQueue)
	}
}

// TestRouterQueuedDeadline504 holds every slot, then queues a request with
// a short timeout_ms: it answers 504 when its deadline dies in the queue,
// and no worker ever sees it.
func TestRouterQueuedDeadline504(t *testing.T) {
	f := newGatedFleet(t)
	held := make(chan *httptest.ResponseRecorder, routerSlots)
	for i := 0; i < routerSlots; i++ {
		go func() { held <- rpost(f.rt, "/v1/box", f.box) }()
	}
	f.waitSeen(t, routerSlots)
	expired := make(chan *httptest.ResponseRecorder, 1)
	go func() { expired <- rpost(f.rt, "/v1/box?timeout_ms=50", f.box) }()
	if w := next(t, expired); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired in queue: status %d body %q, want 504", w.Code, w.Body)
	}
	f.open()
	for i := 0; i < routerSlots; i++ {
		if w := next(t, held); w.Code != http.StatusOK {
			t.Fatalf("held request: status %d body %q", w.Code, w.Body)
		}
	}
	if got := f.seen.Load(); got != routerSlots {
		t.Fatalf("worker saw %d box requests, want %d: the expired one reached it", got, routerSlots)
	}
}

// TestRouterDrainingHealthz pins the router's load-balancer signal: once
// Shutdown begins, /healthz answers 503 "draining" and /stats says so.
func TestRouterDrainingHealthz(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sharded.slpm")
	writeShardedFile(t, path, 2, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	w0, w1 := startWorker(t, path, 0, nil), startWorker(t, path, 1, nil)
	rt := startRouter(t, fullTopology([]*worker{w0, w1}, 2, 1), nil)
	handshake(t, rt)
	if w := rget(rt, "/healthz"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz while serving: %d %q", w.Code, w.Body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if w := rget(rt, "/healthz"); w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), `"status":"draining"`) {
		t.Fatalf("healthz after Shutdown: %d %q", w.Code, w.Body)
	}
	if w := rget(rt, "/stats"); !strings.Contains(w.Body.String(), `"draining":true`) {
		t.Fatalf("stats after Shutdown: %q", w.Body)
	}
}

// TestWorkerErrorKinds pins the mapping of a worker's non-200 lookup
// answer to the library error the daemon would return, so the spine
// answers the same status class with its own error line, which keeps the
// worker's reason.
func TestWorkerErrorKinds(t *testing.T) {
	cases := []struct {
		status     int
		badRequest error
		want       error
	}{
		{http.StatusNotFound, spectrallpm.ErrDimensionMismatch, spectrallpm.ErrPointNotIndexed},
		{http.StatusBadRequest, spectrallpm.ErrDimensionMismatch, spectrallpm.ErrDimensionMismatch},
		{http.StatusBadRequest, spectrallpm.ErrRankOutOfRange, spectrallpm.ErrRankOutOfRange},
		{http.StatusTooManyRequests, spectrallpm.ErrRankOutOfRange, server.ErrUpstream},
	}
	for _, tc := range cases {
		err := workerError(1, tc.status, []byte("worker says no\n"), tc.badRequest)
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), "worker says no") {
			t.Errorf("status %d: %q, want %v with the worker's reason", tc.status, err, tc.want)
		}
	}
}
