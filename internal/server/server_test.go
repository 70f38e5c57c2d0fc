package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// buildIndexBytes builds an index and returns its v2 serialization.
func buildIndexBytes(t testing.TB, opts ...spectrallpm.BuildOption) []byte {
	t.Helper()
	ix, err := spectrallpm.Build(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteToV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeIndexFile builds an index and persists it at path.
func writeIndexFile(t testing.TB, path string, opts ...spectrallpm.BuildOption) {
	t.Helper()
	if err := os.WriteFile(path, buildIndexBytes(t, opts...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// replaceFile installs data at path atomically via rename, the way a
// deployment must replace a served index: truncating the inode in place
// would yank pages out from under the old generation's live mapping.
func replaceFile(t testing.TB, path string, data []byte) {
	t.Helper()
	tmp := path + ".next"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// newTestServer assembles a quiet server over the index at path; mut may
// adjust the config before New.
func newTestServer(t testing.TB, path string, mut func(*Config)) *Server {
	t.Helper()
	checkGoroutineLeak(t)
	cfg := Config{
		IndexPath: path,
		Logf:      func(string, ...any) {},
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Index().Close() })
	return s
}

// post drives one request through the full handler stack.
func post(t testing.TB, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func get(t testing.TB, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func TestEndpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.slpm")
	writeIndexFile(t, path, spectrallpm.WithGrid(4, 4), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(4))
	s := newTestServer(t, path, nil)
	oracle, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	t.Run("rank_point_roundtrip", func(t *testing.T) {
		for r := 0; r < oracle.N(); r++ {
			coords, err := oracle.Point(r)
			if err != nil {
				t.Fatal(err)
			}
			w := post(t, s, "/v1/rank", fmt.Sprintf(`{"coords":[%d,%d]}`, coords[0], coords[1]))
			if w.Code != http.StatusOK {
				t.Fatalf("rank of %v: status %d body %q", coords, w.Code, w.Body)
			}
			var rr struct{ Rank int }
			if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
				t.Fatal(err)
			}
			if rr.Rank != r {
				t.Fatalf("rank of %v = %d, want %d", coords, rr.Rank, r)
			}
			w = post(t, s, "/v1/point", fmt.Sprintf(`{"rank":%d}`, r))
			if w.Code != http.StatusOK {
				t.Fatalf("point of %d: status %d body %q", r, w.Code, w.Body)
			}
			var pr struct{ Coords []int }
			if err := json.Unmarshal(w.Body.Bytes(), &pr); err != nil {
				t.Fatal(err)
			}
			if len(pr.Coords) != 2 || pr.Coords[0] != coords[0] || pr.Coords[1] != coords[1] {
				t.Fatalf("point of %d = %v, want %v", r, pr.Coords, coords)
			}
		}
	})

	t.Run("box", func(t *testing.T) {
		w := post(t, s, "/v1/box", `{"start":[1,1],"dims":[2,2]}`)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d body %q", w.Code, w.Body)
		}
		var resp struct {
			Count   int
			Results [][]int
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("invalid box JSON %q: %v", w.Body, err)
		}
		want := map[int][]int{}
		err := oracle.ScanIntoContext(context.Background(), spectrallpm.Box{Start: []int{1, 1}, Dims: []int{2, 2}},
			func(rank int, coords []int) bool {
				want[rank] = append([]int(nil), coords...)
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Count != len(want) || len(resp.Results) != len(want) {
			t.Fatalf("count %d with %d rows, want %d", resp.Count, len(resp.Results), len(want))
		}
		for _, row := range resp.Results {
			coords := want[row[0]]
			if coords == nil || row[1] != coords[0] || row[2] != coords[1] {
				t.Fatalf("row %v does not match oracle %v", row, coords)
			}
		}
	})

	t.Run("pages_and_batch", func(t *testing.T) {
		w := post(t, s, "/v1/pages", `{"start":[0,0],"dims":[4,4]}`)
		if w.Code != http.StatusOK {
			t.Fatalf("pages: status %d body %q", w.Code, w.Body)
		}
		var pagesResp struct{ Runs [][]int }
		if err := json.Unmarshal(w.Body.Bytes(), &pagesResp); err != nil {
			t.Fatal(err)
		}
		runs, err := oracle.PagesIntoContext(context.Background(), spectrallpm.Box{Start: []int{0, 0}, Dims: []int{4, 4}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pagesResp.Runs) != len(runs) {
			t.Fatalf("%d runs, want %d", len(pagesResp.Runs), len(runs))
		}
		for i, r := range runs {
			if pagesResp.Runs[i][0] != r.Start || pagesResp.Runs[i][1] != r.Pages {
				t.Fatalf("run %d = %v, want %+v", i, pagesResp.Runs[i], r)
			}
		}

		w = post(t, s, "/v1/batch", `{"boxes":[{"start":[0,0],"dims":[2,2]},{"start":[0,0],"dims":[4,4]}]}`)
		if w.Code != http.StatusOK {
			t.Fatalf("batch: status %d body %q", w.Code, w.Body)
		}
		var batchResp struct {
			Stats []struct {
				Pages     int `json:"pages"`
				Seeks     int `json:"seeks"`
				SpanPages int `json:"span_pages"`
			}
		}
		if err := json.Unmarshal(w.Body.Bytes(), &batchResp); err != nil {
			t.Fatal(err)
		}
		wantStats, err := oracle.QueryBatchContext(context.Background(), []spectrallpm.Box{
			{Start: []int{0, 0}, Dims: []int{2, 2}},
			{Start: []int{0, 0}, Dims: []int{4, 4}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(batchResp.Stats) != len(wantStats) {
			t.Fatalf("%d stats, want %d", len(batchResp.Stats), len(wantStats))
		}
		for i, st := range wantStats {
			got := batchResp.Stats[i]
			if got.Pages != st.Pages || got.Seeks != st.Seeks || got.SpanPages != st.SpanPages {
				t.Fatalf("stats %d = %+v, want %+v", i, got, st)
			}
		}
	})

	t.Run("healthz_and_stats", func(t *testing.T) {
		w := get(t, s, "/healthz")
		if w.Code != http.StatusOK {
			t.Fatalf("healthz: status %d", w.Code)
		}
		var h struct {
			Status     string
			Generation int
			Records    int
		}
		if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
			t.Fatal(err)
		}
		if h.Status != "ok" || h.Generation != 1 || h.Records != 16 {
			t.Fatalf("healthz = %+v", h)
		}
		w = get(t, s, "/stats")
		if w.Code != http.StatusOK {
			t.Fatalf("stats: status %d", w.Code)
		}
		var st struct {
			Accepted int64
			Shed     int64
		}
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Accepted == 0 {
			t.Fatalf("stats reports zero accepted requests after %+v", st)
		}
	})
}

func TestErrorMapping(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.slpm")
	writeIndexFile(t, path, spectrallpm.WithGrid(4, 4), spectrallpm.WithPageSize(4))
	s := newTestServer(t, path, nil)
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"malformed_json", "/v1/rank", `{"coords":`, http.StatusBadRequest},
		{"dimension_mismatch", "/v1/rank", `{"coords":[1,2,3]}`, http.StatusBadRequest},
		{"rank_out_of_range", "/v1/point", `{"rank":99}`, http.StatusBadRequest},
		{"box_dim_mismatch", "/v1/box", `{"start":[0],"dims":[1]}`, http.StatusBadRequest},
		{"batch_bad_box", "/v1/batch", `{"boxes":[{"start":[0,0],"dims":[1]}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, tc.path, tc.body)
			if w.Code != tc.want {
				t.Fatalf("status %d body %q, want %d", w.Code, w.Body, tc.want)
			}
			if strings.HasPrefix(w.Body.String(), "{") {
				t.Fatalf("error response carries a JSON body: %q", w.Body)
			}
		})
	}
	t.Run("wrong_method", func(t *testing.T) {
		if w := get(t, s, "/v1/rank"); w.Code != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/rank: status %d", w.Code)
		}
	})
}

func TestServeSharded(t *testing.T) {
	sx, err := spectrallpm.BuildSharded(context.Background(), 4,
		spectrallpm.WithGrid(8, 8), spectrallpm.WithSeed(3), spectrallpm.WithPageSize(4))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sharded.slpm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sx.WriteToV2(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, path, nil)
	for r := 0; r < 64; r += 7 {
		coords, err := sx.Point(r)
		if err != nil {
			t.Fatal(err)
		}
		w := post(t, s, "/v1/rank", fmt.Sprintf(`{"coords":[%d,%d]}`, coords[0], coords[1]))
		if w.Code != http.StatusOK {
			t.Fatalf("rank of %v: status %d body %q", coords, w.Code, w.Body)
		}
		var rr struct{ Rank int }
		if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Rank != r {
			t.Fatalf("rank of %v = %d, want %d", coords, rr.Rank, r)
		}
	}
}

// TestServeV1Golden: Open still serves an index file in the v1 JSON
// format, and answers a box exactly as it does from the v2 file of the
// same index.
func TestServeV1Golden(t *testing.T) {
	for name, box := range map[string]string{
		"hilbert_4x4": `{"start":[0,0],"dims":[4,4]}`,
		"points_k2":   `{"start":[0,0],"dims":[1,2]}`,
	} {
		t.Run(name, func(t *testing.T) {
			var bodies []string
			for _, version := range []string{"v1", "v2"} {
				path := filepath.Join("..", "..", "testdata", "index_"+version+"_"+name+".golden")
				s := newTestServer(t, path, nil)
				w := post(t, s, "/v1/box", box)
				if w.Code != http.StatusOK || strings.Contains(w.Body.String(), `"count":0`) {
					t.Fatalf("%s: status %d body %q", version, w.Code, w.Body)
				}
				bodies = append(bodies, w.Body.String())
			}
			if bodies[0] != bodies[1] {
				t.Errorf("v1 box body differs from v2:\n v1: %s\n v2: %s", bodies[0], bodies[1])
			}
		})
	}
}

// TestReloadCorruptRejected flips bytes in the served file and SIGHUPs (via
// Reload): the replacement must be rejected while the old index keeps
// serving, generation unchanged.
func TestReloadCorruptRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.slpm")
	writeIndexFile(t, path, spectrallpm.WithGrid(4, 4), spectrallpm.WithPageSize(4))
	s := newTestServer(t, path, nil)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), good...)
	for i := len(corrupt) / 2; i < len(corrupt)/2+8 && i < len(corrupt); i++ {
		corrupt[i] ^= 0xff
	}
	replaceFile(t, path, corrupt)
	if err := s.Reload(); err == nil {
		t.Fatal("reload of corrupt file succeeded")
	}
	if s.Generation() != 1 {
		t.Fatalf("generation moved to %d after rejected reload", s.Generation())
	}
	if w := post(t, s, "/v1/rank", `{"coords":[0,0]}`); w.Code != http.StatusOK {
		t.Fatalf("old index stopped serving after rejected reload: status %d", w.Code)
	}
	// Truncated-to-nothing and version-garbage files must also be rejected.
	for _, bad := range [][]byte{nil, []byte("SLPMIX9\n"), good[:16]} {
		replaceFile(t, path, bad)
		if err := s.Reload(); err == nil {
			t.Fatalf("reload of %d-byte garbage succeeded", len(bad))
		}
	}
	replaceFile(t, path, good)
	if err := s.Reload(); err != nil {
		t.Fatalf("reload of restored file failed: %v", err)
	}
	if s.Generation() != 2 {
		t.Fatalf("generation %d after one successful reload", s.Generation())
	}
}

// TestReloadOracle is the hot-reload torn-mix oracle: two differently
// sized grids alternate under concurrent box queries, and every response
// must byte-match the response one of the two indexes would give — never
// a blend.
func TestReloadOracle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.slpm")
	bytesA := buildIndexBytes(t, spectrallpm.WithGrid(4, 4), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(4))
	bytesB := buildIndexBytes(t, spectrallpm.WithGrid(8, 8), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(4))
	if err := os.WriteFile(path, bytesA, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, path, func(c *Config) { c.DefaultTimeout = time.Minute })

	// Render the two oracle responses through a scratch server each, so the
	// encoding (and therefore the byte comparison) is exact.
	oracleBody := func(raw []byte) string {
		p := filepath.Join(dir, fmt.Sprintf("oracle-%d.slpm", len(raw)))
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		osrv := newTestServer(t, p, nil)
		w := post(t, osrv, "/v1/box", `{"start":[0,0],"dims":[4,4]}`)
		if w.Code != http.StatusOK {
			t.Fatalf("oracle query: status %d body %q", w.Code, w.Body)
		}
		return w.Body.String()
	}
	wantA := oracleBody(bytesA)
	wantB := oracleBody(bytesB)
	if wantA == wantB {
		t.Fatal("oracle responses coincide; test would prove nothing")
	}

	const workers = 8
	stop := make(chan struct{})
	var torn atomic.Int64
	var unavailable atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Yield between requests. These workers never block on I/O
				// (httptest drives the handler in-process), so on a single-P
				// runtime their admission-channel handoffs monopolize the
				// scheduler's runnext slot and can starve another RUNNABLE
				// goroutine — a mid-query borrower or the reload's closer —
				// for the rest of the test. Real servers park in the
				// netpoller on every request, which breaks such chains; the
				// explicit yield restores that fairness here.
				runtime.Gosched()
				w := post(t, s, "/v1/box", `{"start":[0,0],"dims":[4,4]}`)
				switch w.Code {
				case http.StatusOK:
					if body := w.Body.String(); body != wantA && body != wantB {
						torn.Add(1)
						t.Errorf("torn 200 body: %q", body)
					}
				case http.StatusServiceUnavailable:
					// Retry budget exhausted under the reload storm; the
					// client would retry. Never a wrong answer.
					unavailable.Add(1)
				default:
					torn.Add(1)
					t.Errorf("torn status %d body %q", w.Code, w.Body)
				}
			}
		}()
	}
	for cycle := 0; cycle < 25; cycle++ {
		raw := bytesB
		if cycle%2 == 1 {
			raw = bytesA
		}
		replaceFile(t, path, raw)
		if err := s.Reload(); err != nil {
			t.Fatalf("reload cycle %d: %v", cycle, err)
		}
	}
	close(stop)
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d responses matched neither oracle (torn reload)", n)
	}
	if s.Generation() != 26 {
		t.Fatalf("generation %d after 25 reloads", s.Generation())
	}
	t.Logf("clean: 0 torn, %d retry-exhausted 503s", unavailable.Load())
}

// TestReloadCycleNoLeak runs 100 reload cycles under light query load and
// checks neither goroutines nor mapped regions accumulate — the old
// generation's mmap must be released every cycle.
func TestReloadCycleNoLeak(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.slpm")
	writeIndexFile(t, path, spectrallpm.WithGrid(8, 8), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(4))
	s := newTestServer(t, path, nil)

	mappings := func() int {
		if runtime.GOOS != "linux" {
			return 0
		}
		raw, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			return 0
		}
		return bytes.Count(raw, []byte{'\n'})
	}
	goroutines := runtime.NumGoroutine()
	maps := mappings()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			post(t, s, "/v1/box", `{"start":[0,0],"dims":[8,8]}`)
		}
	}()
	for cycle := 0; cycle < 100; cycle++ {
		if err := s.Reload(); err != nil {
			t.Fatalf("reload cycle %d: %v", cycle, err)
		}
	}
	close(stop)
	wg.Wait()

	if w := post(t, s, "/v1/rank", `{"coords":[0,0]}`); w.Code != http.StatusOK {
		t.Fatalf("serving broken after 100 reloads: status %d body %q", w.Code, w.Body)
	}
	if g := runtime.NumGoroutine(); g > goroutines+3 {
		t.Fatalf("goroutines grew %d -> %d across 100 reload cycles", goroutines, g)
	}
	if m := mappings(); maps > 0 && m > maps+8 {
		t.Fatalf("mapped regions grew %d -> %d across 100 reload cycles", maps, m)
	}
}

// TestShutdownIdle drains an idle server cleanly and closes the index.
func TestShutdownIdle(t *testing.T) {
	checkGoroutineLeak(t)
	path := filepath.Join(t.TempDir(), "idx.slpm")
	writeIndexFile(t, path, spectrallpm.WithGrid(4, 4), spectrallpm.WithPageSize(4))
	cfg := Config{IndexPath: path, Logf: func(string, ...any) {}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("idle shutdown: %v", err)
	}
	// The index is closed: direct use reports ErrIndexClosed-driven 503
	// after the retry loop (the handle cannot be replaced post-shutdown).
	if w := post(t, s, "/v1/rank", `{"coords":[0,0]}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown query: status %d, want 503", w.Code)
	}
}

// TestTimeoutParamClamped checks timeout_ms is honored and clamped.
func TestTimeoutParamClamped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.slpm")
	writeIndexFile(t, path, spectrallpm.WithGrid(4, 4), spectrallpm.WithPageSize(4))
	s := newTestServer(t, path, func(c *Config) {
		c.DefaultTimeout = 50 * time.Millisecond
		c.MaxTimeout = 100 * time.Millisecond
	})
	ctx, cancel := s.requestContext(httptest.NewRequest(http.MethodPost, "/v1/rank?timeout_ms=600000", nil))
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok {
		t.Fatal("no deadline derived")
	}
	if rem := time.Until(dl); rem > 150*time.Millisecond {
		t.Fatalf("client timeout not clamped: %v remaining", rem)
	}
	ctx2, cancel2 := s.requestContext(httptest.NewRequest(http.MethodPost, "/v1/rank", nil))
	defer cancel2()
	dl2, _ := ctx2.Deadline()
	if rem := time.Until(dl2); rem > 80*time.Millisecond {
		t.Fatalf("default timeout not applied: %v remaining", rem)
	}
}

// TestHealthzDrainingSignal pins the load-balancer contract: /healthz
// answers 200 "ok" while serving, flips to 503 "draining" the moment
// Shutdown begins, and /stats reports draining:true — so a router or LB
// health probe stops sending new work before the listener closes.
func TestHealthzDrainingSignal(t *testing.T) {
	checkGoroutineLeak(t)
	path := filepath.Join(t.TempDir(), "idx.slpm")
	writeIndexFile(t, path, spectrallpm.WithGrid(4, 4), spectrallpm.WithPageSize(4))
	s, err := New(Config{IndexPath: path, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}

	w := get(t, s, "/healthz")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("healthz while serving: %d %q", w.Code, w.Body)
	}
	if w := get(t, s, "/stats"); !strings.Contains(w.Body.String(), `"draining":false`) {
		t.Fatalf("stats while serving: %q", w.Body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	w = get(t, s, "/healthz")
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), `"draining"`) {
		t.Fatalf("healthz while draining: %d %q", w.Code, w.Body)
	}
	if w := get(t, s, "/stats"); !strings.Contains(w.Body.String(), `"draining":true`) {
		t.Fatalf("stats while draining: %q", w.Body)
	}
}

// TestRetryAfterJitterRange sweeps every shed slot through the
// Retry-After jitter and asserts the hints stay inside the documented
// ±50% window around the base, never below one second, and actually
// spread (thundering-herd decorrelation needs more than one value).
func TestRetryAfterJitterRange(t *testing.T) {
	for _, base := range []time.Duration{time.Second, 3 * time.Second, 10 * time.Second} {
		lo := int(base / 2 / time.Second) // floor(base/2) pre-ceil
		hi := int((3*base/2 + time.Second - 1) / time.Second)
		distinct := map[int]bool{}
		for slot := int64(0); slot < 200; slot++ {
			got := RetryAfterSeconds(base, slot)
			if got < 1 {
				t.Fatalf("base %v slot %d: %d < 1s floor", base, slot, got)
			}
			if got < lo || got > hi {
				t.Fatalf("base %v slot %d: %ds outside [%d,%d]", base, slot, got, lo, hi)
			}
			distinct[got] = true
		}
		if base >= 3*time.Second && len(distinct) < 2 {
			t.Fatalf("base %v: jitter produced a single value %v", base, distinct)
		}
		// The 64-slot cycle is deterministic: same slot, same hint.
		if RetryAfterSeconds(base, 5) != RetryAfterSeconds(base, 5+64) {
			t.Fatalf("base %v: slot cycle not deterministic", base)
		}
	}
	// Degenerate base falls back to 1s behavior.
	if got := RetryAfterSeconds(0, 0); got < 1 {
		t.Fatalf("zero base: %d", got)
	}
}
