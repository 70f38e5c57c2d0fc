// Cluster tests: a real sharded index served by real worker daemons over
// real sockets, queried through the router, and pinned against the
// monolithic ShardedIndex oracle. Every distributed answer must be
// rank-for-rank what the single process would have said — or an honestly
// labeled partial of it.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
)

// writeShardedFile builds a sharded index and persists its v2 container.
func writeShardedFile(t testing.TB, path string, shards int, opts ...spectrallpm.BuildOption) {
	t.Helper()
	sx, err := spectrallpm.BuildSharded(context.Background(), shards, opts...)
	if err != nil {
		t.Fatal(err)
	}
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
}

// openOracle maps the container whole — the monolithic answer the
// cluster must reproduce.
func openOracle(t testing.TB, path string) *spectrallpm.ShardedIndex {
	t.Helper()
	sx, err := spectrallpm.OpenMappedSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sx.Close() })
	return sx
}

// worker is one live shard worker: the daemon plus its HTTP listener.
type worker struct {
	srv *server.Server
	ts  *httptest.Server
}

func (w *worker) addr() string { return strings.TrimPrefix(w.ts.URL, "http://") }

func (w *worker) stop() {
	w.ts.Close()
	w.srv.Index().Close()
}

// startWorker boots a worker daemon scoped to one shard of the container,
// optionally wrapping its handler (for targeted outage/delay middleware).
func startWorker(t testing.TB, path string, shardID int, wrap func(http.Handler) http.Handler) *worker {
	t.Helper()
	srv, err := server.New(server.Config{
		IndexPath:      path,
		DefaultTimeout: 10 * time.Second,
		Logf:           func(string, ...any) {},
		Open: func(p string) (server.Queryable, error) {
			return OpenShardWorker(p, shardID)
		},
		Routes: WorkerRoutes,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := http.Handler(srv.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	w := &worker{srv: srv, ts: httptest.NewServer(h)}
	t.Cleanup(w.stop)
	return w
}

// startRouter assembles and handshakes a router over the given topology.
func startRouter(t testing.TB, topo *Topology, mut func(*RouterConfig)) *Router {
	t.Helper()
	cfg := RouterConfig{
		Topology:       topo,
		HedgeAfter:     10 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
		BackoffBase:    2 * time.Millisecond,
		ProbeInterval:  time.Hour, // probes driven explicitly in tests
		Logf:           func(string, ...any) {},
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// handshake completes the geometry handshake or fails the test.
func handshake(t testing.TB, rt *Router) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rt.ProbeOnce(ctx)
	if !rt.Ready() {
		t.Fatal("geometry handshake incomplete")
	}
}

func rpost(rt *Router, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	return w
}

func rget(rt *Router, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	return w
}

// boxJSON is the decoded wire form of a box response.
type boxJSON struct {
	Count         int     `json:"count"`
	Results       [][]int `json:"results"`
	ShardsMissing []int   `json:"shards_missing"`
}

func decodeBox(t testing.TB, w *httptest.ResponseRecorder) boxJSON {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("box: status %d body %q", w.Code, w.Body)
	}
	var b boxJSON
	if err := json.Unmarshal(w.Body.Bytes(), &b); err != nil {
		t.Fatalf("box: %v (%q)", err, w.Body)
	}
	return b
}

// oracleRows gathers the monolithic rows ([rank, c0, c1, ...]) for a box.
func oracleRows(t testing.TB, sx *spectrallpm.ShardedIndex, b spectrallpm.Box) [][]int {
	t.Helper()
	rows := [][]int{}
	err := sx.ScanIntoContext(context.Background(), b, func(rank int, coords []int) bool {
		row := append([]int{rank}, coords...)
		rows = append(rows, row)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func boxBody(b spectrallpm.Box) string {
	s, _ := json.Marshal(b.Start)
	d, _ := json.Marshal(b.Dims)
	return fmt.Sprintf(`{"start":%s,"dims":%s}`, s, d)
}

// fullTopology lists every started worker, nReplicas per shard:
// workers[s*nReplicas+i] is shard s's replica i.
func fullTopology(workers []*worker, shards, nReplicas int) *Topology {
	topo := &Topology{}
	for s := 0; s < shards; s++ {
		sr := ShardReplicas{Shard: s}
		for i := 0; i < nReplicas; i++ {
			sr.Replicas = append(sr.Replicas, workers[s*nReplicas+i].addr())
		}
		topo.Shards = append(topo.Shards, sr)
	}
	return topo
}

// invalidTopologies are topology documents ParseTopology must reject.
var invalidTopologies = []struct {
	name string
	doc  string
}{
	{"no_shards", `{"shards":[]}`},
	{"gap", `{"shards":[{"shard":0,"replicas":["a"]},{"shard":2,"replicas":["b"]}]}`},
	{"dup_shard", `{"shards":[{"shard":0,"replicas":["a"]},{"shard":0,"replicas":["b"]}]}`},
	{"no_replicas", `{"shards":[{"shard":0,"replicas":[]}]}`},
	{"empty_addr", `{"shards":[{"shard":0,"replicas":[""]}]}`},
	{"dup_addr", `{"shards":[{"shard":0,"replicas":["a","a"]}]}`},
	{"negative", `{"shards":[{"shard":-1,"replicas":["a"]}]}`},
}

// validTopology lists its shards out of order, one with two replicas.
const validTopology = `{"shards":[{"shard":1,"replicas":["b"]},{"shard":0,"replicas":["a1","a2"]}]}`

func TestTopologyValidate(t *testing.T) {
	for _, tc := range invalidTopologies {
		if _, err := ParseTopology([]byte(tc.doc)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	topo, err := ParseTopology([]byte(validTopology))
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumShards() != 2 {
		t.Fatalf("NumShards = %d", topo.NumShards())
	}
	by := topo.byShard()
	if !reflect.DeepEqual(by[0], []string{"a1", "a2"}) || !reflect.DeepEqual(by[1], []string{"b"}) {
		t.Fatalf("byShard = %v", by)
	}
}

// FuzzParseTopology feeds the router's topology parser arbitrary bytes.
// It must never panic, and every topology it accepts must be a complete
// layout — shard ids exactly 0..k-1, every shard with distinct non-empty
// replica addresses — that marshals back to a document parsing to the
// same value.
func FuzzParseTopology(f *testing.F) {
	for _, tc := range invalidTopologies {
		f.Add([]byte(tc.doc))
	}
	f.Add([]byte(validTopology))
	f.Add([]byte(`{"shards":[{"shard":0,"replicas":["10.0.0.1:8081","10.0.0.2:8081"]},{"shard":1,"replicas":["10.0.0.3:8081"]}]}`))
	f.Add([]byte(`{"shards":[{"shard":0,"replicas":["a"],"shard":1}]}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := ParseTopology(data)
		if err != nil {
			return
		}
		k := topo.NumShards()
		seen := make([]bool, k)
		for _, s := range topo.Shards {
			if s.Shard < 0 || s.Shard >= k || seen[s.Shard] {
				t.Fatalf("accepted shard id %d among %d shards twice or out of range", s.Shard, k)
			}
			seen[s.Shard] = true
			if len(s.Replicas) == 0 {
				t.Fatalf("accepted shard %d without replicas", s.Shard)
			}
			addrs := map[string]bool{}
			for _, addr := range s.Replicas {
				if addr == "" || addrs[addr] {
					t.Fatalf("accepted shard %d with replicas %q", s.Shard, s.Replicas)
				}
				addrs[addr] = true
			}
		}
		doc, err := json.Marshal(topo)
		if err != nil {
			t.Fatalf("accepted topology does not marshal: %v", err)
		}
		again, err := ParseTopology(doc)
		if err != nil {
			t.Fatalf("re-marshalled topology %s rejected: %v", doc, err)
		}
		if !reflect.DeepEqual(again, topo) {
			t.Fatalf("re-marshalled topology parses to %+v, want %+v", again, topo)
		}
	})
}

// TestRouterOracleGrid pins the full distributed surface — box, pages,
// batch, rank, point — against the monolithic ShardedIndex on a 4-shard
// grid with 2 replicas per shard.
func TestRouterOracleGrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sharded.slpm")
	writeShardedFile(t, path, 4, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	oracle := openOracle(t, path)

	const nReplicas = 2
	var workers []*worker
	for s := 0; s < 4; s++ {
		for i := 0; i < nReplicas; i++ {
			workers = append(workers, startWorker(t, path, s, nil))
		}
	}
	rt := startRouter(t, fullTopology(workers, 4, nReplicas), nil)
	handshake(t, rt)

	boxes := []spectrallpm.Box{
		{Start: []int{0, 0}, Dims: []int{8, 8}}, // everything
		{Start: []int{0, 0}, Dims: []int{1, 1}}, // 1 cell
		{Start: []int{7, 7}, Dims: []int{1, 1}},
		{Start: []int{2, 3}, Dims: []int{4, 2}},
		{Start: []int{0, 3}, Dims: []int{8, 1}}, // full row stripe
		{Start: []int{3, 0}, Dims: []int{1, 8}}, // full column stripe
	}

	t.Run("box", func(t *testing.T) {
		for _, b := range boxes {
			got := decodeBox(t, rpost(rt, "/v1/box", boxBody(b)))
			want := oracleRows(t, oracle, b)
			if got.ShardsMissing != nil {
				t.Fatalf("box %v: unexpected shards_missing %v", b, got.ShardsMissing)
			}
			if got.Count != len(want) || !reflect.DeepEqual(got.Results, want) {
				t.Fatalf("box %v:\n got %v\nwant %v", b, got.Results, want)
			}
		}
	})

	t.Run("pages", func(t *testing.T) {
		for _, b := range boxes {
			w := rpost(rt, "/v1/pages", boxBody(b))
			if w.Code != http.StatusOK {
				t.Fatalf("pages %v: status %d body %q", b, w.Code, w.Body)
			}
			var got struct {
				Runs [][]int `json:"runs"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			want, err := oracle.PagesIntoContext(context.Background(), b, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Runs) != len(want) {
				t.Fatalf("pages %v: got %v, want %v", b, got.Runs, want)
			}
			for i, r := range want {
				if got.Runs[i][0] != r.Start || got.Runs[i][1] != r.Pages {
					t.Fatalf("pages %v run %d: got %v, want %+v", b, i, got.Runs[i], r)
				}
			}
		}
	})

	t.Run("batch", func(t *testing.T) {
		var parts []string
		for _, b := range boxes {
			parts = append(parts, boxBody(b))
		}
		w := rpost(rt, "/v1/batch", `{"boxes":[`+strings.Join(parts, ",")+`]}`)
		if w.Code != http.StatusOK {
			t.Fatalf("batch: status %d body %q", w.Code, w.Body)
		}
		var got struct {
			Stats []struct {
				Pages     int `json:"pages"`
				Seeks     int `json:"seeks"`
				SpanPages int `json:"span_pages"`
			} `json:"stats"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		want, err := oracle.QueryBatchContext(context.Background(), boxes)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Stats) != len(want) {
			t.Fatalf("batch: %d stats, want %d", len(got.Stats), len(want))
		}
		for i, st := range want {
			g := got.Stats[i]
			if g.Pages != st.Pages || g.Seeks != st.Seeks || g.SpanPages != st.SpanPages {
				t.Fatalf("batch box %d: got %+v, want %+v", i, g, st)
			}
		}
	})

	t.Run("rank_point_roundtrip", func(t *testing.T) {
		for r := 0; r < oracle.N(); r++ {
			coords, err := oracle.Point(r)
			if err != nil {
				t.Fatal(err)
			}
			cb, _ := json.Marshal(coords)
			w := rpost(rt, "/v1/rank", fmt.Sprintf(`{"coords":%s}`, cb))
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
			w = rpost(rt, "/v1/point", fmt.Sprintf(`{"rank":%d}`, r))
			if w.Code != http.StatusOK {
				t.Fatalf("point of %d: status %d body %q", r, w.Code, w.Body)
			}
			var pp struct{ Coords []int }
			if err := json.Unmarshal(w.Body.Bytes(), &pp); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pp.Coords, coords) {
				t.Fatalf("point of %d = %v, want %v", r, pp.Coords, coords)
			}
		}
	})

	t.Run("validation_passthrough", func(t *testing.T) {
		if w := rpost(rt, "/v1/box", `{"start":[0,0],"dims":[9,9]}`); w.Code != http.StatusBadRequest {
			t.Fatalf("oversized box: status %d", w.Code)
		}
		if w := rpost(rt, "/v1/rank", `{"coords":[0]}`); w.Code != http.StatusBadRequest {
			t.Fatalf("arity mismatch: status %d", w.Code)
		}
		if w := rpost(rt, "/v1/point", `{"rank":999}`); w.Code != http.StatusBadRequest {
			t.Fatalf("rank out of range: status %d", w.Code)
		}
		if w := rpost(rt, "/v1/batch", `{"boxes":[]}`); w.Code != http.StatusBadRequest {
			t.Fatalf("empty batch: status %d", w.Code)
		}
	})

	t.Run("healthz_stats", func(t *testing.T) {
		w := rget(rt, "/healthz")
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
			t.Fatalf("healthz: %d %q", w.Code, w.Body)
		}
		w = rget(rt, "/stats")
		var st struct {
			Ready  bool `json:"ready"`
			Shards []struct {
				Replicas []struct {
					Ejected bool `json:"ejected"`
				} `json:"replicas"`
			} `json:"shards"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if !st.Ready || len(st.Shards) != 4 {
			t.Fatalf("stats: %+v", st)
		}
	})

	// No protocol scratch may leak across the distributed path.
	if n := server.ProtoLive(); n != 0 {
		t.Fatalf("%d protocol scratches leaked", n)
	}
}

// TestRouterOraclePoints covers the point-set flavor, whose shard
// bounding boxes may overlap: rank routing must treat containment as a
// candidate list, and box fan-out must stay rank-for-rank correct.
func TestRouterOraclePoints(t *testing.T) {
	pts := [][]int{
		{0, 0}, {1, 3}, {2, 1}, {5, 5}, {6, 2}, {7, 7}, {3, 6}, {4, 4},
		{0, 7}, {7, 0}, {2, 5}, {6, 6},
	}
	path := filepath.Join(t.TempDir(), "points.slpm")
	writeShardedFile(t, path, 2, spectrallpm.WithPoints(pts), spectrallpm.WithPageSize(4))
	oracle := openOracle(t, path)

	workers := []*worker{
		startWorker(t, path, 0, nil),
		startWorker(t, path, 1, nil),
	}
	rt := startRouter(t, fullTopology(workers, 2, 1), nil)
	handshake(t, rt)

	b := spectrallpm.Box{Start: []int{0, 0}, Dims: []int{8, 8}}
	got := decodeBox(t, rpost(rt, "/v1/box", boxBody(b)))
	want := oracleRows(t, oracle, b)
	if !reflect.DeepEqual(got.Results, want) {
		t.Fatalf("box:\n got %v\nwant %v", got.Results, want)
	}

	for r := 0; r < oracle.N(); r++ {
		coords, err := oracle.Point(r)
		if err != nil {
			t.Fatal(err)
		}
		cb, _ := json.Marshal(coords)
		w := rpost(rt, "/v1/rank", fmt.Sprintf(`{"coords":%s}`, cb))
		if w.Code != http.StatusOK {
			t.Fatalf("rank of %v: status %d body %q", coords, w.Code, w.Body)
		}
		var rr struct{ Rank int }
		json.Unmarshal(w.Body.Bytes(), &rr)
		if rr.Rank != r {
			t.Fatalf("rank of %v = %d, want %d", coords, rr.Rank, r)
		}
	}

	// A coordinate that is no point answers 404 from every candidate.
	if w := rpost(rt, "/v1/rank", `{"coords":[3,3]}`); w.Code != http.StatusNotFound {
		t.Fatalf("unindexed point: status %d body %q", w.Code, w.Body)
	}
}

// TestRouterPartial kills a single-replica shard and asserts the partial
// contract: -partial answers the reachable shards rank-correctly with the
// gap labeled in shards_missing; strict mode fails the query whole.
func TestRouterPartial(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sharded.slpm")
	writeShardedFile(t, path, 2, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	oracle := openOracle(t, path)

	w0 := startWorker(t, path, 0, nil)
	w1 := startWorker(t, path, 1, nil)
	topo := &Topology{Shards: []ShardReplicas{
		{Shard: 0, Replicas: []string{w0.addr()}},
		{Shard: 1, Replicas: []string{w1.addr()}},
	}}
	fast := func(c *RouterConfig) {
		c.AttemptTimeout = 300 * time.Millisecond
		c.Retries = 1
	}
	partial := startRouter(t, topo, func(c *RouterConfig) { fast(c); c.Partial = true })
	strict := startRouter(t, topo, fast)
	handshake(t, partial)
	handshake(t, strict)

	// Shard 1's only replica dies after the handshake.
	w1.ts.Close()

	_, _, off1, recs1 := oracle.ShardBounds(1)
	all := spectrallpm.Box{Start: []int{0, 0}, Dims: []int{8, 8}}

	t.Run("partial_box", func(t *testing.T) {
		got := decodeBox(t, rpost(partial, "/v1/box", boxBody(all)))
		if !reflect.DeepEqual(got.ShardsMissing, []int{1}) {
			t.Fatalf("shards_missing = %v, want [1]", got.ShardsMissing)
		}
		var want [][]int
		for _, row := range oracleRows(t, oracle, all) {
			if row[0] < off1 || row[0] >= off1+recs1 {
				want = append(want, row)
			}
		}
		if !reflect.DeepEqual(got.Results, want) {
			t.Fatalf("partial rows:\n got %v\nwant %v", got.Results, want)
		}
	})

	t.Run("partial_pages_batch", func(t *testing.T) {
		w := rpost(partial, "/v1/pages", boxBody(all))
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"shards_missing":[1]`) {
			t.Fatalf("pages: %d %q", w.Code, w.Body)
		}
		w = rpost(partial, "/v1/batch", `{"boxes":[`+boxBody(all)+`]}`)
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"shards_missing":[1]`) {
			t.Fatalf("batch: %d %q", w.Code, w.Body)
		}
	})

	t.Run("strict_fails_whole", func(t *testing.T) {
		if w := rpost(strict, "/v1/box", boxBody(all)); w.Code != http.StatusBadGateway {
			t.Fatalf("strict box: status %d body %q", w.Code, w.Body)
		}
	})

	t.Run("scalar_never_partial", func(t *testing.T) {
		coords, err := oracle.Point(off1) // owned by the dead shard
		if err != nil {
			t.Fatal(err)
		}
		cb, _ := json.Marshal(coords)
		if w := rpost(partial, "/v1/rank", fmt.Sprintf(`{"coords":%s}`, cb)); w.Code != http.StatusBadGateway {
			t.Fatalf("rank via dead owner: status %d body %q", w.Code, w.Body)
		}
		if w := rpost(partial, "/v1/point", fmt.Sprintf(`{"rank":%d}`, off1)); w.Code != http.StatusBadGateway {
			t.Fatalf("point via dead owner: status %d body %q", w.Code, w.Body)
		}
	})

	// A box that never touches the dead shard stays complete — no label.
	t.Run("untouched_box_complete", func(t *testing.T) {
		lo0, hi0, _, _ := oracle.ShardBounds(0)
		b := spectrallpm.Box{Start: append([]int(nil), lo0...), Dims: []int{1, 1}}
		_ = hi0
		got := decodeBox(t, rpost(partial, "/v1/box", boxBody(b)))
		if got.ShardsMissing != nil {
			t.Fatalf("shards_missing = %v on a shard-0-only box", got.ShardsMissing)
		}
		if !reflect.DeepEqual(got.Results, oracleRows(t, oracle, b)) {
			t.Fatalf("shard-0-only box rows wrong")
		}
	})
}

// TestRouterWarming pins the bootstrap contract: before the geometry
// handshake completes the router answers 503 everywhere, then serves the
// moment the fleet appears.
func TestRouterWarming(t *testing.T) {
	// Reserve an address nobody is listening on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	topo := &Topology{Shards: []ShardReplicas{{Shard: 0, Replicas: []string{dead}}}}
	rt := startRouter(t, topo, func(c *RouterConfig) {
		c.AttemptTimeout = 100 * time.Millisecond
		c.Retries = -1 // negative = no retries: keep the warming probes fast
	})
	if w := rget(rt, "/healthz"); w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "warming") {
		t.Fatalf("healthz while warming: %d %q", w.Code, w.Body)
	}
	if w := rpost(rt, "/v1/box", `{"start":[0],"dims":[1]}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("query while warming: status %d", w.Code)
	}
}

// TestReplicaEjectionAndReinstatement drives the health lifecycle: a dead
// replica accumulates consecutive failures and is ejected; queries keep
// succeeding through the live replica; a probe reinstates the replica
// once a worker answers on its address again.
func TestReplicaEjectionAndReinstatement(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sharded.slpm")
	writeShardedFile(t, path, 2, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	oracle := openOracle(t, path)

	live0 := startWorker(t, path, 0, nil)
	live1 := startWorker(t, path, 1, nil)
	// Reserve a port for the flappy replica, currently dead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flakyAddr := ln.Addr().String()
	ln.Close()

	topo := &Topology{Shards: []ShardReplicas{
		{Shard: 0, Replicas: []string{flakyAddr, live0.addr()}},
		{Shard: 1, Replicas: []string{live1.addr()}},
	}}
	rt := startRouter(t, topo, func(c *RouterConfig) {
		c.AttemptTimeout = 300 * time.Millisecond
		c.Retries = 2
		c.FailThreshold = 2
	})
	handshake(t, rt)

	all := spectrallpm.Box{Start: []int{0, 0}, Dims: []int{8, 8}}
	want := oracleRows(t, oracle, all)
	flaky := rt.shards[0].replicas[0]
	if flaky.addr != flakyAddr {
		t.Fatalf("replica order: %s != %s", flaky.addr, flakyAddr)
	}

	// Queries succeed throughout; the dead replica's failures pile up
	// until it is ejected from rotation.
	for i := 0; i < 8 && !flaky.ejected.Load(); i++ {
		got := decodeBox(t, rpost(rt, "/v1/box", boxBody(all)))
		if !reflect.DeepEqual(got.Results, want) {
			t.Fatalf("query %d wrong while replica flapping", i)
		}
	}
	if !flaky.ejected.Load() {
		t.Fatal("dead replica never ejected")
	}

	// A worker comes back on the same address; the probe reinstates it.
	ln2, err := net.Listen("tcp", flakyAddr)
	if err != nil {
		t.Fatalf("rebind %s: %v", flakyAddr, err)
	}
	revived := startWorker(t, path, 0, nil)
	revivedTS := httptest.NewUnstartedServer(revived.srv.Handler())
	revivedTS.Listener.Close()
	revivedTS.Listener = ln2
	revivedTS.Start()
	t.Cleanup(revivedTS.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rt.ProbeOnce(ctx)
	if flaky.ejected.Load() {
		t.Fatal("replica not reinstated by probe")
	}
	got := decodeBox(t, rpost(rt, "/v1/box", boxBody(all)))
	if !reflect.DeepEqual(got.Results, want) {
		t.Fatal("query wrong after reinstatement")
	}
}

// TestHedgedRead makes one replica slow and asserts the router races a
// hedged second request instead of waiting: answers stay correct and the
// hedge counter moves.
func TestHedgedRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sharded.slpm")
	writeShardedFile(t, path, 1, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	oracle := openOracle(t, path)

	slow := startWorker(t, path, 0, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/") && r.URL.Path != "/v1/shardinfo" {
				time.Sleep(250 * time.Millisecond)
			}
			h.ServeHTTP(w, r)
		})
	})
	fast := startWorker(t, path, 0, nil)
	topo := &Topology{Shards: []ShardReplicas{
		{Shard: 0, Replicas: []string{slow.addr(), fast.addr()}},
	}}
	rt := startRouter(t, topo, func(c *RouterConfig) {
		c.HedgeAfter = 10 * time.Millisecond
		c.AttemptTimeout = 2 * time.Second
	})
	handshake(t, rt)

	all := spectrallpm.Box{Start: []int{0, 0}, Dims: []int{8, 8}}
	want := oracleRows(t, oracle, all)
	for i := 0; i < 4; i++ {
		got := decodeBox(t, rpost(rt, "/v1/box", boxBody(all)))
		if !reflect.DeepEqual(got.Results, want) {
			t.Fatalf("hedged query %d wrong", i)
		}
	}
	if rt.hedges.Load() == 0 {
		t.Fatal("no hedged request was ever launched")
	}
}

// TestMergeRunsAndStats pins the cross-shard run coalescing rule and the
// stats derivation against hand-computed shapes, including the mid-page
// shard-boundary overlap.
func TestMergeRunsAndStats(t *testing.T) {
	mk := func(runs ...[2]int) []spectrallpm.PageRun {
		out := make([]spectrallpm.PageRun, len(runs))
		for i, r := range runs {
			out[i] = spectrallpm.PageRun{Start: r[0], Pages: r[1]}
		}
		return out
	}
	cases := []struct {
		name  string
		parts [][]spectrallpm.PageRun
		want  []spectrallpm.PageRun
	}{
		{"empty", [][]spectrallpm.PageRun{{}, {}}, nil},
		{"one_sided", [][]spectrallpm.PageRun{mk([2]int{1, 2}), {}}, mk([2]int{1, 2})},
		{"disjoint", [][]spectrallpm.PageRun{mk([2]int{0, 2}), mk([2]int{5, 1})}, mk([2]int{0, 2}, [2]int{5, 1})},
		{"adjacent_fuse", [][]spectrallpm.PageRun{mk([2]int{0, 2}), mk([2]int{2, 2})}, mk([2]int{0, 4})},
		{"boundary_page_overlap", [][]spectrallpm.PageRun{mk([2]int{0, 3}), mk([2]int{2, 2})}, mk([2]int{0, 4})},
		{"contained", [][]spectrallpm.PageRun{mk([2]int{0, 6}), mk([2]int{2, 2})}, mk([2]int{0, 6})},
	}
	for _, tc := range cases {
		parts := make([]*boxPart, len(tc.parts))
		for i, runs := range tc.parts {
			parts[i] = &boxPart{runs: runs}
		}
		got := mergeRuns(nil, parts)
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}

	st := statsFromRuns(mk([2]int{1, 2}, [2]int{5, 3}))
	if st.Pages != 5 || st.Seeks != 2 || st.SpanPages != 7 {
		t.Fatalf("stats = %+v", st)
	}
	if st := statsFromRuns(nil); st.Pages != 0 || st.Seeks != 0 || st.SpanPages != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

// TestTornReplyRejected feeds the reply scanner raw torn, cross-wired
// and malformed worker replies; none may pass. Shard 0 of the geometry
// owns ranks [0,4) inside x∈[0,1], y∈[0,3], over 2 pages of rank space.
func TestTornReplyRejected(t *testing.T) {
	g := tornGeometry()
	cases := []struct {
		name string
		kind byte
		body string
	}{
		{"count_mismatch", 'b', `{"count":2,"results":[[0,0,0]]}`},
		{"row_arity", 'b', `{"count":1,"results":[[0,0]]}`},
		{"foreign_rank", 'b', `{"count":1,"results":[[5,0,0]]}`},
		{"unordered", 'b', `{"count":2,"results":[[1,0,0],[0,0,1]]}`},
		{"duplicate", 'b', `{"count":2,"results":[[1,0,0],[1,0,1]]}`},
		{"coords_outside_shard", 'b', `{"count":1,"results":[[0,3,0]]}`},
		{"overlapping_runs", 'p', `{"runs":[[0,2],[1,1]]}`},
		{"run_past_num_pages", 'p', `{"runs":[[0,5]]}`},

		{"truncated_mid_row", 'b', `{"count":2,"results":[[0,0,0],[3,1`},
		{"trailing_garbage", 'b', `{"count":1,"results":[[0,0,0]]}x`},
		{"missing_results", 'b', `{"count":0}`},
		{"missing_count", 'b', `{"results":[]}`},
		{"fraction", 'b', `{"count":1,"results":[[1.5,0,0]]}`},
		{"exponent", 'b', `{"count":1,"results":[[0,1e3,0]]}`},
		{"leading_zero", 'b', `{"count":1,"results":[[01,0,0]]}`},
		{"25_digits", 'b', `{"count":1,"results":[[1234567890123456789012345,0,0]]}`},
		{"duplicate_key", 'b', `{"count":1,"count":1,"results":[[0,0,0]]}`},
		{"unknown_key", 'b', `{"count":1,"results":[[0,0,0]],"shard":0}`},
		{"pages_truncated", 'p', `{"runs":[[0,1]`},
		{"pages_unknown_key", 'p', `{"runs":[],"count":0}`},
		{"rank_foreign", 'r', `{"rank":5}`},
		{"rank_string", 'r', `{"rank":"1"}`},
		{"rank_truncated", 'r', `{"rank":1`},
		{"rank_duplicate_key", 'r', `{"rank":1,"rank":1}`},
		{"point_arity_short", 'c', `{"coords":[0]}`},
		{"point_arity_long", 'c', `{"coords":[0,0,0]}`},
		{"point_outside_shard", 'c', `{"coords":[2,0]}`},
		{"point_missing", 'c', `{}`},
	}
	for _, tc := range cases {
		if got, err := parseReply(g, tc.kind, 0, []byte(tc.body)); err == nil {
			t.Errorf("%s: accepted %q as %+v", tc.name, tc.body, got)
		}
	}

	accepted := []struct {
		name string
		kind byte
		body string
		want parsedReply
	}{
		{"box", 'b', `{"count":2,"results":[[0,0,0],[3,1,3]]}`,
			parsedReply{ranks: []int{0, 3}, coords: []int{0, 0, 1, 3}}},
		{"box_spaced_results_first", 'b', " { \"results\" : [ [0, 0,0] ,\n[3,1,3] ] ,\t\"count\" : 2 }\r\n",
			parsedReply{ranks: []int{0, 3}, coords: []int{0, 0, 1, 3}}},
		{"box_empty", 'b', `{"count":0,"results":[]}`, parsedReply{}},
		{"pages", 'p', `{"runs":[[0,1],[1,1]]}`,
			parsedReply{runs: []spectrallpm.PageRun{{Start: 0, Pages: 1}, {Start: 1, Pages: 1}}}},
		{"rank", 'r', `{"rank":3}`, parsedReply{scalar: 3}},
		{"point", 'c', `{"coords":[1,3]}`, parsedReply{coords: []int{1, 3}}},
	}
	for _, tc := range accepted {
		got, err := parseReply(g, tc.kind, 0, []byte(tc.body))
		if err != nil {
			t.Errorf("%s: rejected %q: %v", tc.name, tc.body, err)
			continue
		}
		if !got.equal(tc.want) {
			t.Errorf("%s: parsed %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestWorkerShardView pins the worker's global-frame contract directly:
// global ranks, global coordinates, ErrPointNotIndexed outside its
// bounds, ErrRankOutOfRange outside its block.
func TestWorkerShardView(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sharded.slpm")
	writeShardedFile(t, path, 2, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	oracle := openOracle(t, path)

	q, err := OpenShardWorker(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	v := q.(*ShardView)
	lo, _, off, recs := oracle.ShardBounds(1)

	if v.N() != recs || v.TotalN() != oracle.N() {
		t.Fatalf("N=%d TotalN=%d, want %d/%d", v.N(), v.TotalN(), recs, oracle.N())
	}
	// Every rank in the block round-trips in the global frame.
	for r := off; r < off+recs; r++ {
		coords, err := v.Point(r)
		if err != nil {
			t.Fatal(err)
		}
		oc, err := oracle.Point(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(coords, oc) {
			t.Fatalf("point %d = %v, oracle %v", r, coords, oc)
		}
		rr, err := v.Rank(coords...)
		if err != nil || rr != r {
			t.Fatalf("rank(%v) = %d, %v", coords, rr, err)
		}
	}
	// Outside the block: refused even though globally valid.
	if _, err := v.Point(off - 1); err == nil {
		t.Fatal("foreign rank accepted")
	}
	// A point of shard 0 answers not-indexed here.
	foreign, err := oracle.Point(0)
	if err != nil {
		t.Fatal(err)
	}
	_ = lo
	if _, err := v.Rank(foreign...); err == nil {
		t.Fatal("foreign point accepted")
	}
	// The shard's slice of a global scan matches the oracle's block rows.
	all := spectrallpm.Box{Start: []int{0, 0}, Dims: []int{8, 8}}
	var got [][]int
	err = v.ScanIntoContext(context.Background(), all, func(rank int, coords []int) bool {
		got = append(got, append([]int{rank}, coords...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]int
	for _, row := range oracleRows(t, oracle, all) {
		if row[0] >= off && row[0] < off+recs {
			want = append(want, row)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard scan:\n got %v\nwant %v", got, want)
	}
}
