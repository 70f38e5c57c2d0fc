package cluster

import (
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// BenchmarkRouterBox is the router's row of the query ladder: a 1024×768
// grid split into 4 shards, 2 replica workers per shard on httptest
// listeners, and 16- and 64-side boxes driven straight through the
// router's handler. Box origins are uniform over the grid, so most boxes
// cross a shard boundary and fan out to two or more workers. ns/op and
// allocs/op cover the router's whole request: decode, plan, fan-out over
// loopback, reply parsing, merge and encode — plus the workers' answers,
// which share the process.
func BenchmarkRouterBox(b *testing.B) {
	const w, h = 1024, 768
	path := filepath.Join(b.TempDir(), "sharded.slpm")
	writeShardedFile(b, path, 4, spectrallpm.WithGrid(w, h))
	const nReplicas = 2
	var workers []*worker
	for s := 0; s < 4; s++ {
		for i := 0; i < nReplicas; i++ {
			workers = append(workers, startWorker(b, path, s, nil))
		}
	}
	rt := startRouter(b, fullTopology(workers, 4, nReplicas), nil)
	handshake(b, rt)
	handler := rt.Handler()

	for _, side := range []int{16, 64} {
		rng := rand.New(rand.NewPCG(uint64(side), 1))
		bodies := make([]string, 256)
		for i := range bodies {
			bodies[i] = boxBody(spectrallpm.Box{
				Start: []int{rng.IntN(w - side + 1), rng.IntN(h - side + 1)},
				Dims:  []int{side, side},
			})
		}
		b.Run("side="+strconv.Itoa(side), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/box", strings.NewReader(bodies[i%len(bodies)]))
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
