package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status and the byte count, so the benchmark loop allocates nothing of
// its own.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *discardWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(b)
	return len(b), nil
}

// BenchmarkServeHTTP measures the protocol layer in isolation: request
// decode, admission, the query against a mapped index, and the buffered
// response encode — driven straight through the handler with no network.
// The request and the response writer are built once, outside the timed
// loop, and the body is rewound per iteration, so the allocs/op figure is
// the serving spine's per-request allocation budget alone, tracked in
// BENCH_query.json alongside the engine benchmarks.
func BenchmarkServeHTTP(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.slpm")
	writeIndexFile(b, path,
		spectrallpm.WithGrid(16, 16), spectrallpm.WithMapping("hilbert"), spectrallpm.WithPageSize(8))
	s, err := New(Config{IndexPath: path})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(b.Context())
	h := s.Handler()

	cases := []struct {
		name, path, body string
	}{
		{"rank", "/v1/rank", `{"coords":[3,5]}`},
		{"box", "/v1/box", `{"start":[2,2],"dims":[4,4]}`},
		{"batch", "/v1/batch", `{"boxes":[{"start":[0,0],"dims":[4,4]},{"start":[8,8],"dims":[6,6]},{"start":[3,1],"dims":[2,7]}]}`},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			body := strings.NewReader(tc.body)
			req := httptest.NewRequest(http.MethodPost, tc.path, body)
			w := &discardWriter{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body.Seek(0, io.SeekStart)
				w.code = 0
				h.ServeHTTP(w, req)
				if w.code != http.StatusOK {
					b.Fatalf("%s: status %d", tc.path, w.code)
				}
			}
		})
	}
}
