package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// partialIndex is a Queryable assembled from shards, some of them down:
// every query answers its rows, runs or stats together with err.
type partialIndex struct {
	Queryable // unimplemented methods are never called
	err       error
}

func (q partialIndex) ScanIntoContext(_ context.Context, _ spectrallpm.Box, yield func(int, []int) bool) error {
	yield(4, []int{0, 1})
	yield(9, []int{2, 3})
	return q.err
}

func (q partialIndex) PagesIntoContext(_ context.Context, _ spectrallpm.Box, dst []spectrallpm.PageRun) ([]spectrallpm.PageRun, error) {
	return append(dst, spectrallpm.PageRun{Start: 1, Pages: 2}), q.err
}

func (q partialIndex) QueryBatchContext(_ context.Context, boxes []spectrallpm.Box) ([]spectrallpm.IOStats, error) {
	return make([]spectrallpm.IOStats, len(boxes)), q.err
}

func (q partialIndex) Close() error { return nil }

func newPartialServer(t *testing.T, err error) *Server {
	return newTestServer(t, "", func(c *Config) {
		c.Open = func(string) (Queryable, error) { return partialIndex{err: err}, nil }
	})
}

// TestPartialAnswerServed pins the spine's partial path: an answer that
// comes with a *ShardsMissingError is served whole, with 200 and the
// missing shard ids, on every collection endpoint.
func TestPartialAnswerServed(t *testing.T) {
	s := newPartialServer(t, fmt.Errorf("router: %w", &ShardsMissingError{Shards: []int{1, 3}}))
	cases := []struct{ path, body, want string }{
		{"/v1/box", `{"start":[0,0],"dims":[4,4]}`, `{"count":2,"results":[[4,0,1],[9,2,3]],"shards_missing":[1,3]}`},
		{"/v1/pages", `{"start":[0,0],"dims":[4,4]}`, `{"runs":[[1,2]],"shards_missing":[1,3]}`},
		{"/v1/batch", `{"boxes":[{"start":[0,0],"dims":[4,4]}]}`, `{"stats":[{"pages":0,"seeks":0,"span_pages":0}],"shards_missing":[1,3]}`},
	}
	for _, tc := range cases {
		w := post(t, s, tc.path, tc.body)
		if w.Code != http.StatusOK || w.Body.String() != tc.want {
			t.Errorf("%s: %d %q, want 200 %q", tc.path, w.Code, w.Body, tc.want)
		}
	}
}

// TestFailedAnswerDiscarded pins the other side: an answer that comes with
// any other error is discarded whole, and the status follows the error.
func TestFailedAnswerDiscarded(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("shard 2: %w", ErrUpstream), http.StatusBadGateway},
		{fmt.Errorf("%w: shard 2: %w", ErrUpstream, context.DeadlineExceeded), http.StatusGatewayTimeout},
		{fmt.Errorf("handshake: %w", ErrWarming), http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		s := newPartialServer(t, tc.err)
		for _, path := range []string{"/v1/box", "/v1/pages"} {
			w := post(t, s, path, `{"start":[0,0],"dims":[4,4]}`)
			if w.Code != tc.want {
				t.Errorf("%s with %v: status %d, want %d", path, tc.err, w.Code, tc.want)
			}
			if body := w.Body.String(); strings.Contains(body, "results") || strings.Contains(body, "runs") {
				t.Errorf("%s with %v: error answer carries the discarded buffer: %q", path, tc.err, body)
			}
		}
	}
}
