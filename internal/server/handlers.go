// HTTP handlers: one thin shim per endpoint over the shared serving
// spine in serveDecoded — deadline derivation, bounded admission, request
// decode, the ErrIndexClosed retry loop, and a single buffered write.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server/faultinject"
)

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/rank", s.handleRank)
	s.mux.HandleFunc("POST /v1/point", s.handlePoint)
	s.mux.HandleFunc("POST /v1/box", s.handleBox)
	s.mux.HandleFunc("POST /v1/pages", s.handlePages)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	if s.cfg.Routes != nil {
		s.cfg.Routes(s, s.mux)
	}
}

// ErrBadRequest tags client-side failures (malformed JSON, oversized
// bodies) so writeError maps them to 400 rather than 500.
var ErrBadRequest = errors.New("bad request")

// requestContext derives the per-request deadline: timeout_ms from the
// query string, clamped to MaxTimeout, defaulting to DefaultTimeout.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms > 0 {
			d = min(time.Duration(ms)*time.Millisecond, s.cfg.MaxTimeout)
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// RetryAfterSeconds derives the Retry-After header for a shed response:
// the base hint jittered ±50% by the request's shed slot (a monotonically
// increasing counter), so a synchronized burst of shed clients fans its
// retries across a full base-width window instead of stampeding back in
// lockstep. Deterministic in the slot — no RNG on the shed fast path —
// and never below one second, the header's resolution floor.
func RetryAfterSeconds(base time.Duration, slot int64) int {
	if base <= 0 {
		base = time.Second
	}
	phase := time.Duration(slot & 63) // 64-step cycle through the jitter window
	d := base/2 + phase*base/63       // [base/2, 3*base/2]
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// serveDecoded is the serving spine every query endpoint shares:
//
//  1. derive the request deadline,
//  2. pass bounded admission (shed with 429 + a slot-jittered Retry-After,
//     or 504 if the deadline died while queued),
//  3. decode the request body (dst may be nil for body-less endpoints),
//  4. re-check the deadline so an expired request returns 504 before it
//     touches any pooled scratch,
//  5. run fn against the current index handle, retrying on a handle
//     closed by a concurrent reload — the response buffer resets per
//     attempt, so no response mixes two index generations,
//  6. write the fully buffered response in a single Write.
//
// fn appends the response to ps.Buf and returns nil, or returns an error
// having written nothing the client will see — on error the buffer is
// discarded, so a request that dies mid-query never emits a partial body.
func (s *Server) serveDecoded(w http.ResponseWriter, r *http.Request, dst any, fn func(ctx context.Context, q Queryable, ps *ProtoScratch) error) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	status, slot := s.admit(ctx)
	if status != 0 {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds(s.cfg.RetryAfter, slot)))
			http.Error(w, "overloaded, retry later", status)
			return
		}
		http.Error(w, "deadline exceeded while queued", status)
		return
	}
	defer s.releaseSlot()
	faultinject.Fire(faultinject.PointHandlerAdmitted)
	if dst != nil {
		if err := DecodeRequest(r, dst); err != nil {
			http.Error(w, fmt.Sprintf("%v: %v", ErrBadRequest, err), http.StatusBadRequest)
			return
		}
	}
	// A request whose deadline already passed (e.g. it sat at the tail of
	// the queue, or stalled in decode) answers 504 here, before leasing
	// protocol scratch or touching the engine's pooled buffers.
	if err := ctx.Err(); err != nil {
		s.expired.Add(1)
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
		return
	}
	ps := GetProto()
	defer ps.Put()
	err := s.withIndex(func(q Queryable) error {
		ps.Buf = ps.Buf[:0]
		return fn(ctx, q, ps)
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	faultinject.Fire(faultinject.PointHandlerWrite)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(ps.Buf)))
	w.Write(ps.Buf)
}

// writeError maps engine errors to HTTP statuses, counting 504s as
// expired. The response body for an error is only ever this error line;
// the success buffer was discarded whole.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// Checked first: an upstream failure whose cause is a deadline is a
		// timeout to the client.
		status = http.StatusGatewayTimeout
	case errors.Is(err, spectrallpm.ErrIndexClosed), errors.Is(err, ErrWarming):
		// Retries exhausted during a reload storm, or a router still
		// handshaking: the client should simply try again.
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrUpstream):
		status = http.StatusBadGateway
	case errors.Is(err, spectrallpm.ErrDimensionMismatch),
		errors.Is(err, spectrallpm.ErrRankOutOfRange),
		errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, spectrallpm.ErrPointNotIndexed):
		status = http.StatusNotFound
	}
	if status == http.StatusGatewayTimeout {
		s.expired.Add(1)
	}
	http.Error(w, err.Error(), status)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	var req RankRequest
	s.serveDecoded(w, r, &req, func(ctx context.Context, q Queryable, ps *ProtoScratch) error {
		rank, err := q.RankContext(ctx, req.Coords...)
		if err != nil {
			return err
		}
		ps.Buf = AppendRankResponse(ps.Buf, rank)
		return nil
	})
}

func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	var req PointRequest
	s.serveDecoded(w, r, &req, func(ctx context.Context, q Queryable, ps *ProtoScratch) error {
		coords, err := q.PointContext(ctx, req.Rank)
		if err != nil {
			return err
		}
		ps.Buf = AppendPointResponse(ps.Buf, coords)
		return nil
	})
}

func (s *Server) handleBox(w http.ResponseWriter, r *http.Request) {
	var req BoxRequest
	s.serveDecoded(w, r, &req, func(ctx context.Context, q Queryable, ps *ProtoScratch) error {
		var countAt int
		ps.Buf, countAt = AppendBoxHeader(ps.Buf)
		count := 0
		err := q.ScanIntoContext(ctx, spectrallpm.Box{Start: req.Start, Dims: req.Dims},
			func(rank int, coords []int) bool {
				ps.Buf = AppendBoxRow(ps.Buf, count == 0, rank, coords)
				count++
				return true
			})
		missing, err := shardsMissing(err)
		if err != nil {
			return err
		}
		ps.Buf = FinishBoxResponse(ps.Buf, countAt, count, missing)
		return nil
	})
}

func (s *Server) handlePages(w http.ResponseWriter, r *http.Request) {
	var req BoxRequest
	s.serveDecoded(w, r, &req, func(ctx context.Context, q Queryable, ps *ProtoScratch) error {
		runs, err := q.PagesIntoContext(ctx, spectrallpm.Box{Start: req.Start, Dims: req.Dims}, ps.Runs[:0])
		ps.Runs = runs
		missing, err := shardsMissing(err)
		if err != nil {
			return err
		}
		ps.Buf = AppendPagesResponse(ps.Buf, runs, missing)
		return nil
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	s.serveDecoded(w, r, &req, func(ctx context.Context, q Queryable, ps *ProtoScratch) error {
		if len(req.Boxes) == 0 {
			return fmt.Errorf("%w: batch has no boxes", ErrBadRequest)
		}
		ps.Boxes = ps.Boxes[:0]
		for _, b := range req.Boxes {
			ps.Boxes = append(ps.Boxes, spectrallpm.Box{Start: b.Start, Dims: b.Dims})
		}
		stats, err := q.QueryBatchContext(ctx, ps.Boxes)
		missing, err := shardsMissing(err)
		if err != nil {
			return err
		}
		ps.Buf = AppendBatchResponse(ps.Buf, stats, missing)
		return nil
	})
}

// handleHealthz answers 200 {"status":"ok",...} while serving and 503
// {"status":"draining",...} once Shutdown has begun, so a router's health
// probe stops routing to a server that is mid-drain instead of racing its
// listener teardown.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.cur.Load()
	draining := s.draining.Load()
	ps := GetProto()
	defer ps.Put()
	ps.Buf = append(ps.Buf, `{"status":"`...)
	if draining {
		ps.Buf = append(ps.Buf, `draining`...)
	} else {
		ps.Buf = append(ps.Buf, `ok`...)
	}
	ps.Buf = append(ps.Buf, `","generation":`...)
	ps.Buf = AppendInt(ps.Buf, int(h.gen))
	ps.Buf = append(ps.Buf, `,"records":`...)
	ps.Buf = AppendInt(ps.Buf, h.q.N())
	ps.Buf = append(ps.Buf, '}')
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	w.Write(ps.Buf)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	h := s.cur.Load()
	resp := struct {
		Generation uint64 `json:"generation"`
		Records    int    `json:"records"`
		Pages      int    `json:"pages"`
		Draining   bool   `json:"draining"`
		InFlight   int    `json:"in_flight"`
		Queued     int64  `json:"queued"`
		Accepted   int64  `json:"accepted"`
		Shed       int64  `json:"shed"`
		Expired    int64  `json:"expired"`
		Reloads    int64  `json:"reloads"`
		Rejected   int64  `json:"rejected_reloads"`
	}{
		Generation: h.gen,
		Records:    h.q.N(),
		Pages:      h.q.NumPages(),
		Draining:   s.draining.Load(),
		InFlight:   len(s.slots),
		Queued:     s.queued.Load(),
		Accepted:   s.accepted.Load(),
		Shed:       s.shed.Load(),
		Expired:    s.expired.Load(),
		Reloads:    s.reloads.Load(),
		Rejected:   s.rejected.Load(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
