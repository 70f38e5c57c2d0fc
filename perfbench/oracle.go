package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"net/http"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
)

// digest identifies a response body: its length and a 64-bit keyed hash.
// The load generator hashes each reply as it streams in, so it keeps no
// bodies; the oracle hashes the bytes it expects with the same key.
type digest struct {
	n   int64
	sum uint64
}

// expectedBody appends to b what a single daemon serving q answers for rq:
// the same query methods and the same server.Append* encoders its handlers
// use. For the cluster, q is the whole sharded container, so this is the
// answer of a daemon serving that container, which the router must match
// byte for byte.
func expectedBody(q server.Queryable, rq *request, b []byte) ([]byte, error) {
	ctx := context.Background()
	switch rq.cls {
	case clsRank:
		r, err := q.Rank(rq.coords...)
		if err != nil {
			return b, err
		}
		return server.AppendRankResponse(b, r), nil
	case clsPoint:
		c, err := q.Point(rq.rank)
		if err != nil {
			return b, err
		}
		return server.AppendPointResponse(b, c), nil
	case clsBox:
		b, countAt := server.AppendBoxHeader(b)
		count := 0
		bx := rq.boxes[0]
		err := q.ScanIntoContext(ctx, spectrallpm.Box{Start: bx.start, Dims: bx.dims}, func(rank int, coords []int) bool {
			b = server.AppendBoxRow(b, count == 0, rank, coords)
			count++
			return true
		})
		if err != nil {
			return b, err
		}
		return server.FinishBoxResponse(b, countAt, count, nil), nil
	case clsPages:
		bx := rq.boxes[0]
		runs, err := q.PagesIntoContext(ctx, spectrallpm.Box{Start: bx.start, Dims: bx.dims}, nil)
		if err != nil {
			return b, err
		}
		return server.AppendPagesResponse(b, runs, nil), nil
	case clsBatch:
		boxes := make([]spectrallpm.Box, len(rq.boxes))
		for i, bx := range rq.boxes {
			boxes[i] = spectrallpm.Box{Start: bx.start, Dims: bx.dims}
		}
		stats, err := q.QueryBatchContext(ctx, boxes)
		if err != nil {
			return b, err
		}
		return server.AppendBatchResponse(b, stats, nil), nil
	}
	return b, fmt.Errorf("perfbench: unknown request class %d", rq.cls)
}

// oracle checks replies against expectedBody and measures the paper's
// locality cost of each box request.
type oracle struct {
	q     server.Queryable
	seed  maphash.Seed
	buf   []byte
	cache map[string]oracleEntry // by path and body: hot-set workloads repeat requests
}

type oracleEntry struct {
	d     digest
	seeks int // IOStats.Seeks summed over the request's boxes
}

func newOracle(q server.Queryable, seed maphash.Seed) *oracle {
	return &oracle{q: q, seed: seed, cache: map[string]oracleEntry{}}
}

func (o *oracle) expect(rq *request) (oracleEntry, error) {
	key := rq.path() + string(rq.body)
	if e, ok := o.cache[key]; ok {
		return e, nil
	}
	var err error
	o.buf, err = expectedBody(o.q, rq, o.buf[:0])
	if err != nil {
		return oracleEntry{}, err
	}
	e := oracleEntry{d: digest{n: int64(len(o.buf)), sum: maphash.Bytes(o.seed, o.buf)}}
	for _, bx := range rq.boxes {
		st, err := o.q.QueryIOContext(context.Background(), spectrallpm.Box{Start: bx.start, Dims: bx.dims})
		if err != nil {
			return oracleEntry{}, err
		}
		e.seeks += st.Seeks
	}
	o.cache[key] = e
	return e, nil
}

// verdict is the oracle's judgement of a set of samples.
type verdict struct {
	attempted, failed int
	boxes, seeks      int
	firstErr          string
}

// check judges every sent sample: a non-200 status, a transport error, or
// a body that differs from the expected one is a failure.
func (o *oracle) check(stream []request, samples []sample) verdict {
	var v verdict
	for i := range samples {
		s := &samples[i]
		if s.skipped {
			continue
		}
		v.attempted++
		rq := &stream[s.req]
		e, err := o.expect(rq)
		switch {
		case err != nil:
			s.bad = true
			v.note(fmt.Sprintf("oracle %s %s: %v", rq.path(), rq.body, err))
		case s.err != nil:
			s.bad = true
			v.note(fmt.Sprintf("%s %s: %v", rq.path(), rq.body, s.err))
		case s.status != http.StatusOK:
			s.bad = true
			v.note(fmt.Sprintf("%s %s: status %d", rq.path(), rq.body, s.status))
		case s.d != e.d:
			s.bad = true
			v.note(fmt.Sprintf("%s %s: reply differs from the oracle (%d bytes, want %d)", rq.path(), rq.body, s.d.n, e.d.n))
		}
		if s.bad {
			v.failed++
		}
		v.boxes += len(rq.boxes)
		v.seeks += e.seeks
	}
	return v
}

func (v *verdict) note(msg string) {
	if v.firstErr == "" {
		v.firstErr = msg
	}
}

func (v *verdict) add(w verdict) {
	v.attempted += w.attempted
	v.failed += w.failed
	v.boxes += w.boxes
	v.seeks += w.seeks
	v.note(w.firstErr)
}
