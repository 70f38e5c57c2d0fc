package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
)

// tornGeometry is a 4×4 grid in two shards: shard 0 owns ranks [0,4)
// inside x∈[0,1], y∈[0,3]; shard 1 owns [4,8) inside x∈[2,3]; the rank
// space is 2 pages of 4 records.
func tornGeometry() *geometry {
	return &geometry{
		d: 2, dims: []int{4, 4}, total: 8, rpp: 4, numPages: 2,
		lo:      [][]int{{0, 0}, {2, 0}},
		hi:      [][]int{{1, 3}, {3, 3}},
		offset:  []int{0, 4},
		records: []int{4, 4},
	}
}

// parsedReply is what a reply parses to: box rows, page runs, a rank
// (scalar) or a point (coords).
type parsedReply struct {
	ranks, coords []int
	runs          []spectrallpm.PageRun
	scalar        int
}

func (a parsedReply) equal(b parsedReply) bool {
	return slices.Equal(a.ranks, b.ranks) && slices.Equal(a.coords, b.coords) &&
		slices.Equal(a.runs, b.runs) && a.scalar == b.scalar
}

// parseReply runs the router's parser for one reply kind: 'b' box,
// 'p' pages, 'r' rank, 'c' point.
func parseReply(g *geometry, kind byte, s int, data []byte) (parsedReply, error) {
	var out parsedReply
	var err error
	switch kind {
	case 'b':
		var p boxPart
		err = g.parseBoxReply(s, data, &p)
		out.ranks, out.coords = p.ranks, p.coords
	case 'p':
		var p boxPart
		err = g.parsePagesReply(s, data, &p)
		out.runs = p.runs
	case 'r':
		out.scalar, err = g.parseRankReply(s, data)
	case 'c':
		out.coords, err = g.parsePointReply(s, data, nil)
	default:
		err = fmt.Errorf("unknown reply kind %q", kind)
	}
	return out, err
}

// referenceReply is the decoder the scanner replaced: encoding/json into
// the reply's wire struct, then the router's former validation rules.
// The pages rule is written so start+pages cannot overflow.
func referenceReply(g *geometry, kind byte, s int, data []byte) (parsedReply, error) {
	var out parsedReply
	lo, hi := g.offset[s], g.offset[s]+g.records[s]
	inBounds := func(coords []int) bool {
		for j, c := range coords {
			if c < g.lo[s][j] || c > g.hi[s][j] {
				return false
			}
		}
		return true
	}
	switch kind {
	case 'b':
		var rep struct {
			Count   int     `json:"count"`
			Results [][]int `json:"results"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			return out, err
		}
		if rep.Count != len(rep.Results) {
			return out, fmt.Errorf("count %d, rows %d", rep.Count, len(rep.Results))
		}
		prev := -1
		for _, row := range rep.Results {
			if len(row) != 1+g.d || row[0] < lo || row[0] >= hi || row[0] <= prev || !inBounds(row[1:]) {
				return out, fmt.Errorf("bad row %v", row)
			}
			prev = row[0]
			out.ranks = append(out.ranks, row[0])
			out.coords = append(out.coords, row[1:]...)
		}
	case 'p':
		var rep struct {
			Runs [][]int `json:"runs"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			return out, err
		}
		prevEnd := -1
		for _, run := range rep.Runs {
			if len(run) != 2 || run[1] < 1 || run[0] < 0 || run[0] >= g.numPages || run[1] > g.numPages-run[0] || run[0] <= prevEnd {
				return out, fmt.Errorf("bad run %v", run)
			}
			prevEnd = run[0] + run[1] - 1
			out.runs = append(out.runs, spectrallpm.PageRun{Start: run[0], Pages: run[1]})
		}
	case 'r':
		var rep struct {
			Rank int `json:"rank"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			return out, err
		}
		if rep.Rank < lo || rep.Rank >= hi {
			return out, fmt.Errorf("rank %d outside [%d,%d)", rep.Rank, lo, hi)
		}
		out.scalar = rep.Rank
	case 'c':
		var rep struct {
			Coords []int `json:"coords"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			return out, err
		}
		if len(rep.Coords) != g.d || !inBounds(rep.Coords) {
			return out, fmt.Errorf("bad point %v", rep.Coords)
		}
		out.coords = rep.Coords
	}
	return out, nil
}

// encodeReply writes r back out through the workers' own encoders.
func encodeReply(g *geometry, kind byte, r parsedReply) []byte {
	switch kind {
	case 'b':
		b, countAt := server.AppendBoxHeader(nil)
		for i, rank := range r.ranks {
			b = server.AppendBoxRow(b, i == 0, rank, r.coords[i*g.d:(i+1)*g.d])
		}
		return server.FinishBoxResponse(b, countAt, len(r.ranks), nil)
	case 'p':
		return server.AppendPagesResponse(nil, r.runs, nil)
	case 'r':
		return server.AppendRankResponse(nil, r.scalar)
	default:
		return server.AppendPointResponse(nil, r.coords)
	}
}

// FuzzWorkerReplies pins the reply scanner against the decoder it
// replaced. For any body, kind and shard: the scanner never panics;
// whatever it accepts, encoding/json plus the former validation rules
// also accept, with the same ranks, coordinates, runs or scalar; and
// whatever the reference accepts, re-encoded by the workers' encoders,
// the scanner accepts with the same values.
func FuzzWorkerReplies(f *testing.F) {
	g := tornGeometry()
	seeds := []parsedReply{
		{ranks: []int{0, 3}, coords: []int{0, 0, 1, 3}},
		{ranks: []int{4, 5, 7}, coords: []int{2, 0, 2, 1, 3, 3}},
		{},
		{runs: []spectrallpm.PageRun{{Start: 0, Pages: 1}, {Start: 1, Pages: 1}}},
		{runs: []spectrallpm.PageRun{{Start: 0, Pages: 2}}},
		{scalar: 3},
		{scalar: 6},
		{coords: []int{1, 3}},
		{coords: []int{3, 0}},
	}
	const kinds = "bprc"
	for k := range len(kinds) {
		for s := range 2 {
			for _, r := range seeds {
				if kinds[k] == 'c' && len(r.coords) != g.d {
					continue
				}
				f.Add(uint8(k), uint8(s), encodeReply(g, kinds[k], r))
			}
		}
	}
	for _, body := range []string{
		`{"count":1,"results":[[0,0,0]]}x`,
		` { "results" : [ [0, 0,0] ] , "count" : 1 }`,
		`{"count":1,"results":[[01,0,0]]}`,
		`{"runs":[[1,9223372036854775807]]}`,
		`{"rank":-0}`,
		`{"coords":[1.0,2]}`,
	} {
		for k := range len(kinds) {
			f.Add(uint8(k), uint8(0), []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, k, shard uint8, data []byte) {
		kind := kinds[int(k)%len(kinds)]
		s := int(shard) % len(g.offset)
		got, err := parseReply(g, kind, s, data)
		want, refErr := referenceReply(g, kind, s, data)
		if err == nil {
			if refErr != nil {
				t.Fatalf("kind %c shard %d: scanner accepted %q, reference rejects it: %v", kind, s, data, refErr)
			}
			if !got.equal(want) {
				t.Fatalf("kind %c shard %d: %q parsed to %+v, reference %+v", kind, s, data, got, want)
			}
		}
		if refErr != nil {
			return
		}
		enc := encodeReply(g, kind, want)
		again, err := parseReply(g, kind, s, enc)
		if err != nil {
			t.Fatalf("kind %c shard %d: encoder output %q rejected: %v", kind, s, enc, err)
		}
		if !again.equal(want) {
			t.Fatalf("kind %c shard %d: encoder output %q parsed to %+v, want %+v", kind, s, enc, again, want)
		}
	})
}

// TestReplyScanZeroAlloc pins the scanner's allocation contract: a
// 64-row box reply parsed into a reused boxPart, and pages, rank and
// point replies into reused storage, allocate nothing.
func TestReplyScanZeroAlloc(t *testing.T) {
	g := &geometry{
		d: 2, dims: []int{8, 8}, total: 64, rpp: 4, numPages: 16,
		lo: [][]int{{0, 0}}, hi: [][]int{{7, 7}},
		offset: []int{0}, records: []int{64},
	}
	var want parsedReply
	for r := range 64 {
		want.ranks = append(want.ranks, r)
		want.coords = append(want.coords, r/8, r%8)
	}
	box := encodeReply(g, 'b', want)
	pages := encodeReply(g, 'p', parsedReply{runs: []spectrallpm.PageRun{{Start: 0, Pages: 3}, {Start: 5, Pages: 2}, {Start: 9, Pages: 7}}})
	rank := encodeReply(g, 'r', parsedReply{scalar: 63})
	point := encodeReply(g, 'c', parsedReply{coords: []int{7, 7}})

	var p boxPart
	var coords []int
	run := func() {
		if err := g.parseBoxReply(0, box, &p); err != nil {
			t.Fatal(err)
		}
		if err := g.parsePagesReply(0, pages, &p); err != nil {
			t.Fatal(err)
		}
		if _, err := g.parseRankReply(0, rank); err != nil {
			t.Fatal(err)
		}
		var err error
		if coords, err = g.parsePointReply(0, point, coords[:0]); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("reply parsing allocates %v times per run, want 0", allocs)
	}
	if !slices.Equal(p.ranks, want.ranks) || !slices.Equal(p.coords, want.coords) {
		t.Fatalf("box reply parsed to %v / %v", p.ranks, p.coords)
	}
}

// TestOversizedReplyRejected has shard 1's only worker stream a box
// reply without end. The router must stop reading at the shard's reply
// limit and count the attempt failed: 502 in strict mode, a labeled
// partial with -partial — and it must not wait on the stream.
func TestOversizedReplyRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sharded.slpm")
	writeShardedFile(t, path, 2, spectrallpm.WithGrid(8, 8), spectrallpm.WithPageSize(4))
	endless := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/box" {
				next.ServeHTTP(w, r)
				return
			}
			row := []byte(strings.Repeat("[32,4,0],", 512))
			if _, err := w.Write([]byte(`{"count":1,"results":[`)); err != nil {
				return
			}
			for r.Context().Err() == nil {
				if _, err := w.Write(row); err != nil {
					return
				}
			}
		})
	}
	w0 := startWorker(t, path, 0, nil)
	w1 := startWorker(t, path, 1, endless)
	topo := &Topology{Shards: []ShardReplicas{
		{Shard: 0, Replicas: []string{w0.addr()}},
		{Shard: 1, Replicas: []string{w1.addr()}},
	}}
	body := boxBody(spectrallpm.Box{Start: []int{0, 0}, Dims: []int{8, 8}})

	strict := startRouter(t, topo, func(c *RouterConfig) { c.Retries = -1 })
	handshake(t, strict)
	if w := rpost(strict, "/v1/box", body); w.Code != http.StatusBadGateway || !strings.Contains(w.Body.String(), "limit") {
		t.Fatalf("strict: status %d body %q, want 502 naming the reply limit", w.Code, w.Body)
	}

	partial := startRouter(t, topo, func(c *RouterConfig) { c.Partial = true; c.Retries = -1 })
	handshake(t, partial)
	got := decodeBox(t, rpost(partial, "/v1/box", body))
	if !slices.Equal(got.ShardsMissing, []int{1}) || got.Count != len(got.Results) || got.Count == 0 {
		t.Fatalf("partial: count %d, %d rows, shards_missing %v; want shard 0's rows and [1]", got.Count, len(got.Results), got.ShardsMissing)
	}
}
