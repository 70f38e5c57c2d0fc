package main

import (
	"math/rand"
	"strconv"
)

// class is a request type of the serving protocol.
type class uint8

const (
	clsRank class = iota
	clsPoint
	clsBox
	clsPages
	clsBatch
)

var classNames = [...]string{"rank", "point", "box", "pages", "batch"}

// scan reports whether the class answers a box (the scan latency class);
// rank and point are lookups.
func (c class) scan() bool { return c >= clsBox }

// box is a half-open query box [start, start+dims).
type box struct{ start, dims []int }

// request is one generated protocol request: its parsed form, which the
// answer oracle and the replays use, and its wire body.
type request struct {
	cls    class
	side   int   // box and pages: the box side; 0 otherwise
	coords []int // rank
	rank   int   // point
	boxes  []box // box and pages: one box; batch: batchSize boxes
	body   []byte
}

func (r *request) path() string { return "/v1/" + classNames[r.cls] }

// mixEntry is one request kind of a workload mix with its weight in
// percent. side fixes the box side of box requests; pages and batch boxes
// draw theirs from the mix's sides.
type mixEntry struct {
	cls    class
	side   int
	weight int
}

// mix describes a serving workload's request mix and box placement.
type mix struct {
	entries []mixEntry
	sides   []int // box sides pages and batch requests draw from
	batch   int   // boxes per batch request
	// zipf places boxes at Zipf-ranked positions of a per-side hot set
	// (a hot working set); otherwise positions are uniform over the grid.
	zipf    bool
	hotSize int
}

const zipfS = 1.1 // Zipf exponent of the hot-set ranks

// generator draws requests from a mix, deterministic in its seed.
type generator struct {
	rng   *rand.Rand
	dims  []int
	n     int
	mix   mix
	total int
	hot   map[int][][]int // side -> hot box origins
	zipf  *rand.Zipf
}

func newGenerator(seed int64, dims []int, n int, m mix) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed)), dims: dims, n: n, mix: m}
	for _, e := range m.entries {
		g.total += e.weight
	}
	if m.zipf {
		g.hot = map[int][][]int{}
		sides := append([]int(nil), m.sides...)
		for _, e := range m.entries {
			if e.side != 0 {
				sides = append(sides, e.side)
			}
		}
		for _, s := range sides {
			if _, ok := g.hot[s]; ok {
				continue
			}
			origins := make([][]int, m.hotSize)
			for i := range origins {
				origins[i] = g.uniformOrigin(s)
			}
			g.hot[s] = origins
		}
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(m.hotSize-1))
	}
	return g
}

func (g *generator) uniformOrigin(side int) []int {
	o := make([]int, len(g.dims))
	for i, d := range g.dims {
		o[i] = g.rng.Intn(d - side + 1)
	}
	return o
}

func (g *generator) box(side int) box {
	dims := make([]int, len(g.dims))
	for i := range dims {
		dims[i] = side
	}
	if g.mix.zipf {
		return box{start: g.hot[side][g.zipf.Uint64()], dims: dims}
	}
	return box{start: g.uniformOrigin(side), dims: dims}
}

func (g *generator) anySide() int { return g.mix.sides[g.rng.Intn(len(g.mix.sides))] }

// next draws one request.
func (g *generator) next() request {
	pick := g.rng.Intn(g.total)
	var e mixEntry
	for _, e = range g.mix.entries {
		if pick < e.weight {
			break
		}
		pick -= e.weight
	}
	r := request{cls: e.cls}
	b := []byte(nil)
	switch e.cls {
	case clsRank:
		r.coords = make([]int, len(g.dims))
		for i, d := range g.dims {
			r.coords[i] = g.rng.Intn(d)
		}
		b = appendCoordsBody(b, r.coords)
	case clsPoint:
		r.rank = g.rng.Intn(g.n)
		b = append(b, `{"rank":`...)
		b = strconv.AppendInt(b, int64(r.rank), 10)
		b = append(b, '}')
	case clsBox, clsPages:
		r.side = e.side
		if r.side == 0 {
			r.side = g.anySide()
		}
		r.boxes = []box{g.box(r.side)}
		b = appendBoxBody(b, r.boxes[0])
	case clsBatch:
		b = append(b, `{"boxes":[`...)
		for i := 0; i < g.mix.batch; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			bx := g.box(g.anySide())
			r.boxes = append(r.boxes, bx)
			b = appendBoxBody(b, bx)
		}
		b = append(b, "]}"...)
	}
	r.body = b
	return r
}

// stream draws count requests.
func (g *generator) stream(count int) []request {
	out := make([]request, count)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func appendInts(b []byte, vs []int) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// appendBoxBody writes {"start":[...],"dims":[...]}, the body shape the
// router also sends its workers, so a worker span's body identifies the
// router request it serves.
func appendBoxBody(b []byte, bx box) []byte {
	b = append(b, `{"start":`...)
	b = appendInts(b, bx.start)
	b = append(b, `,"dims":`...)
	b = appendInts(b, bx.dims)
	return append(b, '}')
}

func appendCoordsBody(b []byte, coords []int) []byte {
	b = append(b, `{"coords":`...)
	b = appendInts(b, coords)
	return append(b, '}')
}
