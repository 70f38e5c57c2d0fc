// Worker reply parsing. Every per-query reply a worker sends — box, pages,
// rank and point — is parsed and validated in one strict pass by the
// scanner below, straight into the caller's slices: no reflection, no
// per-row slice, and no allocation at all once the destination has
// capacity. The grammar is the wire format's JSON, read strictly:
//
//   - the body must be exactly one object of the reply's shape; a
//     truncated body or trailing bytes are rejected;
//   - every field is required, an unknown or repeated key is rejected, and
//     insignificant whitespace and either key order are accepted;
//   - numbers must be JSON integers that fit an int: a fraction, an
//     exponent, a leading zero or an overflowing value is rejected.
//
// The semantic checks run as each value is read: the box reply's count
// must equal its row count and lie within the shard's records, a row is
// exactly [rank, c0, ..., c(d-1)], ranks lie in the shard's rank block and
// strictly increase, coordinates lie inside the shard's bounding box, and
// page runs lie within [0, numPages) in strictly increasing order. A
// rejected reply becomes a failed attempt, never a merged row.
package cluster

import (
	"bytes"
	"fmt"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
)

// Reply keys with their quotes, so a key only matches whole.
var (
	keyCount   = []byte(`"count"`)
	keyResults = []byte(`"results"`)
	keyRuns    = []byte(`"runs"`)
	keyRank    = []byte(`"rank"`)
	keyCoords  = []byte(`"coords"`)
)

// Rejection reasons shared by several reply kinds.
const (
	whyInt    = "want an integer that fits an int"
	whyObject = "want the closing } and the end of the reply"
)

// replyScanner is a cursor over one reply body. Each method first skips
// insignificant whitespace, then reports whether the token it wants is
// there; after a false (but see key) the reply is rejected, so the
// cursor position only serves the error message.
type replyScanner struct {
	b []byte
	i int
}

func (sc *replyScanner) skipSpace() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// tok consumes the structural byte c.
func (sc *replyScanner) tok(c byte) bool {
	sc.skipSpace()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// key consumes k (a quoted key) and the colon after it. Unlike the other
// methods it consumes nothing on false, so a caller may try the next key.
func (sc *replyScanner) key(k []byte) bool {
	sc.skipSpace()
	at := sc.i
	if bytes.HasPrefix(sc.b[at:], k) {
		sc.i += len(k)
		if sc.tok(':') {
			return true
		}
	}
	sc.i = at
	return false
}

// closeObject consumes the closing brace and requires that nothing but
// whitespace follows it.
func (sc *replyScanner) closeObject() bool {
	if !sc.tok('}') {
		return false
	}
	sc.skipSpace()
	return sc.i == len(sc.b)
}

// integer consumes a JSON integer that fits an int: an optional minus,
// then 0 or digits without a leading zero. A fraction or exponent is left
// unconsumed, so the caller's next token check rejects 1.5 or 1e3.
func (sc *replyScanner) integer() (int, bool) {
	sc.skipSpace()
	neg := sc.i < len(sc.b) && sc.b[sc.i] == '-'
	if neg {
		sc.i++
	}
	limit := uint(^uint(0) >> 1) // largest int
	if neg {
		limit++
	}
	start := sc.i
	var u uint
	for ; sc.i < len(sc.b); sc.i++ {
		d := uint(sc.b[sc.i] - '0')
		if d > 9 {
			break
		}
		if u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if n := sc.i - start; n == 0 || n > 1 && sc.b[start] == '0' {
		return 0, false
	}
	v := int(u)
	if neg {
		v = -v
	}
	return v, true
}

// parseBoxReply parses shard s's /v1/box reply,
// {"count":N,"results":[[rank,c0,...],...]}, into p.ranks and p.coords,
// reusing their capacity.
//
//lpm:allocfree — the rejection branch excepted.
func (g *geometry) parseBoxReply(s int, data []byte, p *boxPart) error {
	sc := replyScanner{b: data}
	if why := g.scanBoxReply(&sc, s, p); why != "" {
		//lpm:allocok — rejection branch; an accepted reply never reaches it.
		return fmt.Errorf("cluster: shard %d box reply rejected at byte %d: %s", s, sc.i, why)
	}
	return nil
}

// scanBoxReply is parseBoxReply's pass; it returns why the reply was
// rejected, or "". The count is read before the rows on the wire, so it
// presizes the destination — after it is checked against the shard's
// record count, so a hostile count cannot force a large allocation.
//
//lpm:allocfree
func (g *geometry) scanBoxReply(sc *replyScanner, s int, p *boxPart) string {
	p.ranks, p.coords = p.ranks[:0], p.coords[:0]
	count, rows := -1, false
	if !sc.tok('{') {
		return "want {"
	}
	for {
		switch {
		case count < 0 && sc.key(keyCount):
			n, ok := sc.integer()
			if !ok {
				return whyInt
			}
			if n < 0 || n > g.records[s] {
				return "count outside the shard's record count"
			}
			count = n
			// Presize only before the rows: rows read first already sit
			// in p, and the final count check judges them.
			if !rows && cap(p.ranks) < n {
				p.ranks = make([]int, 0, n)
			}
			if !rows && cap(p.coords) < n*g.d {
				p.coords = make([]int, 0, n*g.d)
			}
		case !rows && sc.key(keyResults):
			rows = true
			if why := g.scanRows(sc, s, p); why != "" {
				return why
			}
		default:
			return `want the key "count" or "results", each once`
		}
		if !sc.tok(',') {
			break
		}
	}
	if !sc.closeObject() {
		return whyObject
	}
	if count < 0 || !rows {
		return `want both "count" and "results"`
	}
	if count != len(p.ranks) {
		return "count differs from the number of rows"
	}
	return ""
}

// scanRows reads the box reply's results array: rows of exactly 1+d
// integers, ranks strictly increasing inside the shard's rank block,
// coordinates inside its bounding box.
//
//lpm:allocfree
func (g *geometry) scanRows(sc *replyScanner, s int, p *boxPart) string {
	if !sc.tok('[') {
		return "want ["
	}
	if sc.tok(']') {
		return ""
	}
	lo, hi := g.offset[s], g.offset[s]+g.records[s]
	prev := lo - 1
	for {
		if !sc.tok('[') {
			return "want a row"
		}
		r, ok := sc.integer()
		if !ok {
			return whyInt
		}
		if r < lo || r >= hi {
			return "rank outside the shard's rank block"
		}
		if r <= prev {
			return "ranks not strictly increasing"
		}
		prev = r
		p.ranks = append(p.ranks, r)
		for j := 0; j < g.d; j++ {
			if !sc.tok(',') {
				return "row shorter than 1+d"
			}
			c, ok := sc.integer()
			if !ok {
				return whyInt
			}
			if c < g.lo[s][j] || c > g.hi[s][j] {
				return "coordinate outside the shard's bounds"
			}
			p.coords = append(p.coords, c)
		}
		if !sc.tok(']') {
			return "row longer than 1+d"
		}
		if !sc.tok(',') {
			break
		}
	}
	if !sc.tok(']') {
		return "want ] after the rows"
	}
	return ""
}

// parsePagesReply parses shard s's /v1/pages reply,
// {"runs":[[start,pages],...]}, into p.runs, reusing its capacity.
//
//lpm:allocfree — the rejection branch excepted.
func (g *geometry) parsePagesReply(s int, data []byte, p *boxPart) error {
	sc := replyScanner{b: data}
	if why := g.scanPagesReply(&sc, p); why != "" {
		//lpm:allocok — rejection branch; an accepted reply never reaches it.
		return fmt.Errorf("cluster: shard %d pages reply rejected at byte %d: %s", s, sc.i, why)
	}
	return nil
}

// scanPagesReply is parsePagesReply's pass: runs of at least one page
// inside [0, numPages), each starting past the end of the one before.
//
//lpm:allocfree
func (g *geometry) scanPagesReply(sc *replyScanner, p *boxPart) string {
	p.runs = p.runs[:0]
	if !sc.tok('{') || !sc.key(keyRuns) || !sc.tok('[') {
		return `want {"runs":[`
	}
	if !sc.tok(']') {
		next := 0 // the lowest page the next run may start at
		for {
			if !sc.tok('[') {
				return "want a [start,pages] run"
			}
			start, ok := sc.integer()
			if !ok {
				return whyInt
			}
			if !sc.tok(',') {
				return "want a [start,pages] run"
			}
			pages, ok := sc.integer()
			if !ok {
				return whyInt
			}
			if !sc.tok(']') {
				return "want a [start,pages] run"
			}
			if start < 0 || pages < 1 || start >= g.numPages || pages > g.numPages-start {
				return "run outside [0,numPages)"
			}
			if start < next {
				return "runs not strictly ordered"
			}
			next = start + pages
			p.runs = append(p.runs, spectrallpm.PageRun{Start: start, Pages: pages})
			if !sc.tok(',') {
				break
			}
		}
		if !sc.tok(']') {
			return "want ] after the runs"
		}
	}
	if !sc.closeObject() {
		return whyObject
	}
	return ""
}

// parseRankReply parses shard s's /v1/rank reply, {"rank":N}, whose rank
// must lie in the shard's rank block.
//
//lpm:allocfree — the rejection branch excepted.
func (g *geometry) parseRankReply(s int, data []byte) (int, error) {
	sc := replyScanner{b: data}
	rank, why := g.scanRankReply(&sc, s)
	if why != "" {
		//lpm:allocok — rejection branch; an accepted reply never reaches it.
		return 0, fmt.Errorf("cluster: shard %d rank reply rejected at byte %d: %s", s, sc.i, why)
	}
	return rank, nil
}

//lpm:allocfree
func (g *geometry) scanRankReply(sc *replyScanner, s int) (int, string) {
	if !sc.tok('{') || !sc.key(keyRank) {
		return 0, `want {"rank":`
	}
	r, ok := sc.integer()
	if !ok {
		return 0, whyInt
	}
	if r < g.offset[s] || r >= g.offset[s]+g.records[s] {
		return 0, "rank outside the shard's rank block"
	}
	if !sc.closeObject() {
		return 0, whyObject
	}
	return r, ""
}

// parsePointReply parses shard s's /v1/point reply, {"coords":[...]},
// appending its d coordinates, each inside the shard's bounding box, to
// dst.
//
//lpm:allocfree — the rejection branch excepted.
func (g *geometry) parsePointReply(s int, data []byte, dst []int) ([]int, error) {
	sc := replyScanner{b: data}
	out, why := g.scanPointReply(&sc, s, dst)
	if why != "" {
		//lpm:allocok — rejection branch; an accepted reply never reaches it.
		return dst, fmt.Errorf("cluster: shard %d point reply rejected at byte %d: %s", s, sc.i, why)
	}
	return out, nil
}

//lpm:allocfree
func (g *geometry) scanPointReply(sc *replyScanner, s int, dst []int) ([]int, string) {
	if !sc.tok('{') || !sc.key(keyCoords) || !sc.tok('[') {
		return dst, `want {"coords":[`
	}
	for j := 0; j < g.d; j++ {
		if j > 0 && !sc.tok(',') {
			return dst, "fewer than d coordinates"
		}
		c, ok := sc.integer()
		if !ok {
			return dst, whyInt
		}
		if c < g.lo[s][j] || c > g.hi[s][j] {
			return dst, "coordinate outside the shard's bounds"
		}
		dst = append(dst, c)
	}
	if !sc.tok(']') {
		return dst, "more than d coordinates"
	}
	if !sc.closeObject() {
		return dst, whyObject
	}
	return dst, ""
}
