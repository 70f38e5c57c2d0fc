package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	spectrallpm "github.com/spectral-lpm/spectrallpm"
	"github.com/spectral-lpm/spectrallpm/internal/server"
)

// servingWorkload is an HTTP serving workload: a system under test behind
// one loopback address, a request mix, the rate it is measured at, and the
// fixed ladder of rates max_rps is searched on.
type servingWorkload struct {
	name    string
	dims    []int
	mix     mix
	nominal float64   // requests per second of the latency phase
	windows int       // the nominal phase's latency figures are the median over this many windows
	ladder  []float64 // fixed rate steps, ascending
	step    time.Duration
	lim     limits
	build   func() (indexFile, error) // the served index, as set-up builds it
	setup   func(rc *runCtx) (*target, error)
	// layers fills the workload's own per-layer metrics from the traced
	// nominal phase.
	layers func(rc *runCtx, tgt *target, t *tracedPhase, rep report)
}

// target is a running system under test.
type target struct {
	addr    string           // what the load generator talks to
	oracle  server.Queryable // the same index, opened separately, for expected answers
	setupS  float64          // build, write, open, listen and first verified answer
	buildS  float64          // build and WriteToV2
	openMs  float64          // open, listen and first verified answer
	reload  func() error     // one hot reload under load
	stats   func() (map[string]float64, error)
	handler http.Handler // a server.Server handler, for the reused-request alloc probe
	probe   []byte       // a rank request body that handler answers
	stop    func()
	n       int // records
}

// setupReps is how many times each run sets the system up: set-up time is
// the median, and the last instance serves the load. buildReps more builds
// (with their write) join the set-ups' in the build_s median.
const (
	setupReps = 15
	buildReps = 10
)

// serve starts an HTTP server for h on a fresh loopback port.
func serve(h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if hs.Shutdown(ctx) != nil {
			hs.Close()
		}
		<-done
	}, nil
}

// getJSON fetches a JSON document from a loopback server.
func getJSON(url string, dst any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// firstAnswer sends one request and checks its reply against the oracle:
// the set-up handshake that makes the system count as serving.
func firstAnswer(addr string, oracleQ server.Queryable, rq *request) error {
	resp, err := http.Post("http://"+addr+rq.path(), "application/json", bytes.NewReader(rq.body))
	if err != nil {
		return err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	want, err := expectedBody(oracleQ, rq, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		return fmt.Errorf("first answer: status %d, %d bytes, want %d bytes", resp.StatusCode, len(got), len(want))
	}
	return nil
}

// handshakeRequest is the request the set-up waits on: a 16-side box at
// the grid's origin.
func handshakeRequest(d int) *request {
	dims := make([]int, d)
	for i := range dims {
		dims[i] = 16
	}
	bx := box{start: make([]int, d), dims: dims}
	return &request{cls: clsBox, side: 16, boxes: []box{bx}, body: appendBoxBody(nil, bx)}
}

// swapper alternates two identical pre-written index files under one
// served path by hard link and rename, so each hot reload opens a new
// inode, as a deployment replacing the file would.
type swapper struct {
	path, a, b string
	flip       bool
}

func (s *swapper) swap() error {
	src := s.a
	if s.flip {
		src = s.b
	}
	s.flip = !s.flip
	tmp := s.path + ".tmp"
	os.Remove(tmp)
	if err := os.Link(src, tmp); err != nil {
		return err
	}
	return os.Rename(tmp, s.path)
}

// indexFile is a built index or sharded container, ready to be written.
type indexFile interface {
	WriteToV2(io.Writer) (int64, error)
}

// writeIndexFile writes an index with WriteToV2.
func writeIndexFile(path string, w indexFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.WriteToV2(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeBuild builds the served index and writes it, as set-up does, and
// returns the seconds that took.
func timeBuild(rc *runCtx, w *servingWorkload) (float64, error) {
	dir, err := rc.tempDir()
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	ix, err := w.build()
	if err != nil {
		return 0, err
	}
	if err := writeIndexFile(filepath.Join(dir, "index"), ix); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// reloading runs fn while hot-reloading the target every interval, and
// returns the reload durations in milliseconds. Reload failures count
// against the run.
func reloading(rc *runCtx, tgt *target, every time.Duration, fn func()) []float64 {
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var durs []float64
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- durs
				return
			case <-t.C:
				t0 := time.Now()
				err := tgt.reload()
				durs = append(durs, ms(time.Since(t0)))
				if err != nil {
					rc.verdict.failed++
					rc.verdict.note(fmt.Sprintf("reload: %v", err))
				}
			}
		}
	}()
	fn()
	close(stop)
	durs := <-done
	rc.verdict.attempted += len(durs)
	return durs
}

const (
	// stepWindows is how many windows each ladder step's scan tail is the
	// median over, so one stall does not decide a step.
	stepWindows = 4
	// nominalShare is the part of --seconds the nominal phase takes; the
	// ladder gets the rest.
	nominalShare = 0.4
	// The warm-up reloads in a quick burst, so reload_ms has enough
	// samples; the nominal phase reloads every few seconds, as a
	// deployment would, and its latencies include that.
	warmup          = 3 * time.Second
	warmReloadEvery = 150 * time.Millisecond
	reloadEvery     = 4 * time.Second
	traceWindow     = time.Second
	cannedFor       = 2 * time.Second
)

// tracedPhase is what a traced nominal phase leaves for the per-layer
// figures.
type tracedPhase struct {
	stream []request
	ph     phase
	spans  []span
}

// box64 reports whether stream request i is a 64-side box: the class both
// serving workloads share and the cluster-versus-daemon gap is read on.
func box64(rq *request) bool { return rq.cls == clsBox && rq.side == 64 }

func runServing(rc *runCtx, w *servingWorkload) error {
	var setups, builds, opens []float64
	var tgt *target
	for i := 0; i < setupReps; i++ {
		if tgt != nil {
			tgt.stop()
		}
		runtime.GC() // each set-up starts from the same heap, not the last one's garbage
		var err error
		tgt, err = w.setup(rc)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups, builds, opens = append(setups, tgt.setupS), append(builds, tgt.buildS), append(opens, tgt.openMs)
	}
	defer tgt.stop()
	for i := 0; i < buildReps; i++ {
		runtime.GC()
		d, err := timeBuild(rc, w)
		if err != nil {
			return fmt.Errorf("%s build: %w", w.name, err)
		}
		builds = append(builds, d)
	}
	rc.rep.set("setup_s", median(setups))
	rc.rep.set("build_s", median(builds))
	rc.rep.set("open_ms", median(opens))

	nominalDur := max(time.Duration(float64(rc.seconds)*nominalShare*float64(time.Second)), 2*time.Second)
	count := int(w.nominal * (warmup + nominalDur + cannedFor).Seconds())
	if !rc.traced {
		for _, r := range w.ladder {
			count += int(r * w.step.Seconds())
		}
	}
	stream := newGenerator(rc.seed, w.dims, tgt.n, w.mix).stream(count)
	orc := newOracle(tgt.oracle, rc.hashSeed)
	lg := newLoadGen(tgt.addr, rc.hashSeed, rc.tr)
	defer lg.close()

	checked := func(p phase) phaseStats {
		v := orc.check(stream, p.samples)
		rc.verdict.add(v)
		return p.stats(stream)
	}
	start := time.Now()
	pos := 0
	var warm, nom phase
	reloads := reloading(rc, tgt, warmReloadEvery, func() { warm = lg.run(stream, pos, w.nominal, warmup, 0) })
	pos += len(warm.samples)
	checked(warm)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	window := time.Duration(0)
	if rc.traced {
		window = traceWindow
	}
	reloads = append(reloads, reloading(rc, tgt, reloadEvery, func() { nom = lg.run(stream, pos, w.nominal, nominalDur, window) })...)
	runtime.ReadMemStats(&ms1)
	pos += len(nom.samples)
	boxesBefore, seeksBefore := rc.verdict.boxes, rc.verdict.seeks
	ns := checked(nom)
	scanW, lookupW := nom.windowed(stream, true, w.windows), nom.windowed(stream, false, w.windows)
	rc.logf("%s nominal %.0f/s for %v: scan %v ms; lookup %v ms; late %v ms; backlog %d; %d reloads",
		w.name, w.nominal, nominalDur, ns.scan, ns.lookup, ns.late, ns.backlog, len(reloads))
	rc.logf("%s nominal, median of %d windows: scan %v ms; lookup %v ms", w.name, w.windows, scanW, lookupW)
	rc.rep.set("scan_p50_ms", scanW.P50)
	rc.rep.set("scan_p99_ms", scanW.Tail)
	rc.rep.set("lookup_p50_ms", lookupW.P50)
	rc.rep.set("lookup_p99_ms", lookupW.Tail)
	rc.rep.set("reload_ms", median(reloads))
	if b := rc.verdict.boxes - boxesBefore; b > 0 {
		rc.rep.set("seeks_per_box", float64(rc.verdict.seeks-seeksBefore)/float64(b))
	}
	rc.rep.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	rc.rep.set("runtime.heap_mb", float64(ms1.HeapInuse)/(1<<20))

	if rc.traced {
		return tracedServing(rc, w, tgt, orc, stream, nom, pos)
	}

	deadline := start.Add(warmup + time.Duration(rc.seconds)*time.Second)
	steps := climb(w.ladder, w.lim, func(rate float64) (phaseStats, bool) {
		if time.Until(deadline) < w.step {
			return phaseStats{}, false
		}
		p := lg.run(stream, pos, rate, w.step, 0)
		pos += len(p.samples)
		st := checked(p)
		st.scan = p.windowed(stream, true, stepWindows)
		return st, true
	})
	for _, s := range steps {
		rc.logf("%s ladder %6.0f/s: achieved %7.1f/s, scan %v ms, late %v ms, backlog %d: %s %s",
			w.name, s.rate, s.stats.achieved, s.stats.scan, s.stats.late, s.stats.backlog, s.verdict, s.reason)
	}
	rc.rep.set("max_rps", maxRate(steps, w.lim))
	return nil
}

// tracedServing derives the per-layer figures of a serving workload from
// the traced nominal phase, a canned-harness phase and replays of the
// recorded request stream.
func tracedServing(rc *runCtx, w *servingWorkload, tgt *target, orc *oracle, stream []request, nom phase, pos int) error {
	// Tracing overhead: scan latency with recording on against off, in the
	// alternating windows of the same phase.
	var on, off []float64
	for _, s := range nom.samples {
		if s.skipped || s.bad || !stream[s.req].cls.scan() {
			continue
		}
		if s.traced {
			on = append(on, ms(s.latency()))
		} else {
			off = append(off, ms(s.latency()))
		}
	}
	if len(on) > 0 && len(off) > 0 {
		rc.rep.set("trace.overhead_pct", 100*(median(on)/median(off)-1))
	}
	lateXs := make([]float64, 0, len(nom.samples))
	for _, s := range nom.samples {
		if !s.skipped {
			lateXs = append(lateXs, ms(s.late()))
		}
	}
	rc.rep.set("client.late_p99_ms", summarize(lateXs).Tail)

	tp := &tracedPhase{stream: stream, ph: nom, spans: rc.tr.snapshot()}
	byReq := map[int64]span{}
	var writes, opens []float64 // set-up writes; set-up and reload opens
	for _, s := range tp.spans {
		switch s.Name {
		case "client":
			byReq[s.Req] = s
		case "codec.write_v2":
			writes = append(writes, float64(s.dur())/1e6)
		case "codec.open_mapped":
			opens = append(opens, float64(s.dur())/1e6)
		}
	}
	rc.rep.set("codec.write_v2_ms", median(writes))
	rc.rep.set("codec.open_mapped_ms", median(opens))
	var c64 []float64
	for _, s := range nom.samples {
		if c, ok := byReq[int64(s.req)]; ok && box64(&stream[s.req]) {
			c64 = append(c64, float64(c.dur())/1e3)
		}
	}
	rc.rep.set("client.box64_us", median(c64))
	w.layers(rc, tgt, tp, rc.rep)

	if err := cannedPhase(rc, w, orc, stream, pos); err != nil {
		return err
	}
	if err := replayProtocol(rc, orc, stream, nom); err != nil {
		return err
	}
	allocs, err := handlerAllocs(tgt.handler, tgt.probe)
	if err != nil {
		return err
	}
	rc.rep.set("server.handler_allocs", allocs)
	return nil
}

// netSelf is the client round trip minus the first server's handler span,
// per lookup, matched by request id: the transport's own share.
func netSelf(stream []request, spans []span, handlerName string) float64 {
	client, handler := map[int64]span{}, map[int64]span{}
	for _, s := range spans {
		switch s.Name {
		case "client":
			client[s.Req] = s
		case handlerName:
			handler[s.Req] = s
		}
	}
	var xs []float64
	for id, c := range client {
		h, ok := handler[id]
		if ok && !stream[id].cls.scan() {
			xs = append(xs, float64(c.dur()-h.dur())/1e3)
		}
	}
	return median(xs)
}

// cannedPhase runs the same generator at the nominal rate against a
// handler that answers each request with a canned body of the size the
// real reply has: the harness's own round-trip cost.
func cannedPhase(rc *runCtx, w *servingWorkload, orc *oracle, stream []request, pos int) error {
	n := int(w.nominal * cannedFor.Seconds())
	if pos+n > len(stream) {
		n = len(stream) - pos
	}
	sizes := map[int]int{}
	for i := pos; i < pos+n; i++ {
		e, err := orc.expect(&stream[i])
		if err != nil {
			return err
		}
		sizes[i] = int(e.d.n)
	}
	addr, stop, err := serve(cannedHandler())
	if err != nil {
		return err
	}
	defer stop()
	lg := newLoadGen(addr, rc.hashSeed, nil)
	defer lg.close()
	lg.size = func(i int) int { return sizes[i] }
	p := lg.run(stream, pos, w.nominal, cannedFor, 0)
	var lookup, b64 []float64
	for _, s := range p.samples {
		if s.skipped || s.err != nil {
			continue
		}
		rt := float64(s.done-s.sent) / 1e3
		switch rq := &stream[s.req]; {
		case !rq.cls.scan():
			lookup = append(lookup, rt)
		case box64(rq):
			b64 = append(b64, rt)
		}
	}
	rc.rep.set("harness.roundtrip_us", median(lookup))
	rc.rep.set("harness.roundtrip_box64_us", median(b64))
	return nil
}

// replayProtocol times server.DecodeRequest and the box response encoders
// on the 64-side box requests the nominal phase sent.
func replayProtocol(rc *runCtx, orc *oracle, stream []request, nom phase) error {
	const maxReplay = 400
	type rows struct {
		ranks  []int
		coords []int
	}
	var reqs []*request
	for _, s := range nom.samples {
		if rq := &stream[s.req]; box64(rq) && len(reqs) < maxReplay {
			reqs = append(reqs, rq)
		}
	}
	if len(reqs) == 0 {
		return errors.New("no 64-side boxes to replay")
	}
	body := &rewindBody{}
	hr, err := http.NewRequest(http.MethodPost, "/v1/box", body)
	if err != nil {
		return err
	}
	var dec time.Duration
	for _, rq := range reqs {
		body.Reset(rq.body)
		hr.Body = body
		var br server.BoxRequest
		t0 := time.Now()
		err := server.DecodeRequest(hr, &br)
		dec += time.Since(t0)
		if err != nil {
			return err
		}
	}
	rc.rep.set("protocol.decode_us", float64(dec)/1e3/float64(len(reqs)))

	all := make([]rows, len(reqs))
	for i, rq := range reqs {
		bx := rq.boxes[0]
		err := orc.q.ScanIntoContext(context.Background(), spectrallpm.Box{Start: bx.start, Dims: bx.dims}, func(r int, c []int) bool {
			all[i].ranks = append(all[i].ranks, r)
			all[i].coords = append(all[i].coords, c...)
			return true
		})
		if err != nil {
			return err
		}
	}
	buf := make([]byte, 0, 1<<17)
	d := len(reqs[0].boxes[0].dims)
	var enc time.Duration
	for _, r := range all {
		t0 := time.Now()
		b, countAt := server.AppendBoxHeader(buf[:0])
		for j, rank := range r.ranks {
			b = server.AppendBoxRow(b, j == 0, rank, r.coords[j*d:(j+1)*d])
		}
		buf = server.FinishBoxResponse(b, countAt, len(r.ranks), nil)
		enc += time.Since(t0)
	}
	rc.rep.set("protocol.encode_us", float64(enc)/1e3/float64(len(reqs)))
	return nil
}

// rewindBody is a request body that can be reset to new bytes, so one
// *http.Request serves a whole replay.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// discardWriter is a reusable ResponseWriter that keeps nothing.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// handlerAllocs measures heap allocations per request of a server.Server
// handler with a reused request and writer, so the harness's own
// allocations are not counted.
func handlerAllocs(h http.Handler, body []byte) (float64, error) {
	const n = 2000
	rb := &rewindBody{}
	req, err := http.NewRequest(http.MethodPost, "/v1/rank", rb)
	if err != nil {
		return 0, err
	}
	w := &discardWriter{h: http.Header{}}
	do := func() {
		rb.Reset(body)
		req.Body = rb
		clear(w.h)
		w.status = http.StatusOK
		h.ServeHTTP(w, req)
	}
	do()
	if w.status != http.StatusOK {
		return 0, fmt.Errorf("alloc probe answered status %d", w.status)
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		do()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / n, nil
}
