package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// connections is the load generator's concurrency: at most this many
// requests are in flight, each on its own keep-alive connection. It equals
// the cores of the machine the benchmark is sized for; when both are busy
// the next due request waits in the client, and that wait is counted
// because latency runs from the due time.
const connections = 2

// sample is one scheduled request. Times are offsets from the phase start.
type sample struct {
	req     int           // index into the request stream
	due     time.Duration // when the open-loop schedule wanted it sent
	picked  time.Duration // when a connection became free for it
	sent    time.Duration
	done    time.Duration
	status  int
	d       digest
	err     error
	skipped bool // never sent: the phase was cut off behind a backlog
	traced  bool // recording was on for the whole request
	bad     bool // set by the oracle
}

// latency runs from the due time, so a request that waited for a
// connection the system kept busy counts that wait, but it leaves out the
// generator's own lateness (timer wake-up slop, about half a millisecond
// on the 2-core Linux VM the benchmark was tuned on), which late reports
// on its own.
func (s *sample) latency() time.Duration { return s.done - s.due - s.late() }

// late is how far behind its schedule the generator itself sent the
// request: time spent waiting for a free connection is the system's
// backlog, not generator lateness, so it is excluded.
func (s *sample) late() time.Duration { return s.sent - max(s.due, s.picked) }

// loadGen is an open-loop HTTP load generator over a fixed number of
// connections.
type loadGen struct {
	base   string // http://host:port
	client *http.Client
	seed   maphash.Seed
	tr     *tracer
	size   func(req int) int // canned-harness runs: expected body size by stream index, sent as a header
}

func newLoadGen(addr string, seed maphash.Seed, tr *tracer) *loadGen {
	return &loadGen{
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     connections,
			MaxIdleConnsPerHost: connections,
			DisableCompression:  true,
		}},
		seed: seed,
		tr:   tr,
	}
}

func (lg *loadGen) close() { lg.client.CloseIdleConnections() }

// phase is the outcome of one fixed-rate phase.
type phase struct {
	dur     time.Duration
	samples []sample
}

// drainCap bounds how long a phase keeps sending behind its schedule;
// requests still unsent then are skipped, and the phase counts as backlogged.
const drainCap = 2 * time.Second

// run sends stream[first:first+rate*dur] at a fixed rate (evenly spaced
// arrivals) over the generator's connections and waits for every reply.
// When window > 0 and a tracer is set, recording is switched on in every
// other window so one phase measures both the traced and the untraced path.
func (lg *loadGen) run(stream []request, first int, rate float64, dur, window time.Duration) phase {
	n := int(rate * dur.Seconds())
	if first+n > len(stream) {
		n = len(stream) - first
	}
	p := phase{dur: dur, samples: make([]sample, n)}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	stopWindows := lg.toggleWindows(start, dur, window)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 32<<10)
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &p.samples[i]
				s.req = first + i
				s.due = time.Duration(i) * interval
				s.picked = time.Since(start)
				if s.picked > s.due+drainCap {
					s.skipped = true
					continue
				}
				if wait := s.due - s.picked; wait > 0 {
					time.Sleep(wait)
				}
				lg.send(&stream[s.req], s, start, buf)
			}
		}()
	}
	wg.Wait()
	stopWindows()
	return p
}

// toggleWindows flips the tracer on for odd windows until the returned stop
// function is called, which also switches recording off.
func (lg *loadGen) toggleWindows(start time.Time, dur, window time.Duration) (stop func()) {
	if lg.tr == nil || window <= 0 {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; ; k++ {
			t := time.NewTimer(time.Until(start.Add(time.Duration(k) * window)))
			select {
			case <-quit:
				t.Stop()
				return
			case <-t.C:
			}
			lg.tr.on.Store(k%2 == 1)
		}
	}()
	return func() {
		close(quit)
		<-done
		lg.tr.on.Store(false)
	}
}

func (lg *loadGen) send(rq *request, s *sample, start time.Time, buf []byte) {
	req, err := http.NewRequest(http.MethodPost, lg.base+rq.path(), bytes.NewReader(rq.body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set(reqHeader, strconv.Itoa(s.req))
	if lg.size != nil {
		req.Header.Set(cannedHeader, strconv.Itoa(lg.size(s.req)))
	}
	onAtSend := lg.tr.active()
	var t0 int64
	if onAtSend {
		t0 = lg.tr.now()
	}
	s.sent = time.Since(start)
	resp, err := lg.client.Do(req)
	if err != nil {
		s.done = time.Since(start)
		s.err = err
		return
	}
	var h maphash.Hash
	h.SetSeed(lg.seed)
	n, err := io.CopyBuffer(&h, resp.Body, buf)
	resp.Body.Close()
	s.done = time.Since(start)
	s.status = resp.StatusCode
	s.d = digest{n: n, sum: h.Sum64()}
	s.err = err
	if onAtSend && lg.tr.active() {
		s.traced = true
		lg.tr.record(span{ID: lg.tr.next.Add(1), Name: "client", Start: t0, End: lg.tr.now(), Parent: -1, Req: int64(s.req), Srv: -1})
	}
}

// cannedHeader tells the canned harness server how large a body to return.
const cannedHeader = "X-Bench-Size"

// cannedHandler answers every request with a body of the requested size
// and does nothing else, so the generator's round trip against it is the
// client and loopback cost alone.
func cannedHandler() http.Handler {
	var mu sync.Mutex
	body := make([]byte, 0)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		n, _ := strconv.Atoi(r.Header.Get(cannedHeader))
		mu.Lock()
		if len(body) < n {
			body = bytes.Repeat([]byte{'0'}, n)
		}
		b := body[:n]
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(n))
		w.Write(b)
	})
}

// --- phase statistics ---

// phaseStats are a phase's latency figures, split by class.
type phaseStats struct {
	n        int
	scan     dist // milliseconds
	lookup   dist // milliseconds
	late     dist // milliseconds
	achieved float64
	backlog  int // requests not finished (or never sent) by the scheduled end
	failed   int
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stats summarizes a phase. Failed requests count as +Inf latency: they
// miss every limit. Call after the oracle has marked bad samples.
func (p *phase) stats(stream []request) phaseStats {
	var scan, lookup, late []float64
	st := phaseStats{n: len(p.samples)}
	var last time.Duration
	completed := 0
	for i := range p.samples {
		s := &p.samples[i]
		if s.skipped || s.done > p.dur {
			st.backlog++
		}
		if s.skipped {
			continue
		}
		lat := ms(s.latency())
		if s.bad {
			lat = math.Inf(1)
			st.failed++
		} else {
			completed++
			last = max(last, s.done)
		}
		if stream[s.req].cls.scan() {
			scan = append(scan, lat)
		} else {
			lookup = append(lookup, lat)
		}
		late = append(late, ms(s.late()))
	}
	st.scan, st.lookup, st.late = summarize(scan), summarize(lookup), summarize(late)
	if last > 0 {
		st.achieved = float64(completed) / last.Seconds()
	}
	return st
}

// windowed summarizes one latency class window by window and returns the
// median over the windows of each window's p50 and tail: a burst of
// machine noise then moves one window, not the figure. Every window uses
// the same tail percentile, the highest its smallest window supports.
func (p *phase) windowed(stream []request, scan bool, windows int) dist {
	per := make([][]float64, windows)
	total := 0
	for i := range p.samples {
		s := &p.samples[i]
		if s.skipped || stream[s.req].cls.scan() != scan {
			continue
		}
		lat := ms(s.latency())
		if s.bad {
			lat = math.Inf(1)
		}
		w := min(int(int64(s.due)*int64(windows)/int64(p.dur)), windows-1)
		per[w] = append(per[w], lat)
		total++
	}
	smallest := total
	for _, xs := range per {
		smallest = min(smallest, len(xs))
	}
	d := dist{N: total, P50: math.NaN(), Tail: math.NaN()}
	for _, pct := range tailCandidates {
		if beyond(smallest, pct) >= minBeyond {
			d.TailPct = pct
			break
		}
	}
	if d.TailPct == 0 {
		return d
	}
	var p50s, tails []float64
	for _, xs := range per {
		sort.Float64s(xs)
		p50s = append(p50s, quantileSorted(xs, 0.5))
		tails = append(tails, quantileSorted(xs, d.TailPct/100))
	}
	d.P50, d.Tail = median(p50s), median(tails)
	return d
}

// --- the rate ladder ---

type stepVerdict int

const (
	stepPass stepVerdict = iota
	stepFail
	stepInvalid
)

func (v stepVerdict) String() string { return [...]string{"pass", "fail", "invalid"}[v] }

// limits are a serving workload's service-level limits.
type limits struct {
	scanTailMs float64 // scan_p99_ms must stay within this
	lateMs     float64 // a step whose generator lateness tail exceeds this is invalid
	backlog    float64 // share of a step's arrivals left unfinished at its end that counts as a growing backlog
}

// judge applies the stop rule to one step: a step whose generator fell
// behind its own schedule says nothing about the system and is invalid;
// otherwise it passes when no request failed, the scan tail is within the
// limit, and the backlog did not grow.
func judge(st phaseStats, lim limits) (stepVerdict, string) {
	switch {
	case st.late.Tail > lim.lateMs:
		return stepInvalid, fmt.Sprintf("generator late %.3gms > %.3gms", st.late.Tail, lim.lateMs)
	case st.failed > 0:
		return stepFail, fmt.Sprintf("%d failed", st.failed)
	case float64(st.backlog) > backlogLimit(lim, st.n):
		return stepFail, fmt.Sprintf("backlog %d of %d", st.backlog, st.n)
	case !(st.scan.Tail <= lim.scanTailMs):
		return stepFail, fmt.Sprintf("scan p%g %.3gms > %.3gms", st.scan.TailPct, st.scan.Tail, lim.scanTailMs)
	}
	return stepPass, ""
}

// step is one judged ladder step.
type step struct {
	rate    float64
	stats   phaseStats
	verdict stepVerdict
	reason  string
}

// climb runs ladder steps in order and stops at the first two consecutive
// failing steps, or when runStep reports it is out of time. A single
// failing step between passing ones is taken as a burst of machine noise,
// not the system's limit, and invalid steps (the generator fell behind)
// judge nothing either way. runStep measures one rate.
func climb(rates []float64, lim limits, runStep func(rate float64) (phaseStats, bool)) []step {
	var steps []step
	for _, r := range rates {
		st, ok := runStep(r)
		if !ok {
			break
		}
		v, why := judge(st, lim)
		steps = append(steps, step{rate: r, stats: st, verdict: v, reason: why})
		if limitAt(judged(steps)) >= 0 {
			break
		}
	}
	return steps
}

// judged drops the invalid steps.
func judged(steps []step) []step {
	out := make([]step, 0, len(steps))
	for _, s := range steps {
		if s.verdict != stepInvalid {
			out = append(out, s)
		}
	}
	return out
}

// limitAt returns the index of the first step of the first pair of
// consecutive failing steps, or -1 when there is none.
func limitAt(steps []step) int {
	for i := 0; i+1 < len(steps); i++ {
		if steps[i].verdict == stepFail && steps[i+1].verdict == stepFail {
			return i
		}
	}
	return -1
}

// maxRate is the highest sustainable rate a ladder found: the achieved
// rate of the last passing step below the limit climb stopped at, moved
// toward the next step's rate by where the failing criterion crosses its
// limit between the two, so the figure does not jump a whole step when
// the crossing moves a little. Scan tail and backlog are interpolated
// linearly; a step that failed on errors gives no crossing. With no
// passing step it is 0; a ladder that never reached its limit reports its
// highest passing step.
func maxRate(steps []step, lim limits) float64 {
	steps = judged(steps)
	end := limitAt(steps)
	if end < 0 {
		end = len(steps)
	}
	last := -1
	for i := 0; i < end; i++ {
		if steps[i].verdict == stepPass {
			last = i
		}
	}
	if last < 0 {
		return 0
	}
	pass := steps[last]
	r := pass.stats.achieved
	if last+1 < len(steps) && steps[last+1].verdict == stepFail && steps[last+1].stats.failed == 0 {
		fail := steps[last+1]
		frac := 1.0
		cross := func(limit, lo, hi float64) {
			if hi > limit && !math.IsInf(hi, 1) {
				frac = math.Min(frac, math.Max((limit-lo)/(hi-lo), 0))
			} else if hi > limit {
				frac = 0
			}
		}
		if fail.stats.scan.Tail > lim.scanTailMs {
			// The tail is noisy step to step, so its crossing comes from a
			// fit over every step rather than from the two around it.
			if c := tailCrossing(steps, lim.scanTailMs); !math.IsNaN(c) {
				frac = math.Min(math.Max((c-pass.rate)/(fail.rate-pass.rate), 0), 1)
			} else {
				cross(lim.scanTailMs, pass.stats.scan.Tail, fail.stats.scan.Tail)
			}
		}
		cross(backlogLimit(lim, fail.stats.n)/float64(fail.stats.n), float64(pass.stats.backlog)/float64(pass.stats.n), float64(fail.stats.backlog)/float64(fail.stats.n))
		r += frac * (fail.rate - pass.rate)
	}
	return r
}

// tailCrossing fits log(scan tail) against rate by least squares over the
// steps that measured the system (not invalid, no failures) and returns
// the rate where the fit reaches limit, or NaN when the fit does not rise.
func tailCrossing(steps []step, limit float64) float64 {
	var n, sx, sy, sxx, sxy float64
	for _, s := range steps {
		t := s.stats.scan.Tail
		if s.verdict == stepInvalid || s.stats.failed > 0 || !(t > 0) || math.IsInf(t, 1) {
			continue
		}
		x, y := s.rate, math.Log(t)
		n, sx, sy, sxx, sxy = n+1, sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	den := n*sxx - sx*sx
	if n < 2 || den <= 0 {
		return math.NaN()
	}
	slope := (n*sxy - sx*sy) / den
	if slope <= 0 {
		return math.NaN()
	}
	icept := (sy - slope*sx) / n
	return (math.Log(limit) - icept) / slope
}

// backlogLimit is the unfinished-request count above which a step of n
// arrivals counts as a growing backlog.
func backlogLimit(lim limits, n int) float64 {
	return math.Max(connections, lim.backlog*float64(n))
}
