package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestSummarizePicksHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n       int
		wantPct float64
	}{
		{1000, 99}, // 10 samples beyond p99
		{999, 95},  // only 9 beyond p99
		{200, 95},  // 10 beyond p95
		{100, 90},
		{40, 75},
		{20, 50},
		{19, 0}, // too few for any tail
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // unsorted on purpose
		}
		d := summarize(xs)
		if d.N != c.n || d.TailPct != c.wantPct {
			t.Errorf("n=%d: got N=%d tail p%g, want p%g", c.n, d.N, d.TailPct, c.wantPct)
			continue
		}
		if c.wantPct != 0 {
			if got, want := d.Tail, math.Ceil(c.wantPct/100*float64(c.n)); got != want {
				t.Errorf("n=%d: p%g = %g, want %g", c.n, c.wantPct, got, want)
			}
			if beyondN := c.n - int(d.Tail); beyondN < minBeyond {
				t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyondN)
			}
		}
		if want := math.Ceil(0.5 * float64(c.n)); d.P50 != want {
			t.Errorf("n=%d: p50 = %g, want %g", c.n, d.P50, want)
		}
	}
}

func TestSummarizeCountsFailuresAsMissingTheLimit(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if d := summarize(xs); !math.IsInf(d.Tail, 1) {
		t.Fatalf("p99 with 11 failures in 1000 = %g, want +Inf", d.Tail)
	}
}

func TestWindowedUsesOneTailPercentileAcrossWindows(t *testing.T) {
	stream := []request{{cls: clsBox}, {cls: clsRank}}
	p := phase{dur: 3 * time.Second}
	// Three one-second windows at 1ms, 3ms and 5ms latency; the middle one
	// holds only 200 scans, so every window uses p95, the highest it supports.
	add := func(from time.Duration, n int, lat time.Duration) {
		for i := 0; i < n; i++ {
			due := from + time.Duration(i)*(time.Second/time.Duration(n))
			p.samples = append(p.samples, sample{req: 0, due: due, sent: due, done: due + lat})
		}
		p.samples = append(p.samples, sample{req: 1, due: from, sent: from, done: from + time.Second})
	}
	add(0, 2000, time.Millisecond)
	add(time.Second, 200, 3*time.Millisecond)
	add(2*time.Second, 1500, 5*time.Millisecond)
	d := p.windowed(stream, true, 3)
	if d.N != 3700 || d.TailPct != 95 {
		t.Fatalf("got N=%d p%g, want N=3700 p95", d.N, d.TailPct)
	}
	if math.Abs(d.P50-3) > 1e-9 || math.Abs(d.Tail-3) > 1e-9 {
		t.Fatalf("median over windows: p50 %g tail %g, want 3 and 3", d.P50, d.Tail)
	}
}

func TestLatencyExcludesGeneratorLatenessButCountsBacklog(t *testing.T) {
	ms := time.Millisecond
	// Free before due, woke 0.4ms late: the lateness is the generator's.
	s := sample{due: 10 * ms, picked: 5 * ms, sent: 10*ms + 400*time.Microsecond, done: 12*ms + 400*time.Microsecond}
	if s.late() != 400*time.Microsecond || s.latency() != 2*ms {
		t.Fatalf("late %v latency %v, want 400µs and 2ms", s.late(), s.latency())
	}
	// Both connections busy until 3ms after due: that wait is the system's.
	s = sample{due: 10 * ms, picked: 13 * ms, sent: 13 * ms, done: 15 * ms}
	if s.late() != 0 || s.latency() != 5*ms {
		t.Fatalf("late %v latency %v, want 0 and 5ms", s.late(), s.latency())
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, w := range []*servingWorkload{&daemonWorkload, &clusterWorkload} {
		a := newGenerator(7, w.dims, 1024*768, w.mix).stream(2000)
		b := newGenerator(7, w.dims, 1024*768, w.mix).stream(2000)
		c := newGenerator(8, w.dims, 1024*768, w.mix).stream(2000)
		same := true
		for i := range a {
			if a[i].path() != b[i].path() || !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: seed 7 differs at request %d: %s vs %s", w.name, i, a[i].body, b[i].body)
			}
			same = same && bytes.Equal(a[i].body, c[i].body)
		}
		if same {
			t.Fatalf("%s: seeds 7 and 8 gave identical streams", w.name)
		}
	}
	la, err := libInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := libInputs(3)
	for i := range la {
		if len(la[i].boxes) != len(lb[i].boxes) || len(la[i].points) != len(lb[i].points) {
			t.Fatalf("library spec %s: inputs differ in size", la[i].name)
		}
		for j := range la[i].boxes {
			if !slices.Equal(la[i].boxes[j].start, lb[i].boxes[j].start) {
				t.Fatalf("library spec %s: box %d differs", la[i].name, j)
			}
		}
	}
}

func TestGeneratorMixAndPlacement(t *testing.T) {
	dims := []int{1024, 768}
	counts := map[class]int{}
	hot := map[string]int{}
	const n = 20000
	for _, rq := range newGenerator(1, dims, 1024*768, daemonWorkload.mix).stream(n) {
		counts[rq.cls]++
		for _, bx := range rq.boxes {
			for i, s := range bx.start {
				if s < 0 || s+bx.dims[i] > dims[i] {
					t.Fatalf("box %v outside the grid", bx)
				}
			}
			if rq.cls == clsBox && rq.side == 64 {
				hot[string(appendBoxBody(nil, bx))]++
			}
		}
	}
	if got := float64(counts[clsRank]) / n; math.Abs(got-0.20) > 0.02 {
		t.Errorf("rank share %.3f, want 0.20", got)
	}
	top := 0
	for _, c := range hot {
		top = max(top, c)
	}
	// Zipf-ranked positions: the hottest 64-side box repeats far more often
	// than a uniform draw over 1024 positions would (about 3 times).
	if top < 50 {
		t.Errorf("hottest 64-side box drawn %d times; the daemon's working set is not hot", top)
	}
}

func step1(rate float64, tail float64, backlog, n int) phaseStats {
	return phaseStats{n: n, scan: dist{Tail: tail, TailPct: 99}, late: dist{Tail: 0.5}, backlog: backlog, achieved: rate}
}

func TestJudgeStopRule(t *testing.T) {
	lim := limits{scanTailMs: 5, lateMs: 2, backlog: 0.05}
	cases := []struct {
		name string
		st   phaseStats
		want stepVerdict
	}{
		{"within limits", step1(100, 4, 3, 1000), stepPass},
		{"tail over limit", step1(100, 6, 3, 1000), stepFail},
		{"growing backlog", step1(100, 1, 51, 1000), stepFail},
		{"backlog at the limit", step1(100, 1, 50, 1000), stepPass},
		{"a failed request", func() phaseStats { s := step1(100, 1, 0, 1000); s.failed = 1; return s }(), stepFail},
		{"generator behind", func() phaseStats { s := step1(100, 9, 0, 1000); s.late.Tail = 3; return s }(), stepInvalid},
	}
	for _, c := range cases {
		if got, why := judge(c.st, lim); got != c.want {
			t.Errorf("%s: got %v (%s), want %v", c.name, got, why, c.want)
		}
	}
}

func TestClimbStopsAtTwoConsecutiveFailures(t *testing.T) {
	lim := limits{scanTailMs: 5, lateMs: 2, backlog: 0.05}
	rates := []float64{100, 200, 300, 400, 500, 600, 700}
	tails := map[float64]float64{100: 1, 200: 6, 300: 2, 400: 4, 500: 7, 600: 9, 700: 1}
	var ran []float64
	steps := climb(rates, lim, func(r float64) (phaseStats, bool) {
		ran = append(ran, r)
		return step1(r, tails[r], 0, 1000), true
	})
	if len(ran) != 6 {
		t.Fatalf("ran %v, want to stop after 500 and 600 both failed", ran)
	}
	// The lone failure at 200 is noise; the limit is between 400 and 500,
	// where the fit over all six steps crosses 5ms.
	want := 400 + 100*math.Min(math.Max((tailCrossing(steps, 5)-400)/100, 0), 1)
	if got := maxRate(steps, lim); got != want || got < 400 || got > 500 {
		t.Fatalf("maxRate = %g, want %g within [400, 500]", got, want)
	}
}

func TestTailCrossingFitsAllSteps(t *testing.T) {
	// tail = e^(rate/100): the fit is exact and reaches 5ms at 100·ln 5.
	var steps []step
	for _, r := range []float64{100, 200, 300, 400} {
		steps = append(steps, step{rate: r, stats: step1(r, math.Exp(r/100), 0, 1000)})
	}
	steps = append(steps, step{rate: 500, stats: step1(500, 1e6, 0, 1000), verdict: stepInvalid})
	if got, want := tailCrossing(steps, 5), 100*math.Log(5); math.Abs(got-want) > 1e-9 {
		t.Fatalf("crossing %g, want %g", got, want)
	}
	flat := []step{{rate: 100, stats: step1(100, 3, 0, 1000)}, {rate: 200, stats: step1(200, 3, 0, 1000)}}
	if got := tailCrossing(flat, 5); !math.IsNaN(got) {
		t.Fatalf("flat tail: crossing %g, want NaN", got)
	}
}

func TestClimbOutOfTimeAndBacklogCrossing(t *testing.T) {
	lim := limits{scanTailMs: 50, lateMs: 5, backlog: 0.05}
	steps := climb([]float64{100, 200, 300}, lim, func(r float64) (phaseStats, bool) {
		return step1(r, 1, 0, 1000), r < 300
	})
	if len(steps) != 2 || maxRate(steps, lim) != 200 {
		t.Fatalf("out of time: %d steps, max %g; want 2 steps, 200", len(steps), maxRate(steps, lim))
	}
	// Backlog 10 of 1000 passes, 150 of 1000 fails: the 5% limit is
	// crossed (50-10)/(150-10) of the way from 100 to 200.
	steps = []step{
		{rate: 100, stats: step1(100, 1, 10, 1000), verdict: stepPass},
		{rate: 200, stats: step1(200, 1, 150, 1000), verdict: stepFail},
		{rate: 300, stats: step1(300, 1, 300, 1000), verdict: stepFail},
	}
	if got, want := maxRate(steps, lim), 100+100*40.0/140; math.Abs(got-want) > 1e-9 {
		t.Fatalf("maxRate = %g, want %g", got, want)
	}
	if got := maxRate(steps[1:], lim); got != 0 {
		t.Fatalf("no passing step: maxRate = %g, want 0", got)
	}
	// Invalid steps judge nothing: two of them do not stop the climb, and
	// the pass after them counts.
	verdicts := map[float64]phaseStats{100: step1(100, 1, 0, 1000), 200: step1(200, 1, 0, 1000), 300: step1(300, 1, 0, 1000), 400: step1(400, 1, 0, 1000)}
	for _, r := range []float64{200, 300} {
		st := verdicts[r]
		st.late.Tail = 9
		verdicts[r] = st
	}
	steps = climb([]float64{100, 200, 300, 400}, lim, func(r float64) (phaseStats, bool) { return verdicts[r], true })
	if len(steps) != 4 || steps[1].verdict != stepInvalid || maxRate(steps, lim) != 400 {
		t.Fatalf("invalid steps: %d steps, max %g; want 4 steps, 400", len(steps), maxRate(steps, lim))
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 10, End: 30}}, 80},
		{"parallel fan-out counted once", []span{{Start: 10, End: 60}, {Start: 20, End: 50}, {Start: 40, End: 70}}, 40},
		{"disjoint children", []span{{Start: 0, End: 10}, {Start: 90, End: 100}}, 80},
		{"child spilling past the parent", []span{{Start: 80, End: 150}, {Start: -20, End: 5}}, 75},
		{"child outside the parent", []span{{Start: 120, End: 150}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAttachByContainment(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "worker.handler", Start: 0, End: 100, Srv: 1, Parent: -1},
		{ID: 2, Name: "worker.handler", Start: 10, End: 50, Srv: 2, Parent: -1},
		{ID: 3, Name: "worker.handler", Start: 40, End: 90, Srv: 1, Parent: -1},
		{ID: 4, Name: "worker.query", Start: 45, End: 60, Srv: 1, Parent: -1},
		{ID: 5, Name: "worker.query", Start: 20, End: 30, Srv: 2, Parent: -1},
		{ID: 6, Name: "worker.query", Start: 20, End: 30, Srv: 1, Parent: 9},
	}
	attachByContainment(spans, "worker.query", "worker.handler")
	for id, want := range map[int64]int64{4: 3, 5: 2, 6: 9} {
		for _, s := range spans {
			if s.ID == id && s.Parent != want {
				t.Errorf("span %d parent %d, want %d", id, s.Parent, want)
			}
		}
	}
}

func TestWorkerSpansAttachToTheirRouterSpan(t *testing.T) {
	g := shardGeom{
		lo:     [][]int{{0, 0}, {512, 0}},
		hi:     [][]int{{511, 767}, {1023, 767}},
		offset: []int{0, 512 * 768},
	}
	cross := box{start: []int{500, 10}, dims: []int{64, 64}}
	stream := []request{
		{cls: clsBox, side: 64, boxes: []box{cross}, body: appendBoxBody(nil, cross)},
		{cls: clsRank, coords: []int{600, 5}, body: appendCoordsBody(nil, []int{600, 5})},
	}
	spans := []span{
		{ID: 1, Name: "router.handler", Req: 0, Start: 0, End: 100, Srv: routerSrv},
		{ID: 2, Name: "router.handler", Req: 1, Start: 5, End: 40, Srv: routerSrv},
		// Shard 0 (workers 1, 2) and shard 1 (workers 3, 4) halves of the box.
		{ID: 3, Name: "worker.handler", Srv: 1, Start: 10, End: 60, Key: string(appendBoxBody(nil, box{start: []int{500, 10}, dims: []int{12, 64}}))},
		{ID: 4, Name: "worker.handler", Srv: 4, Start: 12, End: 80, Key: string(appendBoxBody(nil, box{start: []int{512, 10}, dims: []int{52, 64}}))},
		{ID: 5, Name: "worker.handler", Srv: 3, Start: 10, End: 20, Key: string(appendCoordsBody(nil, []int{600, 5}))},
		// A body no router request sent.
		{ID: 6, Name: "worker.handler", Srv: 1, Start: 10, End: 20, Key: `{"coords":[1,1]}`},
	}
	kids, useful := attachWorkers(g, stream, spans)
	if len(kids[1]) != 2 || len(kids[2]) != 1 || kids[2][0].ID != 5 {
		t.Fatalf("attached %v", kids)
	}
	if useful[1] != 2 || useful[2] != 1 {
		t.Fatalf("useful replies %v, want 2 and 1", useful)
	}
	if self := selfTime(spans[0], kids[1]); self != 30 {
		t.Fatalf("router self time %d, want 30", self)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric tables
// the program reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark")
	}
	var bj struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	perLayerNoMoves := make([]metricSpec, len(perLayer))
	for i, m := range perLayer {
		m.Moves = ""
		perLayerNoMoves[i] = m
	}
	check("per_layer", bj.PerLayer, perLayerNoMoves)
}
