// Command perfbench is the repository's benchmark. It builds and drives
// the library, the serving daemon and the sharded cluster in one process,
// checks every answer, and prints the figures named in BENCHMARK.json:
//
//	perfbench --workload library|daemon|cluster --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// wraps each layer's public entry points in spans and reports the
// per-layer metrics (see README.md). The seed generates every input. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Run it from the repository root; it keeps
// its files under .bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// runCtx is one benchmark run's settings and accumulators.
type runCtx struct {
	seed     int64
	seconds  int
	traced   bool
	tr       *tracer // nil in untraced runs
	hashSeed maphash.Seed
	rep      report
	verdict  verdict
	work     string // working directory for index files
	dirs     int
	log      io.Writer

	geom      shardGeom // cluster: the shard plan
	libAllocs []float64 // library: allocations per box, per traced spec
}

func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.log, format+"\n", args...)
}

// tempDir returns a fresh directory under the run's working directory.
func (rc *runCtx) tempDir() (string, error) {
	rc.dirs++
	dir := filepath.Join(rc.work, strconv.Itoa(rc.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// buildDir is where the benchmark keeps its files, relative to the
// repository root it runs from.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "library, daemon or cluster")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "how long the run measures")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	rc := &runCtx{
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traceFlag == 1,
		hashSeed: maphash.MakeSeed(),
		rep:      report{},
		work:     filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", *name, os.Getpid())),
		log:      stderr,
	}
	if rc.traced {
		rc.tr = newTracer()
	}
	defer os.RemoveAll(rc.work)

	var err error
	switch *name {
	case "library":
		err = runLibrary(rc)
	case "daemon":
		err = runServing(rc, &daemonWorkload)
	case "cluster":
		err = runServing(rc, &clusterWorkload)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want library, daemon or cluster)\n", *name)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	tab := endToEnd
	if rc.traced {
		tab = perLayer
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		err = os.MkdirAll(filepath.Dir(path), 0o755)
		if err == nil {
			err = rc.tr.writeJSONL(path)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		rc.logf("spans written to %s", path)
	}
	return emit(rc, tab, stdout, stderr)
}

// result is the last line of standard output.
type result struct {
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   report `json:"metrics"`
}

// emit prints each metric by name with its unit, then the result line. A
// wrong answer makes the exit status 1.
func emit(rc *runCtx, tab []metricSpec, stdout, stderr io.Writer) int {
	out := rc.rep.complete(tab)
	names := make([]string, 0, len(out))
	for k, m := range out {
		m.Value = finite(m.Value)
		out[k] = m
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", k, out[k].Value, out[k].Unit)
	}
	v := rc.verdict
	if v.attempted > 0 {
		fmt.Fprintf(stdout, "%-32s %14.6g (%d of %d)\n", "fail_ratio", float64(v.failed)/float64(v.attempted), v.failed, v.attempted)
	}
	res := result{Correct: v.failed == 0 && v.attempted > 0, Attempted: max(v.attempted, 1), Failed: v.failed, Metrics: out}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: wrong answers: %s\n", v.firstErr)
		return 1
	}
	return 0
}
