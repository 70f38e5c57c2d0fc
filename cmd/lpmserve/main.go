// Command lpmserve is the Spectral LPM serving daemon. It runs in three
// roles:
//
//   - single (default): map an index file built by cmd/lpm and answer
//     rank/point/box/pages/batch queries over HTTP/JSON, engineered for
//     failure first — per-request deadlines, bounded-queue load shedding,
//     hot reload on SIGHUP (a corrupt replacement is rejected while the
//     old index keeps serving), and graceful drain on SIGTERM/SIGINT.
//   - worker: the same daemon scoped to ONE shard of a sharded v2
//     container, answering in the global coordinate and rank frame and
//     exposing GET /v1/shardinfo so a router can learn the cluster
//     geometry. SIGHUP re-scopes the replacement file to the same shard.
//   - router: no index at all — a static replicated topology of workers,
//     per-shard box clipping, hedged reads with retries and per-replica
//     health ejection, and a merge in global rank order, optionally
//     answering partial results (-partial) when a shard is unreachable.
//     It serves through the same spine as the other roles: the same
//     deadlines, 429 shedding (at the default admission bounds) and
//     drain. SIGHUP re-opens its view, which re-reads nothing.
//
// A flag the chosen role does not read is a usage error (exit 2).
//
// Usage:
//
//	lpm -n 4096 -dims 64,64 -save idx.slpm
//	lpmserve -index idx.slpm -addr :8080
//	lpmserve -role worker -index sharded.slpm -shard 0 -addr :8081
//	lpmserve -role router -topology cluster.json -addr :8090 -partial
//	curl -s localhost:8080/v1/rank -d '{"coords":[3,5]}'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"github.com/spectral-lpm/spectrallpm/internal/cluster"
	"github.com/spectral-lpm/spectrallpm/internal/server"
)

var (
	role        = flag.String("role", "single", "single | worker | router")
	index       = flag.String("index", "", "index file to serve (single: any format; worker: sharded v2 container)")
	addr        = flag.String("addr", "", "listen address (default :8080, router :8090)")
	maxInFlight = flag.Int("max-inflight", 0, "single, worker: max concurrently served requests (0 = 4×GOMAXPROCS)")
	maxQueued   = flag.Int("max-queued", 256, "single, worker: max requests queued for a slot before shedding with 429")
	timeout     = flag.Duration("timeout", 0, "default per-request deadline (0 = 2s, router 5s; override per request with ?timeout_ms=)")
	maxTimeout  = flag.Duration("max-timeout", 30*time.Second, "cap on client-requested deadlines")
	drain       = flag.Duration("drain", 10*time.Second, "graceful-drain budget on SIGTERM/SIGINT")
	quiet       = flag.Bool("quiet", false, "suppress operational log lines")

	// Worker role.
	shardID = flag.Int("shard", -1, "worker: which shard of the container to serve (required)")

	// Router role.
	topology       = flag.String("topology", "", "router: topology JSON file (required)")
	partial        = flag.Bool("partial", false, "router: answer reachable shards + shards_missing instead of failing when a shard is down")
	hedgeAfter     = flag.Duration("hedge-after", 50*time.Millisecond, "router: latency threshold before racing a hedged second replica")
	attemptTimeout = flag.Duration("attempt-timeout", time.Second, "router: per-replica attempt budget")
	retries        = flag.Int("retries", 2, "router: extra attempts after a failed one, each against the next replica")
	failThreshold  = flag.Int("fail-threshold", 3, "router: consecutive failures before a replica is ejected")
	probeInterval  = flag.Duration("probe-interval", 500*time.Millisecond, "router: health-probe cadence for ejected replicas")
)

// commonFlags are read by every role.
var commonFlags = []string{"role", "addr", "timeout", "max-timeout", "drain", "quiet"}

// roleFlags lists, per role, the flags it reads beyond commonFlags.
var roleFlags = map[string][]string{
	"single": {"index", "max-inflight", "max-queued"},
	"worker": {"index", "max-inflight", "max-queued", "shard"},
	"router": {"topology", "partial", "hedge-after", "attempt-timeout", "retries", "fail-threshold", "probe-interval"},
}

// misplacedFlag returns the first flag explicitly set on fs that role does
// not read, or "".
func misplacedFlag(fs *flag.FlagSet, role string) string {
	bad := ""
	fs.Visit(func(f *flag.Flag) {
		if bad == "" && !slices.Contains(commonFlags, f.Name) && !slices.Contains(roleFlags[role], f.Name) {
			bad = f.Name
		}
	})
	return bad
}

// usageError reports a command-line mistake and exits 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lpmserve: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	flag.Parse()
	if _, ok := roleFlags[*role]; !ok {
		usageError("unknown role %q (want single, worker, or router)", *role)
	}
	if name := misplacedFlag(flag.CommandLine, *role); name != "" {
		usageError("-%s does not apply to -role %s", name, *role)
	}
	var logf func(string, ...any) // nil: the default logger
	if *quiet {
		logf = func(string, ...any) {}
	}
	switch *role {
	case "single", "worker":
		if *index == "" {
			usageError("-index is required")
		}
		cfg := server.Config{
			IndexPath:      *index,
			Addr:           *addr,
			MaxInFlight:    *maxInFlight,
			MaxQueued:      *maxQueued,
			DefaultTimeout: *timeout,
			MaxTimeout:     *maxTimeout,
			DrainTimeout:   *drain,
			Logf:           logf,
		}
		if *role == "worker" {
			if *shardID < 0 {
				usageError("-role worker requires -shard")
			}
			sh := *shardID
			cfg.Open = func(path string) (server.Queryable, error) {
				return cluster.OpenShardWorker(path, sh)
			}
			cfg.Routes = cluster.WorkerRoutes
		}
		s, err := server.New(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		//lpm:ctxok — process root: there is no caller context above main
		if err := s.Run(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "lpmserve:", err)
			os.Exit(1)
		}
	case "router":
		if *topology == "" {
			usageError("-role router requires -topology")
		}
		topo, err := cluster.LoadTopology(*topology)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lpmserve:", err)
			os.Exit(1)
		}
		if *retries == 0 {
			*retries = -1 // explicit zero: RouterConfig treats negatives as "no retries"
		}
		cfg := cluster.RouterConfig{
			Topology:       topo,
			Addr:           *addr,
			Partial:        *partial,
			AttemptTimeout: *attemptTimeout,
			HedgeAfter:     *hedgeAfter,
			Retries:        *retries,
			FailThreshold:  *failThreshold,
			ProbeInterval:  *probeInterval,
			DefaultTimeout: *timeout,
			MaxTimeout:     *maxTimeout,
			DrainTimeout:   *drain,
			Logf:           logf,
		}
		rt, err := cluster.NewRouter(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lpmserve:", err)
			os.Exit(1)
		}
		//lpm:ctxok — process root: there is no caller context above main
		if err := rt.Run(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "lpmserve:", err)
			os.Exit(1)
		}
	}
}
