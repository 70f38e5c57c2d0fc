package main

// metricSpec is one metric the benchmark reports. End-to-end metrics carry
// the regression bound BENCHMARK.json fixes for them; per-layer metrics
// carry the end-to-end metric and workload they should move, so a layer
// change can be checked against the prediction written down before it.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Moves  string  // per-layer only: "<end-to-end metric> on <workload>"
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (the library workload has no arrivals, so its max_rps
// is its closed-loop box throughput; see README.md).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "build_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "open_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "scan_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "scan_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lookup_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lookup_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "max_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "seeks_per_box", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "reload_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer lists the traced run's numbers. A layer a workload does not
// exercise reports 0 on that workload.
var perLayer = []metricSpec{
	{Name: "analytic.grid_order_ms.square", Unit: "ms", Better: "lower", Moves: "build_s on library"},
	{Name: "analytic.grid_order_ms.rect", Unit: "ms", Better: "lower", Moves: "build_s on library"},
	{Name: "analytic.grid_order_ms.cube", Unit: "ms", Better: "lower", Moves: "build_s on library"},
	{Name: "core.spectral_order_ms", Unit: "ms", Better: "lower", Moves: "build_s on library"},
	{Name: "order.from_ranks_ms", Unit: "ms", Better: "lower", Moves: "build_s on library"},
	{Name: "storage.new_store_ms", Unit: "ms", Better: "lower", Moves: "build_s on library"},
	{Name: "rtree.pack_ms", Unit: "ms", Better: "lower", Moves: "build_s on library"},
	{Name: "codec.write_v2_ms", Unit: "ms", Better: "lower", Moves: "build_s on library"},
	{Name: "codec.open_mapped_ms", Unit: "ms", Better: "lower", Moves: "open_ms on library, reload_ms on daemon"},
	{Name: "storage.box_ranks_us", Unit: "us", Better: "lower", Moves: "max_rps on library"},
	{Name: "serve.scan_us", Unit: "us", Better: "lower", Moves: "max_rps on library"},
	{Name: "serve.pages_us", Unit: "us", Better: "lower", Moves: "max_rps on library"},
	{Name: "serve.allocs_per_box", Unit: "count", Better: "lower", Moves: "max_rps on library"},
	{Name: "server.handler_us", Unit: "us", Better: "lower", Moves: "scan_p50_ms on daemon"},
	{Name: "server.query_us", Unit: "us", Better: "lower", Moves: "scan_p50_ms on daemon"},
	{Name: "protocol.decode_us", Unit: "us", Better: "lower", Moves: "scan_p50_ms on daemon"},
	{Name: "protocol.encode_us", Unit: "us", Better: "lower", Moves: "scan_p50_ms on daemon"},
	{Name: "server.handler_allocs", Unit: "count", Better: "lower", Moves: "lookup_p50_ms on daemon"},
	{Name: "server.shed", Unit: "count", Better: "lower", Moves: "max_rps on daemon"},
	{Name: "server.expired", Unit: "count", Better: "lower", Moves: "max_rps on daemon"},
	{Name: "net.self_us", Unit: "us", Better: "lower", Moves: "lookup_p50_ms on daemon"},
	{Name: "harness.roundtrip_us", Unit: "us", Better: "lower", Moves: "lookup_p50_ms on daemon"},
	{Name: "harness.roundtrip_box64_us", Unit: "us", Better: "lower", Moves: "scan_p50_ms on daemon"},
	{Name: "client.late_p99_ms", Unit: "ms", Better: "lower", Moves: "max_rps on daemon"},
	{Name: "client.box64_us", Unit: "us", Better: "lower", Moves: "scan_p50_ms on daemon and cluster"},
	{Name: "router.handler_us", Unit: "us", Better: "lower", Moves: "scan_p50_ms on cluster"},
	{Name: "router.self_us", Unit: "us", Better: "lower", Moves: "scan_p50_ms on cluster"},
	{Name: "worker.handler_us", Unit: "us", Better: "lower", Moves: "scan_p50_ms on cluster"},
	{Name: "worker.query_us", Unit: "us", Better: "lower", Moves: "scan_p50_ms on cluster"},
	{Name: "router.fanout_per_req", Unit: "count", Better: "lower", Moves: "scan_p99_ms on cluster"},
	{Name: "router.useful_ratio", Unit: "ratio", Better: "higher", Moves: "scan_p99_ms on cluster"},
	{Name: "router.hedges", Unit: "count", Better: "lower", Moves: "scan_p99_ms on cluster"},
	{Name: "router.retries", Unit: "count", Better: "lower", Moves: "scan_p99_ms on cluster"},
	{Name: "router.ejections", Unit: "count", Better: "lower", Moves: "scan_p99_ms on cluster"},
	{Name: "shard.clip_us", Unit: "us", Better: "lower", Moves: "scan_p50_ms on cluster"},
	{Name: "storage.merge_us", Unit: "us", Better: "lower", Moves: "scan_p50_ms on cluster"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "scan_p99_ms on daemon and cluster"},
	{Name: "runtime.heap_mb", Unit: "MB", Better: "lower", Moves: "scan_p99_ms on daemon and cluster"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "none: the cost of tracing itself"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics by name, filling units from the
// tables above.
type report map[string]metric

func (r report) set(name string, v float64) {
	for _, tab := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range tab {
			if m.Name == name {
				r[name] = metric{Value: v, Unit: m.Unit}
				return
			}
		}
	}
	panic("perfbench: unknown metric " + name)
}

// complete returns r restricted to the given table, with every metric of
// the table present (0 where the workload never set it).
func (r report) complete(tab []metricSpec) report {
	out := make(report, len(tab))
	for _, m := range tab {
		v, ok := r[m.Name]
		if !ok {
			v = metric{Unit: m.Unit}
		}
		out[m.Name] = v
	}
	return out
}
