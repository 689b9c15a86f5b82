package main

// metricDef names one reported metric. better is "higher" or "lower";
// moves names the end-to-end metric and workload a per-layer metric
// should move (empty for end-to-end metrics).
type metricDef struct {
	name, unit, better, moves string
}

// e2eMetrics are the end-to-end metrics every workload reports in an
// untraced run, in print order. BENCHMARK.json lists the same names and
// units (TestBenchmarkJSONMatchesMetricTables pins that).
var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "delivered_mbps", unit: "Mbit/s", better: "higher"},
	{name: "mbps_per_core", unit: "Mbit/s/core", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p99_ms", unit: "ms", better: "lower"},
	{name: "ontime_frac", unit: "ratio", better: "higher"},
	{name: "heap_peak_mb", unit: "MiB", better: "lower"},
	{name: "sim_speed_x", unit: "s/s", better: "higher"},
}

// layerMetrics are the per-layer metrics a traced run reports. A layer
// the workload does not exercise reports 0.
var layerMetrics = []metricDef{
	{"live.offer_us.p50", "us", "lower", "mbps_per_core@bulk, latency_p99_ms@fanout"},
	{"live.offer_us.p99", "us", "lower", "mbps_per_core@bulk, latency_p99_ms@fanout"},
	{"live.tick_late_ms.p99", "ms", "lower", "latency_p99_ms@fanout"},
	{"live.lag_resyncs", "count", "lower", "latency_p99_ms@fanout"},
	{"live.offers", "count", "higher", "failed_frac@bulk/fanout/fig8"},
	{"live.offer_refused", "count", "lower", "failed_frac@bulk/fanout/fig8"},
	{"pgos.tick_us.p50", "us", "lower", "mbps_per_core@bulk"},
	{"pgos.tick_us.p99", "us", "lower", "mbps_per_core@bulk"},
	{"shard.tick_us.p50", "us", "lower", "latency_p99_ms@fanout, mbps_per_core@fanout"},
	{"shard.tick_us.p99", "us", "lower", "latency_p99_ms@fanout, mbps_per_core@fanout"},
	{"pgos.hold_ms.p50", "ms", "lower", "latency_p50_ms@fanout"},
	{"pgos.hold_ms.p99", "ms", "lower", "latency_p50_ms@fanout"},
	{"pgos.sent_per_tick.mean", "count", "higher", "delivered_mbps@bulk"},
	{"pgos.path_blocked", "count", "lower", "delivered_mbps@bulk"},
	{"pgos.remaps", "count", "lower", "ontime_frac@fig8"},
	{"pgos.slot_misses", "count", "lower", "ontime_frac@fig8"},
	{"transport.queue_us.p50", "us", "lower", "latency_p50_ms@fanout"},
	{"transport.queue_us.p99", "us", "lower", "latency_p50_ms@fanout"},
	{"transport.sendbatch_us.p50", "us", "lower", "mbps_per_core@bulk; latency_p99_ms@fanout must not rise"},
	{"transport.sendbatch_us.p99", "us", "lower", "mbps_per_core@bulk; latency_p99_ms@fanout must not rise"},
	{"transport.batch_size.mean", "count", "higher", "mbps_per_core@bulk; latency_p99_ms@fanout must not rise"},
	{"transport.window_blocks", "count", "lower", "delivered_mbps@bulk, ontime_frac@fig8"},
	{"transport.retx_ratio", "ratio", "lower", "delivered_mbps@bulk, ontime_frac@fig8"},
	{"transport.transit_us.p50", "us", "lower", "latency_p99_ms@fig8, latency_p99_ms@fanout"},
	{"transport.transit_us.p99", "us", "lower", "latency_p99_ms@fig8, latency_p99_ms@fanout"},
	{"testbed.forwarded", "count", "higher", "ontime_frac@fig8"},
	{"testbed.dropped", "count", "lower", "ontime_frac@fig8"},
	{"testbed.lost", "count", "lower", "ontime_frac@fig8"},
	{"net.rcvbuf_drops", "count", "lower", "delivered_mbps@bulk, ontime_frac@fig8 (machine-wide, diagnostic)"},
	{"monitor.warm_s", "s", "lower", "setup_s@fig8"},
	{"monitor.pctl_miss_frac", "ratio", "lower", "ontime_frac@fig8"},
	{"account.observe_us.p99", "us", "lower", "mbps_per_core@bulk"},
	{"account.windows", "count", "higher", "ontime_frac@fig8"},
	{"account.violated_windows", "count", "lower", "ontime_frac@fig8"},
	{"proc.allocs_per_pkt", "count", "lower", "mbps_per_core@bulk, mbps_per_core@fanout"},
	{"proc.gc_cpu_frac", "ratio", "lower", "mbps_per_core@bulk, mbps_per_core@fanout"},
	{"gen.late_ms.p99", "ms", "lower", "sanity: a late generator makes latency numbers unusable"},
	{"sim.sched_tick_us.mean", "us", "lower", "sim_speed_x@matrix"},
	{"sim.remap_us.p99", "us", "lower", "sim_speed_x@matrix"},
	{"sim.rest_tick_us.mean", "us", "lower", "sim_speed_x@matrix"},
	{"sim.allocs_per_tick", "count", "lower", "sim_speed_x@matrix"},
	{"sim.gc_cpu_frac", "ratio", "lower", "sim_speed_x@matrix"},
	{"cpu.relay", "ratio", "lower", "ontime_frac@fig8"},
	{"cpu.sink", "ratio", "lower", "mbps_per_core@bulk"},
	{"cpu.wire", "ratio", "lower", "mbps_per_core@bulk"},
	{"cpu.probe", "ratio", "lower", "setup_s@fig8"},
	{"cpu.driver", "ratio", "lower", "mbps_per_core@fanout"},
	{"cpu.gen", "ratio", "lower", "sanity: generator cost"},
	{"cpu.sim", "ratio", "lower", "sim_speed_x@matrix"},
	{"cpu.runtime", "ratio", "lower", "mbps_per_core@bulk, mbps_per_core@fanout"},
	{"self.gen.ontick_us.mean", "us", "lower", "sanity: generator cost"},
	{"self.pgos.tick_us.mean", "us", "lower", "mbps_per_core@bulk"},
	{"self.shard.tick_us.mean", "us", "lower", "latency_p99_ms@fanout"},
	{"self.flush_us.mean", "us", "lower", "mbps_per_core@bulk"},
	{"self.gen.offer_us.mean", "us", "lower", "mbps_per_core@bulk"},
	{"self.pgos.hold_us.mean", "us", "lower", "latency_p50_ms@fanout"},
	{"self.transport.queue_us.mean", "us", "lower", "latency_p50_ms@fanout"},
	{"self.transport.sendbatch_us.mean", "us", "lower", "mbps_per_core@bulk"},
	{"self.transport.transit_us.mean", "us", "lower", "latency_p99_ms@fig8"},
	{"self.account.observe_us.mean", "us", "lower", "mbps_per_core@bulk"},
	{"overhead.setup_s", "s", "lower", "tracing cost on setup_s"},
	{"overhead.delivered_mbps", "Mbit/s", "lower", "tracing cost on delivered_mbps"},
	{"overhead.mbps_per_core", "Mbit/s/core", "lower", "tracing cost on mbps_per_core"},
	{"overhead.latency_p50_ms", "ms", "lower", "tracing cost on latency_p50_ms"},
	{"overhead.latency_p99_ms", "ms", "lower", "tracing cost on latency_p99_ms"},
	{"overhead.ontime_frac", "ratio", "lower", "tracing cost on ontime_frac"},
	{"overhead.heap_peak_mb", "MiB", "lower", "tracing cost on heap_peak_mb"},
	{"overhead.sim_speed_x", "s/s", "lower", "tracing cost on sim_speed_x"},
}
