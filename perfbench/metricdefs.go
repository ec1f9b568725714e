package main

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	bound float64
	// layer is the repository module a per-layer metric measures; a
	// workload whose ops do not pass through that module does not carry
	// the metric and reports 0 for it.
	layer string
	// moves names the end-to-end metrics (and the workloads) a change to
	// this layer should show up in.
	moves string
}

// endToEnd metrics are what a user of the simulator sees. The sim_*
// metrics are simulated I/O results, identical across runs at one seed;
// their bounds cover the spread across seeds. The host_* metrics are the
// simulator's own cost, measured with tracing off. setup_s keeps the
// largest bound, so work moved into set-up shows.
var endToEnd = []metricDef{
	{name: "sim_kiops", unit: "kIOPS", better: "higher", bound: 0.06},
	{name: "sim_mean_us", unit: "us", better: "lower", bound: 0.06},
	{name: "sim_p99_us", unit: "us", better: "lower", bound: 0.06},
	{name: "sim_p999_us", unit: "us", better: "lower", bound: 0.1},
	{name: "sim_write_mean_us", unit: "us", better: "lower", bound: 0.1},
	{name: "sim_write_p99_us", unit: "us", better: "lower", bound: 0.16},
	{name: "host_allocs_per_op", unit: "allocs/op", better: "lower", bound: 0.03},
	{name: "host_alloc_bytes_per_op", unit: "B/op", better: "lower", bound: 0.03},
	{name: "host_peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "completed_share", unit: "share", better: "higher", bound: 0.001},
}

// perLayer metrics come from the run with --trace 1. Counts and host time
// are taken from its untraced passes (counts repeat exactly at one seed);
// simulated stage times and shares come from its traced passes.
var perLayer = []metricDef{
	// Host time of the whole simulator. It is not an end-to-end metric: on
	// a 2-vCPU virtual machine shared with other tenants its spread over
	// ten seeds reached 0.25 of its median, more than any allowed bound.
	{name: "host_kops_per_s", unit: "kop/s", better: "higher", layer: "sim", moves: "none; simulated ops per wall second of Eng.Run, tracing off"},
	{name: "host_cpu_ms_per_kop", unit: "ms/kop", better: "lower", layer: "sim", moves: "none; CPU of all threads per 1000 ops, tracing off"},
	{name: "sim.events_per_op", unit: "events/op", better: "lower", layer: "sim", moves: "host_kops_per_s, host_allocs_per_op; most on dksw-ec-mixed16k, least on lsvd-zipf-mixed4k"},
	{name: "sim.host_ns_per_event", unit: "ns", better: "lower", layer: "sim", moves: "host_kops_per_s"},
	{name: "sim.host_cpu_share", unit: "share", better: "lower", layer: "sim", moves: "host_kops_per_s, host_allocs_per_op"},
	{name: "sim.write_p50_us", unit: "us", better: "lower", layer: "sim", moves: "sim_write_mean_us on every workload"},
	{name: "sim.read_p50_us", unit: "us", better: "lower", layer: "reads", moves: "sim_mean_us on the read-carrying workloads"},
	{name: "sim.read_p99_us", unit: "us", better: "lower", layer: "reads", moves: "sim_p99_us on the read-carrying workloads"},
	{name: "rados.host_cpu_share", unit: "share", better: "lower", layer: "rados", moves: "host_kops_per_s, host_alloc_bytes_per_op on dksw-ec-mixed16k"},
	{name: "crush.host_cpu_share", unit: "share", better: "lower", layer: "crush", moves: "host_kops_per_s on dkhw-write4k; near zero on dksw-ec-mixed16k"},
	{name: "core.host_cpu_share", unit: "share", better: "lower", layer: "core", moves: "host_kops_per_s"},
	{name: "netsim.host_cpu_share", unit: "share", better: "lower", layer: "netsim", moves: "host_kops_per_s"},
	{name: "iouring.host_cpu_share", unit: "share", better: "lower", layer: "iouring", moves: "host_kops_per_s"},
	{name: "blockmq.host_cpu_share", unit: "share", better: "lower", layer: "blockmq", moves: "host_kops_per_s on the card workloads"},
	{name: "trace.host_cpu_share", unit: "share", better: "lower", layer: "sim", moves: "trace.overhead_ratio"},
	{name: "iouring.sim_self_mean_us", unit: "us", better: "lower", layer: "iouring", moves: "sim.write_p50_us, sim.read_p50_us on every workload"},
	{name: "iouring.enters_per_kop", unit: "count/kop", better: "lower", layer: "iouring", moves: "sim_write_mean_us on every workload"},
	{name: "iouring.cq_overflows", unit: "count", better: "lower", layer: "iouring", moves: "completed_share"},
	{name: "blockmq.sim_self_mean_us", unit: "us", better: "lower", layer: "blockmq", moves: "sim_write_mean_us on dkhw-write4k, sim.read_p50_us on lsvd-zipf-mixed4k"},
	{name: "blockmq.direct_share", unit: "share", better: "higher", layer: "blockmq", moves: "sim_write_mean_us on dkhw-write4k"},
	{name: "blockmq.requeues_per_kop", unit: "count/kop", better: "lower", layer: "blockmq", moves: "sim_write_p99_us on dkhw-write4k"},
	{name: "qdma.sim_self_mean_us", unit: "us", better: "lower", layer: "qdma", moves: "sim_write_mean_us, sim_write_p99_us on dkhw-write4k"},
	{name: "uifd.card_ops_per_op", unit: "ops/op", better: "lower", layer: "uifd", moves: "sim_write_mean_us on dkhw-write4k"},
	{name: "fpga.sim_crush_mean_us", unit: "us", better: "lower", layer: "fpga", moves: "sim_write_mean_us on dkhw-write4k"},
	{name: "core.sim_fanout_mean_us", unit: "us", better: "lower", layer: "core", moves: "sim_write_mean_us on dkhw-write4k"},
	{name: "core.sim_fanout_p99_us", unit: "us", better: "lower", layer: "core", moves: "sim_write_p99_us on dkhw-write4k"},
	{name: "core.host_submit_ns_per_op", unit: "ns", better: "lower", layer: "core", moves: "host_kops_per_s, host_alloc_bytes_per_op"},
	{name: "lsvd.sim_mean_us", unit: "us", better: "lower", layer: "lsvd", moves: "sim.read_p50_us, sim_kiops on lsvd-zipf-mixed4k"},
	{name: "lsvd.sim_p99_us", unit: "us", better: "lower", layer: "lsvd", moves: "sim.read_p99_us, sim_p99_us on lsvd-zipf-mixed4k"},
	{name: "lsvd.read_hit_ratio", unit: "share", better: "higher", layer: "lsvd", moves: "sim.read_p50_us, sim_kiops on lsvd-zipf-mixed4k"},
	{name: "lsvd.fills_per_read_miss", unit: "fills/miss", better: "lower", layer: "lsvd", moves: "sim.read_p99_us on lsvd-zipf-mixed4k"},
	{name: "lsvd.evictions_per_kop", unit: "count/kop", better: "lower", layer: "lsvd", moves: "sim.read_p50_us on lsvd-zipf-mixed4k"},
	{name: "lsvd.write_amp", unit: "B/B", better: "lower", layer: "lsvd", moves: "sim_write_mean_us on lsvd-zipf-mixed4k"},
	{name: "lsvd.flushes", unit: "count", better: "lower", layer: "lsvd", moves: "sim_p99_us on lsvd-zipf-mixed4k"},
	{name: "lsvd.throttles_per_kop", unit: "count/kop", better: "lower", layer: "lsvd", moves: "sim_write_p99_us on lsvd-zipf-mixed4k"},
	{name: "lsvd.host_cpu_share", unit: "share", better: "lower", layer: "lsvd", moves: "host_kops_per_s on lsvd-zipf-mixed4k"},
	{name: "netsim.msgs_per_op", unit: "msgs/op", better: "lower", layer: "netsim", moves: "sim_kiops on dksw-ec-mixed16k"},
	{name: "netsim.bytes_per_op", unit: "B/op", better: "lower", layer: "netsim", moves: "sim_kiops on dksw-ec-mixed16k"},
	{name: "netsim.client_nic_busy_share", unit: "share", better: "lower", layer: "netsim", moves: "sim_kiops on dksw-ec-mixed16k"},
	{name: "metrics.host_cpu_share", unit: "share", better: "lower", layer: "metrics", moves: "host_kops_per_s, host_alloc_bytes_per_op"},
	{name: "runtime.host_cpu_share", unit: "share", better: "lower", layer: "sim", moves: "host_kops_per_s, host_alloc_bytes_per_op"},
	{name: "runtime.gc_cycles_per_kop", unit: "count/kop", better: "lower", layer: "sim", moves: "host_kops_per_s, host_alloc_bytes_per_op"},
	{name: "crit.io.share", unit: "share", better: "lower", layer: "iouring", moves: "sim_p99_us on every workload"},
	{name: "crit.kernel.share", unit: "share", better: "lower", layer: "iouring", moves: "sim_p99_us on every workload"},
	{name: "crit.blk-mq.share", unit: "share", better: "lower", layer: "blockmq", moves: "sim_write_p99_us on dkhw-write4k"},
	{name: "crit.card-pipeline.share", unit: "share", better: "lower", layer: "fpga", moves: "sim_write_p99_us on dkhw-write4k"},
	{name: "crit.crush-select.share", unit: "share", better: "lower", layer: "fpga", moves: "sim_write_p99_us on dkhw-write4k"},
	{name: "crit.replica.share", unit: "share", better: "lower", layer: "fpga", moves: "sim_p99_us on dkhw-write4k and lsvd-zipf-mixed4k"},
	{name: "crit.osd-service.share", unit: "share", better: "lower", layer: "rados", moves: "sim_p99_us on every workload"},
	{name: "crit.lsvd-cache.share", unit: "share", better: "lower", layer: "lsvd", moves: "sim_p99_us on lsvd-zipf-mixed4k"},
	{name: "setup.testbed_ms", unit: "ms", better: "lower", layer: "core", moves: "setup_s"},
	{name: "setup.stack_ms", unit: "ms", better: "lower", layer: "core", moves: "setup_s"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", layer: "sim", moves: "none; guards the cost of tracing"},
}

// carries reports whether the workload's ops exercise the metric's layer.
// "reads" is carried by the workloads that issue reads; every workload
// passes through sim.
func (w workload) carries(m metricDef) bool {
	switch m.layer {
	case "sim":
		return true
	case "reads":
		return w.readPct > 0
	}
	for _, l := range w.layers {
		if l == m.layer {
			return true
		}
	}
	return false
}
