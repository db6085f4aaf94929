package main

// metric names one reported number. The two lists below are the
// benchmark's whole vocabulary: every workload reports every name (0 where
// the workload has no such layer or op kind), and bench_test.go checks the
// lists against BENCHMARK.json.
type metric struct{ name, unit string }

// endToEnd is what a caller of the Store API sees. See README.md for what
// each means on each workload.
var endToEnd = []metric{
	{"throughput_ops_s", "ops/s"},
	{"op_p50_us", "us"},
	{"put_p50_us", "us"},
	{"mem_bytes_per_key", "B/key"},
	{"setup_s", "s"},
}

func kindMetrics(prefix, suffix, unit string, kinds ...opKind) []metric {
	var ms []metric
	for _, k := range kinds {
		ms = append(ms, metric{prefix + kindNames[k] + suffix, unit})
	}
	return ms
}

// perLayer is grouped by layer (the repository's modules), in ladder order.
var perLayer = concat(
	kindMetrics("htm.", "_ns", "ns", kGet, kPut, kDel, kScan),
	kindMetrics("core.", "_self_ns", "ns", kGet, kPut, kDel, kScan),
	[]metric{{"core.allocs_per_op", "1/op"}, {"core.scan_loads_per_key", "1/key"}},
	kindMetrics("db.", "_self_ns", "ns", kGet, kPut, kDel, kScan),
	[]metric{{"db.allocs_per_op", "1/op"}},
	kindMetrics("durable.", "_self_ns", "ns", kGet, kPut, kDel),
	[]metric{
		{"durable.allocs_per_op", "1/op"},
		{"durable.flushes_per_write", "ratio"},
		{"durable.frames_per_flush", "ratio"},
		{"durable.bytes_per_write", "ratio"},
		{"durable.flush_p50_ns", "ns"},
		{"durable.flush_p99_ns", "ns"},
		{"durable.snapshots", "count"},
		{"durable.recovery_s", "s"},
		{"durable.replayed_frames", "count"},
		{"durable.snapshot_pairs", "count"},
	},
	kindMetrics("cluster.", "_self_ns", "ns", kGet, kPut, kDel, kScan),
	[]metric{
		{"cluster.allocs_per_op", "1/op"},
		{"cluster.scan_loads_per_key", "1/key"},
		{"cluster.redirects", "count"},
		{"cluster.retries", "count"},
		{"cluster.shed_ops", "count"},
		{"cluster.shard_imbalance", "ratio"},
	},
	kindMetrics("shard.health_", "_self_ns", "ns", kGet, kPut, kDel, kScan),
	[]metric{
		{"shard.trips", "count"},
		{"htm.attempts_per_op", "1/op"},
		{"htm.commit_ratio", "ratio"},
		{"htm.aborts_per_op", "1/op"},
		{"htm.abort_conflict_true_per_op", "1/op"},
		{"htm.abort_conflict_false_per_op", "1/op"},
		{"htm.abort_conflict_meta_per_op", "1/op"},
		{"htm.abort_capacity_per_op", "1/op"},
		{"htm.fallbacks_per_kop", "1/kop"},
		{"htm.loads_per_op", "1/op"},
		{"htm.stores_per_op", "1/op"},
		{"htm.wasted_cycle_pct", "%"},
		{"core.splits_per_kop", "1/kop"},
		{"core.compactions_per_kop", "1/kop"},
		{"core.mark_rejects_per_kop", "1/kop"},
		{"core.root_retries_per_kop", "1/kop"},
		{"simmem.live_bytes", "B"},
		{"simmem.peak_bytes", "B"},
		{"simmem.ccm_bytes", "B"},
		{"simmem.reserved_bytes", "B"},
		{"vclock.sim_ops_per_wall_s", "ops/s"},
		{"vclock.sim_wall_s", "s"},
	},
	kindMetrics("handle.", "_p50_us", "us", kGet, kDel, kScan),
	kindMetrics("handle.", "_p99_us", "us", kGet, kPut, kDel, kScan),
	kindMetrics("handle.", "_p999_us", "us", kGet, kPut, kDel, kScan),
	[]metric{
		{"handle.op_p99_us", "us"},
		{"handle.mt_throughput_ops_s", "ops/s"},
		{"handle.mt_speedup", "ratio"},
		{"handle.wrong_reads", "count"},
		{"handle.wrong_at_rest", "count"},
		{"bench.loadgen_ns_per_op", "ns"},
		{"bench.trace_overhead_pct", "%"},
		{"bench.rep_spread_pct", "%"},
		{"bench.latency_samples", "count"},
	},
)

func concat(groups ...[]metric) []metric {
	var all []metric
	for _, g := range groups {
		all = append(all, g...)
	}
	return all
}
