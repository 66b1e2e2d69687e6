package main

// decl is one declared metric. BENCHMARK.json repeats these names and
// units (and adds direction and bound); bench_test.go keeps the two equal.
type decl struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; none can be 0. primary_p50_ms and primary_p90_ms are the
// latency of the op kind the workload is about (workload.primary and .slow):
// cell for point_read and proxy_mixed, aggregate for agg_adhoc, one whole
// compression for compress_batch, and for ingest_mixed the cell read beside
// the writes (p50) and the bulk write (p90). The slow end is p90, not p99:
// ten runs of the same code spread 13-20 % on p99 (README.md, "Why the
// gating tail is p90"), which no bound the contract allows can hold, so p99
// is reported by the traced run (client.*_p99_ms) and gates nothing.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"primary_p50_ms", "ms"},
	{"primary_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"rmspe_pct", "%"},
	{"space_ratio", "ratio"},
}

// perLayer is what the traced run reports, innermost layer first. A value
// of 0 means the workload has no op that reaches that layer.
var perLayer = []decl{
	// linalg kernels at the two lengths the system uses them: k_opt
	// (row reconstruction) and M (Gram accumulation, panels).
	{"linalg.dot_k_ns", "ns"},
	{"linalg.dot_m_ns", "ns"},
	{"linalg.axpy_k_ns", "ns"},
	{"linalg.axpy_m_ns", "ns"},
	{"linalg.symeigen_ms", "ms"},
	// matio: the I/O floor of one pass, and random row reads.
	{"matio.scan_rows_per_s", "1/s"},
	{"matio.read_row_us", "us"},
	{"matio.write_rows_per_s", "1/s"},
	// svd: the two passes of plain SVD on the probe matrix, and U reads.
	{"svd.accumulate_c_ms", "ms"},
	{"svd.compute_u_ms", "ms"},
	{"svd.accumulate_c_speedup", "ratio"},
	{"svd.row_us", "us"},
	{"svd.scan_urows_per_s", "1/s"},
	// core: SVDD compression of the probe matrix, and point reads.
	{"core.compress_ms", "ms"},
	{"core.pass2_ms", "ms"},
	{"core.compress_worker_speedup", "ratio"},
	{"core.compress_rand_ms", "ms"},
	{"core.cell_ns", "ns"},
	{"core.row_us", "us"},
	{"core.delta_probes_per_cell", "count"},
	{"core.foldin_us", "us"},
	// store: the .sqz container, as the set-up used it.
	{"store.save_ms", "ms"},
	{"store.open_ms", "ms"},
	// query: direct evaluation of the workload's own aggregates.
	{"query.eval_factored_us", "us"},
	{"query.eval_stddev_us", "us"},
	{"query.eval_projected_us", "us"},
	{"query.batch_us", "us"},
	{"query.allocs_per_eval", "count"},
	{"query.plan_hit_frac", "ratio"},
	{"query.partial_encode_us", "us"},
	{"query.merge_partials_us", "us"},
	// server: Handler.ServeHTTP on a recorder; self = handler − core/query.
	{"server.handler_cell_us", "us"},
	{"server.handler_row_us", "us"},
	{"server.handler_agg_us", "us"},
	{"server.handler_bulk_us", "us"},
	{"server.cell_self_us", "us"},
	{"server.row_self_us", "us"},
	{"server.agg_self_us", "us"},
	{"server.allocs_per_cell", "count"},
	{"server.row_cache_hit_frac", "ratio"},
	{"server.disk_accesses_per_cell", "count"},
	// http: one serial loopback client → a store node; self = − handler.
	{"http.node_cell_us", "us"},
	{"http.node_agg_us", "us"},
	{"http.node_self_us", "us"},
	// cluster: the same client → proxy → shards; self = − direct node.
	{"cluster.proxy_cell_us", "us"},
	{"cluster.proxy_agg_us", "us"},
	{"cluster.hop_cell_self_us", "us"},
	{"cluster.hop_agg_self_us", "us"},
	{"cluster.shard_calls_per_op", "count"},
	{"cluster.hedges", "count"},
	// ingest: the write path rung by rung, then the live tier's counters.
	{"ingest.wal_append_us", "us"},
	{"ingest.append_batch_us", "us"},
	{"ingest.compact_ms", "ms"},
	{"ingest.recompress_ms", "ms"},
	{"ingest.recovery_ms", "ms"},
	{"ingest.wal_syncs_per_batch", "count"},
	{"ingest.max_compact_pause_us", "us"},
	{"ingest.compactions", "count"},
	{"ingest.recompressions", "count"},
	{"ingest.rows_folded", "count"},
	{"ingest.bytes_written_per_user_byte", "ratio"},
	// setup: the stages of setup_s.
	{"setup.datagen_ms", "ms"},
	{"setup.write_ms", "ms"},
	{"setup.compress_ms", "ms"},
	{"setup.listen_ms", "ms"},
	{"setup.peak_rss_mb", "MB"},
	// client: per-kind latency from a short untraced closed-loop run.
	{"client.cell_p50_ms", "ms"},
	{"client.cell_p99_ms", "ms"},
	{"client.row_p50_ms", "ms"},
	{"client.row_p99_ms", "ms"},
	{"client.agg_p50_ms", "ms"},
	{"client.agg_p99_ms", "ms"},
	{"client.batch_p50_ms", "ms"},
	{"client.bulk_p50_ms", "ms"},
	{"client.bulk_p99_ms", "ms"},
	{"client.ingest_rows_per_s", "1/s"},
	{"client.compress_rows_per_s", "1/s"},
	{"client.slo_miss_frac", "ratio"},
	{"client.gen_busy_frac", "ratio"},
	{"client.fail_frac", "ratio"},
	// runtime: what the whole process spent per op in that run.
	{"runtime.cpu_ms_per_op", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	// bench: the instrument's own error bars.
	{"bench.serial_p50_us", "us"},
	{"bench.span_overhead_frac", "ratio"},
}
