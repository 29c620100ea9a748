package main

// metric declares one reported number. The lists below are the benchmark's
// contract: BENCHMARK.json at the repository root must declare exactly
// these names, units and directions (TestMetricsMatchBenchmarkJSON).
type metric struct {
	name, unit, better string
}

// endToEnd are the user-visible metrics, printed by untraced runs. Every
// workload reports every one of them, and none is ever 0.
var endToEnd = []metric{
	{"txn_per_s", "1/s", "higher"},
	{"txn_p50_ms", "ms", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"update_p50_ms", "ms", "lower"},
	{"restart_s", "s", "lower"},
	{"setup_s", "s", "lower"},
}

// coreOps are the DLFM requests whose agent handle time is reported.
var coreOps = []string{"BeginTxn", "LinkFile", "UnlinkFile", "Prepare", "Commit"}

// selfLayers are the span layers whose self time is reported.
var selfLayers = []string{"txn", "hostdb", "rpc", "core", "acceptor"}

// perLayer are the single-layer metrics, printed by traced runs. A layer a
// workload does not exercise reports 0.
var perLayer = func() []metric {
	m := []metric{
		{"hostdb.exec_p50_us", "us", "lower"},
		{"hostdb.commit_p50_us", "us", "lower"},
		{"hostdb.commit_p99_us", "us", "lower"},
		{"hostdb.query_p50_us", "us", "lower"},
		{"sql.parse_p50_us", "us", "lower"},
		{"sql.parse_share_pct", "%", "lower"},
		{"rpc.calls_per_txn", "count", "lower"},
		{"rpc.wire_bytes_per_txn", "B", "lower"},
		{"rpc.roundtrip_p50_us", "us", "lower"},
		{"rpc.transport_p50_us", "us", "lower"},
		{"rpc.reconnects", "count", "lower"},
		{"rpc.reissues", "count", "lower"},
	}
	for _, op := range coreOps {
		m = append(m, metric{"core.handle_p50_us." + op, "us", "lower"})
	}
	m = append(m, []metric{
		{"core.phase2_retries_per_1k", "count", "lower"},
		{"core.prepare_fails_per_1k", "count", "lower"},
		{"engine.rows_read_per_txn.host", "count", "lower"},
		{"engine.rows_read_per_txn.dlfm", "count", "lower"},
		{"engine.table_scans_per_txn.host", "count", "lower"},
		{"engine.table_scans_per_txn.dlfm", "count", "lower"},
		{"engine.commits_per_txn.dlfm", "count", "lower"},
		{"lock.acquisitions_per_txn.host", "count", "lower"},
		{"lock.acquisitions_per_txn.dlfm", "count", "lower"},
		{"lock.waits_per_1k", "count", "lower"},
		{"lock.wait_p99_ms", "ms", "lower"},
		{"lock.deadlocks_timeouts_per_1k", "count", "lower"},
		{"wal.syncs_per_txn.host", "count", "lower"},
		{"wal.syncs_per_txn.dlfm", "count", "lower"},
		{"wal.bytes_per_txn.host", "B", "lower"},
		{"wal.bytes_per_txn.dlfm", "B", "lower"},
		{"wal.sync_p50_us", "us", "lower"},
		{"wal.sync_p99_us", "us", "lower"},
		{"wal.group_batch_size", "count", "higher"},
		{"storage.hit_ratio.dlfm", "%", "higher"},
		{"storage.evictions_per_txn", "count", "lower"},
		{"storage.page_reads_per_txn", "count", "lower"},
		{"storage.page_writes_per_txn", "count", "lower"},
		{"storage.disk_bytes_per_row", "B", "lower"},
		{"paxoscommit.acceptor_calls_per_txn", "count", "lower"},
		{"paxoscommit.acceptor_handle_p50_us", "us", "lower"},
		{"paxoscommit.recoveries_per_1k", "count", "lower"},
		{"obs.sampling_tax_pct", "%", "lower"},
		{"proc.allocs_per_txn", "count", "lower"},
		{"proc.alloc_bytes_per_txn", "B", "lower"},
		{"proc.gc_cpu_pct", "%", "lower"},
		{"proc.peak_heap_mb", "MB", "lower"},
		{"storm.queue_wait_p99_ms", "ms", "lower"},
		{"storm.gen_late_p99_ms", "ms", "lower"},
		{"storm.backlog_max", "count", "lower"},
		{"knee_per_s", "1/s", "higher"},
		{"txn_p90_ms", "ms", "lower"},
		{"txn_p99_ms", "ms", "lower"},
		{"error_pct", "%", "lower"},
		{"trace.overhead_pct", "%", "lower"},
		{"trace.txn_p50_ms", "ms", "lower"},
		{"trace.txn_samples", "count", "higher"},
	}...)
	for _, l := range selfLayers {
		m = append(m, metric{"trace.self_us_per_txn." + l, "us", "lower"})
	}
	return m
}()
