package main

// The benchmark's declared surface: end-to-end metrics with their
// regression bounds, and per-layer metrics (the workloads are declared
// in workloads.go). BENCHMARK.json at the
// repo root repeats exactly these names, units and directions (a test
// holds the two in agreement); later issues refer to the names verbatim.

const (
	higher = "higher"
	lower  = "lower"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	wlTable3 = "table3-fork"
	wlPrefix = "prefix-rerun"
	wlShard  = "shard-merge"
	wlFleet  = "fleet-compare"
)

// End-to-end metric names.
const (
	mInjPerS = "inj_per_s"
	mSetupS  = "setup_s"
	mPeakRSS = "peak_rss_mb"
)

var endToEndSpecs = []metricSpec{
	{mInjPerS, "injections/s", higher, 0.10},
	{mSetupS, "s", lower, 0.25},
	{mPeakRSS, "MB", lower, 0.25},
}

// Per-layer metrics, grouped by the repo package they measure. Counts
// (unit "count") repeat exactly for a fixed seed; spans come from the traced pass;
// probes are the micro-loops in probes.go.
var perLayerSpecs = []metricSpec{
	// vm
	{"vm.instrs_retired", "count", lower, 0},
	{"vm.minstr_per_s", "Minstr/s", higher, 0},
	{"vm.drive_minstr_per_s", "Minstr/s", higher, 0},
	{"vm.step_minstr_per_s", "Minstr/s", higher, 0},
	{"vm.new_us", "us", lower, 0},
	{"vm.fork_ns", "ns", lower, 0},
	// mem
	{"mem.pages_copied", "count", lower, 0},
	{"mem.read8_hit_ns", "ns", lower, 0},
	{"mem.read8_miss_ns", "ns", lower, 0},
	{"mem.write8_hit_ns", "ns", lower, 0},
	{"mem.fork_ns", "ns", lower, 0},
	{"mem.cow_first_write_ns", "ns", lower, 0},
	// engine
	{"engine.forks", "count", lower, 0},
	{"engine.waypoints", "count", lower, 0},
	{"engine.instrs_replayed", "count", lower, 0},
	{"engine.instrs_saved", "count", higher, 0},
	{"engine.record_ms", "ms", lower, 0},
	{"engine.forkat_us", "us", lower, 0},
	{"engine.resolve_whens_ms", "ms", lower, 0},
	// core
	{"core.repairs", "count", lower, 0},
	{"core.repair_ns", "ns", lower, 0},
	// inject
	{"inject.service_p50_us", "us", lower, 0},
	{"inject.service_p99_us", "us", lower, 0},
	{"inject.worker_busy_frac", "fraction", higher, 0},
	{"inject.plan_context_ms", "ms", lower, 0},
	{"inject.manifest_digest_ms", "ms", lower, 0},
	{"inject.execute_one_us", "us", lower, 0},
	// analysis, lang
	{"analysis.analyze_ms", "ms", lower, 0},
	{"lang.compile_ms", "ms", lower, 0},
	// resilience
	{"resilience.records", "count", lower, 0},
	{"resilience.journal_bytes", "bytes", lower, 0},
	{"resilience.append_us", "us", lower, 0},
	{"resilience.flush_ms_at_1k", "ms", lower, 0},
	{"resilience.flush_ms_at_10k", "ms", lower, 0},
	{"resilience.open_ms_10k", "ms", lower, 0},
	{"resilience.merge3_ms_10k", "ms", lower, 0},
	// fabric
	{"fabric.leases_granted", "count", lower, 0},
	{"fabric.leases_expired", "count", lower, 0},
	{"fabric.heartbeats", "count", lower, 0},
	{"fabric.records_shipped", "count", lower, 0},
	{"fabric.duplicate_records", "count", lower, 0},
	{"fabric.coordinate_s", "s", lower, 0},
	{"fabric.worker_setup_s", "s", lower, 0},
	{"fabric.idle_s", "s", lower, 0},
	{"fabric.lease_rtt_us", "us", lower, 0},
	{"fabric.heartbeat_rtt_us", "us", lower, 0},
	{"fabric.complete_rtt_us", "us", lower, 0},
	// spans
	{"span.compile_s", "s", lower, 0},
	{"span.golden_s", "s", lower, 0},
	{"span.profile_s", "s", lower, 0},
	{"span.analysis_s", "s", lower, 0},
	{"span.plan_s", "s", lower, 0},
	{"span.inject_s", "s", lower, 0},
	{"span.worker_chunk_s", "s", lower, 0},
	{"span.execute_s", "s", lower, 0},
	{"span.classify_s", "s", lower, 0},
	{"span.merge_s", "s", lower, 0},
	{"span.coverage_frac", "fraction", higher, 0},
	// obs, go
	{"obs.trace_overhead_frac", "fraction", lower, 0},
	{"obs.span_ns", "ns", lower, 0},
	{"go.alloc_bytes_per_inj", "bytes", lower, 0},
	{"go.gc_cycles", "cycles", lower, 0},
	{"go.gc_pause_ms", "ms", lower, 0},
}
