package main

// metricDef declares one reported metric. BENCHMARK.json repeats these
// tables (the driver reads the JSON; the test suite holds the two equal).
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
}

// endToEnd is what a user of the update path sees, per workload. Every
// bound is the contract's maximum: the acceptance rule gives each run
// another seed, and a 200-instance sample of the paper's instance
// distribution moves its own latency statistics by 4-7 % before the
// machine adds its share (README, "Steadiness"). latency_p95_ms is
// reported per layer, without a bound: its spread over ten runs reached
// 24-44 % on a bad day of the box this was written on, where the
// median's stayed 1.5 times lower.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "kB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is one row per layer boundary the ops cross; a layer a
// workload does not cross reports 0 there. Unit "count" is kept for
// tallies that repeat exactly for a seed: compare holds two sets to
// them seed by seed.
var perLayer = []metricDef{
	{"topo.corpus_gen_ms", "ms", "lower", 0},
	{"scheme.solve_ms", "ms", "lower", 0},
	{"scheme.cache_hit_ratio", "ratio", "higher", 0},
	{"core.sched_validations", "count", "lower", 0},
	{"core.slack_ms", "ms", "lower", 0},
	{"dynflow.validate_runs", "count", "lower", 0},
	{"dynflow.validate_traces", "count", "lower", 0},
	{"dynflow.us_per_validation", "us", "lower", 0},
	{"controller.boot_ms", "ms", "lower", 0},
	{"controller.execute_ms", "ms", "lower", 0},
	{"controller.flowmods_per_op", "count", "lower", 0},
	{"controller.barriers_per_op", "count", "lower", 0},
	{"ofp.msgs_per_op", "count", "lower", 0},
	{"ofp.bytes_per_op", "count", "lower", 0},
	{"emu.settle_ms", "ms", "lower", 0},
	{"obs.events_per_op", "count", "lower", 0},
	{"obs.emit_ns_per_event", "ns", "lower", 0},
	{"obs.spanforest_ms", "ms", "lower", 0},
	{"journal.emit_ns_per_event", "ns", "lower", 0},
	{"journal.flush_ms", "ms", "lower", 0},
	{"journal.bytes_per_op", "B/op", "lower", 0},
	{"journal.dropped_events", "count", "lower", 0},
	{"journal.read_ms", "ms", "lower", 0},
	{"journal.read_events_per_s", "1/s", "higher", 0},
	{"audit.fold_ms", "ms", "lower", 0},
	{"audit.violations_per_op", "count", "lower", 0},
	{"state.fold_ms", "ms", "lower", 0},
	{"health.fold_ms", "ms", "lower", 0},
	{"clock.fold_ms", "ms", "lower", 0},
	{"admit.submit_us_per_update", "us", "lower", 0},
	{"admit.wait_ms_per_burst", "ms", "lower", 0},
	{"admit.complete_us_per_hold", "us", "lower", 0},
	{"admit.waves_per_burst", "count", "lower", 0},
	{"admit.component_size_mean", "count", "lower", 0},
	{"admit.refused_share", "ratio", "lower", 0},
	{"admit.ledger_overcommit", "count", "lower", 0},
	{"admit.retained_kb_per_update", "kB", "lower", 0},
	{"runtime.gc_cycles_per_op", "1/op", "lower", 0},
	{"runtime.mallocs_per_op", "1/op", "lower", 0},
	{"latency_p95_ms", "ms", "lower", 0},
	{"makespan_ticks_mean", "ticks", "lower", 0},
	{"failed_share", "ratio", "lower", 0},
	{"bench.other_ms", "ms", "lower", 0},
	{"bench.layer_coverage_pct", "%", "higher", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.round_spread_pct", "%", "lower", 0},
	{"bench.nondeterministic_ops", "count", "lower", 0},
}

// layerSpans maps the per-layer time metrics that are a layer's mean
// self time per op to the span name the harness records for it.
var layerSpans = map[string]string{
	"scheme.solve_ms":         "scheme.solve",
	"core.slack_ms":           "core.slack",
	"controller.execute_ms":   "controller.execute",
	"emu.settle_ms":           "emu.settle",
	"obs.spanforest_ms":       "obs.spanforest",
	"journal.flush_ms":        "journal.flush",
	"journal.read_ms":         "journal.read",
	"audit.fold_ms":           "audit.fold",
	"state.fold_ms":           "state.fold",
	"health.fold_ms":          "health.fold",
	"clock.fold_ms":           "clock.fold",
	"admit.wait_ms_per_burst": "admit.wait",
	"bench.other_ms":          "bench.other",
}
