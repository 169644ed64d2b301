package main

// metricDef is one metric as BENCHMARK.json declares it. The endToEnd and
// perLayer tables below are the source of truth the harness reports
// against; a test holds BENCHMARK.json to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of an untraced run (--trace 0); every
// workload reports every one. Times and rates are scaled to the nominal
// host (calib.go); the raw figures are in the report.
var endToEnd = []metricDef{
	// Median wall time of one set-up (engine workloads: digest check and
	// a warm-up synthesis one event smaller; serve-mix: a fresh store and
	// server with both request pools synthesized through it), repeated
	// per run as repeatSetup says.
	{"setup_s", "s", "lower", 0.25},
	// Median wall time of one synthesis as its caller waits for it:
	// memsynth.SynthesizeContext on the engine workloads, a cold write
	// (evict, then synthesize over HTTP) on serve-mix.
	{"synth_p50_ms", "ms", "lower", 0.2},
	// Operations completed per second: syntheses on the engine workloads
	// (the inverse of synth_p50_ms), requests on serve-mix (the median
	// over its 1-second slices).
	{"ops_per_s", "1/s", "higher", 0.2},
	// 90th percentile of the process's resident set size, sampled every
	// 5 ms over the measured window.
	{"rss_p90_mb", "MB", "lower", 0.1},
}

// perLayer are the metrics of a traced run (--trace 1). Engine-layer
// times (synth.*, canon.*, minimal.*, admit.*, exec.*) are self times in
// nanoseconds summed over one synthesis (over the cold pool on
// serve-mix); store.* and server.* times are medians per call.
var perLayer = []metricDef{
	{"synth.gen.ns", "ns", "lower", 0},
	{"synth.gen.programs_raw", "count", "lower", 0},
	{"canon.program_key.ns", "ns", "lower", 0},
	{"canon.program_key.calls", "count", "lower", 0},
	{"canon.dedupe.distinct_ratio", "ratio", "lower", 0},
	{"canon.key.ns", "ns", "lower", 0},
	{"canon.key.calls", "count", "lower", 0},
	{"minimal.bind.ns", "ns", "lower", 0},
	{"minimal.check.ns", "ns", "lower", 0},
	{"minimal.check.calls", "count", "lower", 0},
	{"minimal.check.minimal_ratio", "ratio", "higher", 0},
	{"admit.bind.ns", "ns", "lower", 0},
	// Self time of admit.NewChecker, Checker.Bind and Checker.Decide
	// together; admit.decide.ns is its difference from admit.bind.ns, and
	// is reported but not declared because it reads 0 on every
	// front-c11-4 run (c11 has no algorithm, so nothing is decided).
	{"admit.ns", "ns", "lower", 0},
	{"admit.decide.calls", "count", "lower", 0},
	{"admit.decide.refuted_ratio", "ratio", "higher", 0},
	{"exec.enumerate.ns", "ns", "lower", 0},
	{"exec.enumerate.executions", "count", "lower", 0},
	{"exec.enumerate.executions_fast", "count", "higher", 0},
	{"exec.candidates_total_per_s", "1/s", "higher", 0},
	{"exec.candidates_enumerated_per_s", "1/s", "higher", 0},
	{"synth.merge.ns", "ns", "lower", 0},
	{"synth.alloc_mb", "MB", "lower", 0},
	{"synth.gc_cycles", "count", "lower", 0},
	{"synth.stage.generation_ns", "ns", "lower", 0},
	{"synth.stage.dedupe_ns", "ns", "lower", 0},
	{"synth.stage.execution_ns", "ns", "lower", 0},
	{"synth.stage.minimality_ns", "ns", "lower", 0},
	{"store.get_lru.ns", "ns", "lower", 0},
	{"store.get_disk.ns", "ns", "lower", 0},
	{"store.lru_hit_ratio", "ratio", "higher", 0},
	{"store.encode.ns", "ns", "lower", 0},
	{"store.put.ns", "ns", "lower", 0},
	{"server.hit_overhead_ns", "ns", "lower", 0},
	{"server.synth_runs", "count", "lower", 0},
	{"server.coalesced", "count", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// reportOnly are figures reports carry beside the declared metrics, raw
// (not scaled to the nominal host): the end-to-end figures under their
// original names, and the decide half of admit.ns. Hit latency, process
// CPU per operation and the RSS high-water mark are not gated: on a
// shared host they spread wider between identical runs than any useful
// bound, scaled or not.
var reportOnly = []metricDef{
	{"synth_s", "s", "lower", 0},
	{"synth_cpu_s", "s", "lower", 0},
	{"cpu_per_op_ms", "ms", "lower", 0},
	{"error_rate", "ratio", "lower", 0},
	{"hit_p50_ms", "ms", "lower", 0},
	{"hit_p99_ms", "ms", "lower", 0},
	{"cold_p50_ms", "ms", "lower", 0},
	{"cold_p90_ms", "ms", "lower", 0},
	{"req_per_s", "1/s", "higher", 0},
	{"peak_rss_mb", "MB", "lower", 0},
	// refNominal over the reference's measured time: above 1 on a host
	// running faster than nominal.
	{"host_factor", "ratio", "higher", 0},
	{"admit.decide.ns", "ns", "lower", 0},
}

// metricsFor returns the metric table a run in the given mode reports.
func metricsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// lookupMetric finds a metric in any of the tables.
func lookupMetric(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer, reportOnly} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
