package main

import "math"

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions; TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	bound float64
	// moves says which end-to-end metric a per-layer metric should move,
	// on which workload, so a change can name its prediction up front.
	moves string
}

// endToEndMetrics are measured by untraced runs (--trace 0); endToEnd
// defines each. The bounds come from sets of ten-seed runs on a shared
// 2-vCPU host, where other tenants (up to 35% steal) spread the run medians
// of the rates by 4–15% and of setup_s by 4–30% (interquartile range over
// median), so those three get the widest bound allowed; affinity,
// delivered_frac and max_rss_mb spread by at most 2.3%, 0 and 6%.
var endToEndMetrics = []metricDef{
	{name: "tuples_per_s", unit: "tuples/s", better: "higher", bound: 0.25},
	{name: "tuples_per_cpu_s", unit: "tuples/CPU-s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "affinity", unit: "ratio", better: "higher", bound: 0.05},
	{name: "delivered_frac", unit: "fraction", better: "higher", bound: 0.01},
	{name: "max_rss_mb", unit: "MiB", better: "lower", bound: 0.10},
}

const (
	onGappy     = "tuples_per_cpu_s on gappy-scalar"
	onBlock     = "tuples_per_cpu_s on steady-block and wire-block; flat on gappy-scalar"
	onWire      = "tuples_per_cpu_s on wire-block; flat on steady-block and gappy-scalar"
	onInProcess = "tuples_per_cpu_s and max_rss_mb on steady-block and gappy-scalar"
	onDispatch  = "tuples_per_s on gappy-scalar; flat on steady-block"
)

// perLayerMetrics are measured by the traced run (--trace 1): timed around
// public calls of each layer in the replay, or read from the counters
// pipeline.Result returns for the untraced sessions of the same run.
var perLayerMetrics = []metricDef{
	{name: "ingest.binary_ns_per_row", unit: "ns", better: "lower", moves: onGappy},

	{name: "stream.dispatch_ns_per_msg", unit: "ns", better: "lower", moves: onDispatch},
	{name: "stream.split_busy_ns_per_tuple", unit: "ns", better: "lower", moves: onDispatch},
	{name: "stream.engine_busy_frac", unit: "fraction", better: "higher", moves: onDispatch},

	{name: "pipeline.alloc_bytes_per_tuple", unit: "B", better: "lower", moves: onInProcess},
	{name: "pipeline.gc_cycles", unit: "count", better: "lower", moves: onInProcess},
	{name: "pipeline.snapshots_sent", unit: "count", better: "lower", moves: "affinity on every workload"},
	{name: "pipeline.merges_applied", unit: "count", better: "higher", moves: "affinity on every workload"},
	{name: "pipeline.outlier_frac", unit: "fraction", better: "lower", moves: "affinity on every workload"},

	{name: "core.warmup_ms", unit: "ms", better: "lower", moves: onGappy + "; flat on steady-block"},
	{name: "core.block_ns_per_row", unit: "ns", better: "lower", moves: onBlock},
	{name: "core.observe_ns_per_row", unit: "ns", better: "lower", moves: onGappy},
	{name: "core.merge_us", unit: "us", better: "lower", moves: "affinity on every workload"},
	{name: "core.snapshot_us", unit: "us", better: "lower", moves: "affinity on every workload"},

	{name: "mat.center_project_ns", unit: "ns", better: "lower", moves: onBlock},
	{name: "mat.syrk_rows_ns", unit: "ns", better: "lower", moves: onBlock},
	{name: "mat.panel_ns", unit: "ns", better: "lower", moves: onBlock},
	{name: "mat.basis_update_ns", unit: "ns", better: "lower", moves: onBlock},
	{name: "mat.block_flop_per_row", unit: "flop", better: "lower", moves: onBlock},
	{name: "mat.block_width", unit: "count", better: "higher", moves: onBlock},
	{name: "mat.pool_min_work", unit: "count", better: "lower", moves: onBlock},

	{name: "eig.tridiag_us", unit: "us", better: "lower", moves: "tuples_per_cpu_s on steady-block"},
	{name: "eig.jacobi_us", unit: "us", better: "lower", moves: onGappy},
	{name: "eig.orthonormalize_us", unit: "us", better: "lower", moves: "tuples_per_cpu_s on steady-block and gappy-scalar"},
	{name: "eig.thin_svd_ms", unit: "ms", better: "lower", moves: onGappy + " (warm-up)"},

	{name: "wire.encode_ns_per_frame", unit: "ns", better: "lower", moves: onWire},
	{name: "wire.decode_ns_per_frame", unit: "ns", better: "lower", moves: onWire},
	{name: "wire.bytes_per_tuple", unit: "B", better: "lower", moves: onWire},
	{name: "wire.snapshot_full_bytes", unit: "B", better: "lower", moves: onWire},
	{name: "wire.snapshot_delta_bytes", unit: "B", better: "lower", moves: onWire},
	{name: "wire.bytes_per_writev", unit: "B", better: "higher", moves: onWire},
	{name: "wire.frames_per_writev", unit: "count", better: "higher", moves: onWire},
	{name: "wire.cork_stalls", unit: "count", better: "lower", moves: onWire},
	{name: "wire.reconnects", unit: "count", better: "lower", moves: onWire},
	{name: "wire.coordinator_cpu_frac", unit: "fraction", better: "lower", moves: onWire},

	{name: "trace.coverage_frac", unit: "fraction", better: "higher",
		moves: "none: shows whether the replayed ledger explains the end-to-end CPU per tuple"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newReport attaches units to every metric of defs, taking values from vals
// (a missing or non-finite value reads 0).
func newReport(defs []metricDef, vals map[string]float64) report {
	r := report{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r
}
