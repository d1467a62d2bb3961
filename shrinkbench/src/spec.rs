//! The metrics the benchmark reports, and `BENCHMARK.json` rendered from
//! them and the workload table — the single source of both.

use crate::workload::Workload;
use Better::{Higher, Lower};

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Name as printed and as keyed in the result JSON.
    pub name: &'static str,
    /// Unit. `sim_s` marks simulated (modeled) seconds, `s` host seconds.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Whether the value is a pure function of the inputs (identical on
    /// every run of a seed), so two runs must agree bit for bit.
    pub deterministic: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    deterministic: bool,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        deterministic,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        deterministic: false,
    }
}

/// End-to-end metrics, reported by every untraced run. The wall-time and
/// memory bounds are as wide as allowed: on the shared two-core host the
/// benchmark was built on, the spread of ten seeds' values reached 20–30%
/// in busy periods (see README.md). The modeled metrics spread under 2%.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("train_wall_s", "s", Lower, 0.25, false),
    e2e("predict_rows_per_s", "rows/s", Higher, 0.25, false),
    e2e("modeled_makespan_s", "sim_s", Lower, 0.06, true),
    e2e("iterations", "count", Lower, 0.06, true),
    e2e("test_accuracy", "fraction", Higher, 0.02, true),
    e2e("peak_rss_mb", "MiB", Lower, 0.25, false),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [Metric; 30] = [
    layer("sparse.dot_merge_ns_per_nnz", "ns", Lower),
    layer("sparse.dot_scatter_ns_per_nnz", "ns", Lower),
    layer("sparse.io_read_mb_per_s", "MB/s", Higher),
    layer("kernel.eval_ns", "ns", Lower),
    layer("cache.hit_rate", "fraction", Higher),
    layer("shrink.work_frac", "fraction", Lower),
    layer("shrink.best_over_default", "ratio", Higher),
    layer("recon.count", "count", Lower),
    layer("recon.modeled_frac", "fraction", Lower),
    layer("dist.wall_per_iter_us", "us", Lower),
    layer("dist.default_wall_s", "s", Lower),
    layer("dist.default_makespan_s", "sim_s", Lower),
    layer("dist.modeled_compute_s", "sim_s", Lower),
    layer("smo.seq_wall_s", "s", Lower),
    layer("mpisim.spawn_ms", "ms", Lower),
    layer("mpisim.allreduce_us", "us", Lower),
    layer("mpisim.bcast_4k_us", "us", Lower),
    layer("mpisim.ring_shift_4k_us", "us", Lower),
    layer("mpisim.cpu_per_wall", "ratio", Higher),
    layer("mpisim.msgs_per_iter", "count", Lower),
    layer("mpisim.bytes_per_iter", "B", Lower),
    layer("mpisim.coll_rounds_per_iter", "count", Lower),
    layer("mpisim.modeled_transfer_s", "sim_s", Lower),
    layer("mpisim.modeled_idle_s", "sim_s", Lower),
    layer("threads.parallel_parts_us", "us", Lower),
    layer("model.decision_ns_per_sv", "ns", Lower),
    layer("model.io_roundtrip_ms", "ms", Lower),
    layer("obs.trace_overhead_x", "ratio", Lower),
    layer("obs.whatif_zero_network_s", "sim_s", Lower),
    layer("obs.whatif_infinite_cache_s", "sim_s", Lower),
];

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 20;

/// The benchmark's directory, relative to the repository root.
pub const DIR: &str = "shrinkbench";

/// `BENCHMARK.json`: how to run the benchmark, its workloads and metrics.
pub fn benchmark_json() -> String {
    let quoted = |s: &str| {
        let mut out = String::new();
        shrinksvm_obs::json::escape_into(&mut out, s);
        out
    };
    let manifest = format!("{DIR}/Cargo.toml");
    let command = [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        &manifest,
        "--",
    ];
    let command: Vec<String> = command.iter().map(|s| quoted(s)).collect();
    let workloads: Vec<String> = Workload::all()
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    let metrics = |table: &[Metric]| -> String {
        let rows: Vec<String> = table
            .iter()
            .map(|m| {
                let bound = m
                    .bound
                    .map(|b| format!(", \"bound\": {b}"))
                    .unwrap_or_default();
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better.as_str())
                )
            })
            .collect();
        rows.join(",\n")
    };
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        quoted(DIR),
        workloads.join(",\n"),
        metrics(&END_TO_END),
        metrics(&PER_LAYER),
    )
}
