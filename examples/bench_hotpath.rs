//! Hot-path A/B benchmark: merge-join vs dense-scratch dots, cold vs warm
//! kernel row cache, and modeled intra-rank lanes — the three layers of the
//! distributed gradient-update rebuild.
//!
//! Four configurations train on the same seeded problem:
//!
//! * `merge_nocache_t1` — the pre-optimization hot path (two-pointer
//!   merge-join dots, no cache, one lane): the speedup denominator
//! * `scatter_nocache_t1` — dense-scratch dots only
//! * `scatter_cache_t1` — plus the shrink-aware pivot-row cache
//! * `scatter_cache_t4` — plus four modeled intra-rank lanes
//!
//! The report's extras pin each configuration's makespan and the
//! `collective_rounds_per_iter` budget that message fusion holds down.
//!
//! Every configuration must produce a **byte-identical** model (the layer
//! is pure performance), and the full stack must cut the simulated
//! makespan by at least 1.5× — both asserted here, so this binary doubles
//! as the CI perf gate. The optimized configuration runs with tracing on
//! (observation only: it cannot move simulated time) and its PerfDoctor
//! analysis — exact critical path, makespan attribution, what-if
//! projections — is written as `PERF_hotpath.{json,txt}`, its
//! hierarchical time profile as `PROFILE_hotpath.{folded,svg,json}`. All
//! numbers are simulated time, so the whole comparison is run twice and
//! every artifact is asserted byte-identical before being written.
//!
//! ```text
//! cargo run --release --example bench_hotpath [out_dir]
//! ```

use std::path::PathBuf;

use shrinksvm::prelude::*;
use shrinksvm_core::dist::DotKind;
use shrinksvm_datagen::gaussian;
use shrinksvm_obs::json;

/// The optimized stack must beat the pre-optimization hot path by at
/// least this factor in simulated time.
const MIN_SPEEDUP: f64 = 1.5;

struct Config {
    name: &'static str,
    dots: DotKind,
    cache_bytes: usize,
    threads: usize,
}

const CONFIGS: [Config; 4] = [
    Config {
        name: "merge_nocache_t1",
        dots: DotKind::MergeJoin,
        cache_bytes: 0,
        threads: 1,
    },
    Config {
        name: "scatter_nocache_t1",
        dots: DotKind::Scatter,
        cache_bytes: 0,
        threads: 1,
    },
    Config {
        name: "scatter_cache_t1",
        dots: DotKind::Scatter,
        cache_bytes: 4 << 20,
        threads: 1,
    },
    Config {
        name: "scatter_cache_t4",
        dots: DotKind::Scatter,
        cache_bytes: 4 << 20,
        threads: 4,
    },
];

fn model_bytes(m: &SvmModel) -> Vec<u8> {
    let mut b = Vec::new();
    m.write_to(&mut b).expect("serializing to memory");
    b
}

struct Artifacts {
    bench: String,
    perf_json: String,
    perf_text: String,
    profile_folded: String,
    profile_svg: String,
    profile_json: String,
}

fn run_once() -> Artifacts {
    let ds = gaussian::two_blobs(400, 12, 3.0, 7);
    let params = SvmParams::new(4.0, KernelKind::rbf_from_sigma_sq(2.0))
        .with_epsilon(1e-3)
        .with_shrink(ShrinkPolicy::best());

    let mut reference: Option<Vec<u8>> = None;
    let mut makespans = Vec::new();
    let mut last = None;
    for cfg in &CONFIGS {
        // Trace every configuration: tracing is observation-only (it
        // cannot move simulated time — the A/B makespans stay honest),
        // and it attaches the PerfDoctor analysis to the run.
        let run = DistSolver::new(&ds, params.clone().with_cache_bytes(cfg.cache_bytes))
            .with_processes(4)
            .with_threads(cfg.threads)
            .with_dots(cfg.dots)
            .with_tracing()
            .train()
            .unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
        assert!(run.converged, "{} converged", cfg.name);
        let bytes = model_bytes(&run.model);
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(
                *r, bytes,
                "{}: hot-path layers must not change the model",
                cfg.name
            ),
        }
        makespans.push((cfg.name, run.makespan));
        last = Some(run);
    }

    let optimized = last.expect("at least one config ran");

    let baseline_makespan = makespans[0].1;
    let speedup = baseline_makespan / optimized.makespan;
    assert!(
        speedup >= MIN_SPEEDUP,
        "optimized hot path must be ≥{MIN_SPEEDUP}× faster than the \
         pre-optimization path, got {speedup:.2}× \
         ({baseline_makespan:.6}s -> {:.6}s)",
        optimized.makespan
    );

    let mut report = optimized.bench_report("hotpath");
    report.speedup_vs_original = None;
    for (name, makespan) in &makespans {
        report.extras.insert(format!("makespan_{name}"), *makespan);
    }
    report
        .extras
        .insert("speedup_vs_merge_nocache_t1".to_string(), speedup);
    // Collective rounds per iteration (allreduces + bcasts + barriers on
    // rank 0): the budget the message fusion and β piggyback exist to
    // hold down.
    let s0 = &optimized.rank_stats[0];
    report.extras.insert(
        "collective_rounds_per_iter".to_string(),
        (s0.allreduces + s0.bcasts + s0.barriers) as f64 / optimized.iterations as f64,
    );
    if let Some(hr) = optimized.metrics.gauge("kernel_cache_hit_rate_final") {
        report
            .extras
            .insert("kernel_cache_hit_rate_final".to_string(), hr);
    }
    report.extras.insert(
        "kernel_cache_hits".to_string(),
        optimized.metrics.counter("kernel_cache_hits") as f64,
    );
    report.extras.insert(
        "kernel_cache_misses".to_string(),
        optimized.metrics.counter("kernel_cache_misses") as f64,
    );
    let perf = optimized
        .perf
        .as_ref()
        .expect("traced runs attach a PerfDoctor");
    let profile = optimized
        .profile
        .as_ref()
        .expect("traced runs attach a profile");
    Artifacts {
        bench: report.to_json(),
        perf_json: perf.to_json(),
        perf_text: perf.render_text(),
        profile_folded: profile.to_folded(),
        profile_svg: profile.to_svg(),
        profile_json: profile.to_json(),
    }
}

fn main() {
    let out: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results".into())
        .into();

    let a = run_once();
    let b = run_once();
    assert_eq!(a.bench, b.bench, "bench report must be deterministic");
    assert_eq!(
        a.perf_json, b.perf_json,
        "PerfDoctor report must be deterministic"
    );
    assert_eq!(
        a.profile_folded, b.profile_folded,
        "folded profile must be deterministic"
    );
    assert_eq!(
        a.profile_svg, b.profile_svg,
        "flame SVG must be deterministic"
    );
    assert_eq!(
        a.profile_json, b.profile_json,
        "profile JSON must be deterministic"
    );
    json::check(&a.bench).expect("bench JSON well-formed");
    json::check(&a.perf_json).expect("perf JSON well-formed");
    json::check(&a.profile_json).expect("profile JSON well-formed");
    shrinksvm_obs::profile::xml_check(&a.profile_svg).expect("flame SVG well-formed XML");

    std::fs::create_dir_all(&out).expect("create out dir");
    std::fs::write(out.join("BENCH_hotpath.json"), &a.bench).expect("write bench report");
    std::fs::write(out.join("PERF_hotpath.json"), &a.perf_json).expect("write perf json");
    std::fs::write(out.join("PERF_hotpath.txt"), &a.perf_text).expect("write perf text");
    std::fs::write(out.join("PROFILE_hotpath.folded"), &a.profile_folded)
        .expect("write folded profile");
    std::fs::write(out.join("PROFILE_hotpath.svg"), &a.profile_svg).expect("write flame svg");
    std::fs::write(out.join("PROFILE_hotpath.json"), &a.profile_json).expect("write profile json");

    println!("{}", a.bench);
    println!("{}", a.perf_text);
    println!(
        "wrote {}, PERF_hotpath.{{json,txt}} and PROFILE_hotpath.{{folded,svg,json}}",
        out.join("BENCH_hotpath.json").display()
    );
    println!("determinism: two same-seed runs produced byte-identical reports ✓");
}
