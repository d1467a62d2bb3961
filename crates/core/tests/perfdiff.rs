//! Differential perf attribution, end-to-end through the real solver.
//!
//! The same seeded problem is trained twice, both traced, once on the
//! FDR InfiniBand cost model and once on 10G Ethernet. The network is
//! the only thing that changes, so `PerfDiff` must explain the slowdown
//! the way it would be argued by hand: identical iterations and compute,
//! strictly more transfer time, and a strictly longer makespan.

use shrinksvm_core::dist::{DistRunResult, DistSolver, DotKind};
use shrinksvm_core::kernel::KernelKind;
use shrinksvm_core::params::SvmParams;
use shrinksvm_core::shrink::ShrinkPolicy;
use shrinksvm_datagen::gaussian;
use shrinksvm_mpisim::CostParams;
use shrinksvm_obs::json::{self, parse};
use shrinksvm_obs::perfdiff::PerfDiff;

/// The optimized hot-path stack on the smoke problem, on `cost`.
fn traced_run(cost: CostParams) -> DistRunResult {
    let ds = gaussian::two_blobs(240, 4, 3.0, 42);
    let params = SvmParams::new(2.0, KernelKind::rbf_from_sigma_sq(1.5))
        .with_epsilon(1e-3)
        .with_shrink(ShrinkPolicy::best())
        .with_cache_bytes(4 << 20);
    DistSolver::new(&ds, params)
        .with_processes(4)
        .with_threads(4)
        .with_dots(DotKind::Scatter)
        .with_cost(cost)
        .with_tracing()
        .train()
        .expect("traced run")
}

fn diff_between(fast: &DistRunResult, slow: &DistRunResult) -> PerfDiff {
    let a = parse(&fast.perf.as_ref().expect("perf a").to_json()).expect("parse a");
    let b = parse(&slow.perf.as_ref().expect("perf b").to_json()).expect("parse b");
    PerfDiff::between(&a, &b, "fdr", "ethernet_10g").expect("diff")
}

fn fdr_vs_10g() -> PerfDiff {
    diff_between(
        &traced_run(CostParams::fdr()),
        &traced_run(CostParams::ethernet_10g()),
    )
}

#[test]
fn perf_diff_explains_a_slower_network_mechanically() {
    let fdr = traced_run(CostParams::fdr());
    let eth = traced_run(CostParams::ethernet_10g());
    // The network moves simulated time only, never the trajectory.
    assert_eq!(fdr.iterations, eth.iterations);
    assert!(
        eth.makespan > fdr.makespan,
        "{} vs {}",
        eth.makespan,
        fdr.makespan
    );

    let diff = diff_between(&fdr, &eth);
    let bucket = |name: &str| {
        diff.buckets
            .iter()
            .find(|(k, _, _)| *k == name)
            .map(|&(_, a, b)| (a, b))
            .unwrap_or_else(|| panic!("bucket {name} missing"))
    };
    // Same sweeps, same dots: compute does not see the network.
    let (ca, cb) = bucket("compute");
    assert!(
        (ca - cb).abs() <= 1e-9 * ca.max(1e-9),
        "compute {ca} vs {cb}"
    );
    // Higher latency and lower bandwidth land in transfer.
    let (ta, tb) = bucket("transfer");
    assert!(tb > ta, "transfer must grow: {ta} -> {tb}");

    let text = diff.render_text();
    assert!(
        text.contains("== perf-diff: fdr -> ethernet_10g =="),
        "{text}"
    );
    // `-- --nocapture` shows the report the README walks through.
    println!("{text}");
}

#[test]
fn perf_diff_json_is_byte_identical_across_same_seed_generations() {
    let (d1, d2) = (fdr_vs_10g(), fdr_vs_10g());
    let (j1, j2) = (d1.to_json(), d2.to_json());
    assert_eq!(j1, j2, "same-seed perf-diff JSON must be byte-identical");
    json::check(&j1).expect("diff JSON well-formed");
    assert_eq!(d1.render_text(), d2.render_text());
}
