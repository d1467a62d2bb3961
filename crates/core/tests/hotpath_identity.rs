//! Hot-path identity suite: the rebuilt gradient-update path — dense-scratch
//! dots, the shrink-aware kernel row cache and modeled intra-rank lanes —
//! is a pure performance layer. At a fixed process count the solver
//! trajectory is a function of the problem alone, so every combination of
//! {lane count} × {cache on/off} × {dot implementation} must produce a
//! **byte-identical** model and an identical iteration count; only the
//! simulated clock may move.
//!
//! The suite also drives the cache through the two events that rebuild the
//! active span wholesale — gradient reconstruction and a checkpoint restore
//! under an injected rank crash — since a stale positional row surviving
//! either would corrupt gradients silently.

use shrinksvm_core::dist::{CheckpointPolicy, DistRunResult, DistSolver, DotKind};
use shrinksvm_core::kernel::KernelKind;
use shrinksvm_core::model::SvmModel;
use shrinksvm_core::params::SvmParams;
use shrinksvm_core::shrink::ShrinkPolicy;
use shrinksvm_datagen::gaussian;
use shrinksvm_mpisim::{FaultPlan, TraceEvent};
use shrinksvm_sparse::Dataset;

const THREADS: [usize; 3] = [1, 2, 4];
const DOTS: [DotKind; 2] = [DotKind::MergeJoin, DotKind::Scatter];
const CACHE: [usize; 2] = [0, 1 << 20];
const SEEDS: [u64; 3] = [11, 12, 13];

fn blobs(seed: u64) -> Dataset {
    gaussian::two_blobs(180, 4, 4.0, seed)
}

fn params(cache_bytes: usize) -> SvmParams {
    SvmParams::new(2.0, KernelKind::rbf_from_sigma_sq(1.0))
        .with_epsilon(1e-3)
        .with_shrink(ShrinkPolicy::best())
        .with_cache_bytes(cache_bytes)
}

fn run(ds: &Dataset, p: usize, threads: usize, dots: DotKind, cache_bytes: usize) -> DistRunResult {
    DistSolver::new(ds, params(cache_bytes))
        .with_processes(p)
        .with_threads(threads)
        .with_dots(dots)
        .train()
        .expect("training succeeds")
}

fn model_bytes(m: &SvmModel) -> Vec<u8> {
    let mut b = Vec::new();
    m.write_to(&mut b).expect("serializing to memory");
    b
}

#[test]
fn every_hotpath_config_is_byte_identical() {
    for seed in SEEDS {
        let ds = blobs(seed);
        // Reference: the pre-optimization configuration (sequential
        // merge-join, no cache, one worker).
        let reference = run(&ds, 2, 1, DotKind::MergeJoin, 0);
        let ref_bytes = model_bytes(&reference.model);
        for threads in THREADS {
            for dots in DOTS {
                for cache_bytes in CACHE {
                    let r = run(&ds, 2, threads, dots, cache_bytes);
                    let tag =
                        format!("seed={seed} threads={threads} dots={dots:?} cache={cache_bytes}");
                    assert_eq!(reference.iterations, r.iterations, "{tag}: iterations");
                    assert_eq!(ref_bytes, model_bytes(&r.model), "{tag}: model bytes");
                    assert!(r.converged, "{tag}: converged");
                }
            }
        }
    }
}

#[test]
fn hotpath_identity_holds_on_a_single_rank_too() {
    let ds = blobs(17);
    let reference = run(&ds, 1, 1, DotKind::MergeJoin, 0);
    let fast = run(&ds, 1, 4, DotKind::Scatter, 1 << 20);
    assert_eq!(reference.iterations, fast.iterations);
    assert_eq!(model_bytes(&reference.model), model_bytes(&fast.model));
}

#[test]
fn optimized_config_cuts_simulated_time() {
    // The point of the layer: same answer, smaller simulated makespan. The
    // cache converts repeat pivot evaluations into lookups and the lanes
    // divide the sweep's critical path.
    let ds = blobs(19);
    let slow = run(&ds, 2, 1, DotKind::MergeJoin, 0);
    let fast = run(&ds, 2, 4, DotKind::Scatter, 1 << 20);
    assert_eq!(model_bytes(&slow.model), model_bytes(&fast.model));
    assert!(
        fast.makespan < slow.makespan,
        "optimized path must be faster in simulated time: {} vs {}",
        fast.makespan,
        slow.makespan
    );
}

#[test]
fn cache_metrics_and_sweep_span_are_recorded() {
    let ds = blobs(23);
    let r = DistSolver::new(&ds, params(1 << 20))
        .with_processes(2)
        .with_threads(2)
        .with_tracing()
        .train()
        .unwrap();
    // epoch series sampled on rank 0 (iteration 0 is an epoch boundary)
    assert!(
        !r.metrics.series("kernel_cache_hit_rate").is_empty(),
        "hit-rate epoch series present"
    );
    assert!(r.metrics.counter("kernel_cache_insertions") > 0);
    assert!(
        r.metrics.counter("kernel_cache_hits") > 0,
        "pivot reselection must produce cache hits"
    );
    let json = r.timeline.to_chrome_json();
    assert!(json.contains("\"fused_sweep\""), "fused_sweep span traced");
    // uncached runs record neither the series nor the counters
    let cold = DistSolver::new(&ds, params(0))
        .with_processes(2)
        .train()
        .unwrap();
    assert!(cold.metrics.series("kernel_cache_hit_rate").is_empty());
    assert_eq!(cold.metrics.counter("kernel_cache_hits"), 0);
}

#[test]
fn fused_candidate_round_keeps_the_collective_budget() {
    // The sweep folds next iteration's MinLoc/MaxLoc candidates into the
    // γ-update and ships them as ONE fused allreduce per iteration, which
    // also carries the winners' samples; before fusion the candidate
    // exchange cost two rounds. The trace makes that budget checkable: rank 0's
    // allreduce spans — the fused round plus the occasional survivors
    // count — stay well under the pre-fusion 2× per iteration.
    let ds = blobs(29);
    let r = DistSolver::new(&ds, params(1 << 20))
        .with_processes(3)
        .with_threads(2)
        .with_dots(DotKind::Scatter)
        .with_tracing()
        .train()
        .expect("training succeeds");
    assert!(r.converged);
    let iters = r.iterations as usize;
    let allreduces = r
        .timeline
        .events()
        .iter()
        .filter(|e| {
            matches!(e, TraceEvent::Span { track, name, cat, .. }
                if *track == 0 && cat == "coll" && name == "allreduce")
        })
        .count();
    assert!(
        allreduces >= iters,
        "one fused candidate round per iteration (got {allreduces} for {iters} iters)"
    );
    assert!(
        allreduces < 3 * iters / 2,
        "{allreduces} allreduce spans for {iters} iters"
    );
}

#[test]
fn cache_survives_crash_recovery_with_the_exact_model() {
    // Chaos scenario: a rank crash mid-run forces a checkpoint restore,
    // which replaces the active flags wholesale — cached rows from before
    // the crash must be dropped, not reused positionally. Recovery must
    // land on the fault-free model bit-for-bit, with the full optimized
    // path (threads + cache + scatter) enabled.
    for seed in [31u64, 32] {
        let ds = blobs(seed);
        let clean = run(&ds, 3, 2, DotKind::Scatter, 1 << 20);
        // Also pin the clean optimized run to the unoptimized reference
        // before injecting any faults.
        let reference = run(&ds, 3, 1, DotKind::MergeJoin, 0);
        assert_eq!(model_bytes(&clean.model), model_bytes(&reference.model));
        let fp = FaultPlan::new(seed).crash_rank(1, 0.5 * clean.makespan);
        let recovered = DistSolver::new(&ds, params(1 << 20))
            .with_processes(3)
            .with_threads(2)
            .with_dots(DotKind::Scatter)
            .with_faults(fp)
            .with_checkpointing(CheckpointPolicy::every(8))
            .train()
            .expect("crash must be recovered");
        assert!(recovered.converged, "seed {seed}");
        assert_eq!(recovered.recoveries, 1, "seed {seed}");
        assert_eq!(
            model_bytes(&recovered.model),
            model_bytes(&clean.model),
            "seed {seed}: recovery must reproduce the fault-free model bit-for-bit"
        );
    }
}
