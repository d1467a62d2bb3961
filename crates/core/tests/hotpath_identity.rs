//! Hot-path identity suite: the rebuilt gradient-update path — kernel
//! columns from a column-major product, the shrink-aware kernel row cache
//! and modeled intra-rank lanes —
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
//!
//! Prediction runs the same product over a column-major copy of the support
//! vectors, so `SvmModel::decision` is pinned bit for bit to the merge-join
//! sum it replaced.

use shrinksvm_core::dist::{CheckpointPolicy, DistRunResult, DistSolver, DotKind};
use shrinksvm_core::kernel::KernelKind;
use shrinksvm_core::model::SvmModel;
use shrinksvm_core::params::SvmParams;
use shrinksvm_core::shrink::ShrinkPolicy;
use shrinksvm_datagen::{gaussian, PaperData, PaperDataset};
use shrinksvm_mpisim::{FaultPlan, TraceEvent};
use shrinksvm_sparse::{CsrMatrix, Dataset, RowView};

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
        assert_eq!(recovered.recovery.recoveries, 1, "seed {seed}");
        assert_eq!(
            model_bytes(&recovered.model),
            model_bytes(&clean.model),
            "seed {seed}: recovery must reproduce the fault-free model bit-for-bit"
        );
    }
}

/// The merge-join decision `Σ_j coef_j · K(sv_j, x) − β` that
/// `SvmModel::decision` must reproduce bit for bit.
fn merge_join_decision(m: &SvmModel, x: RowView<'_>) -> f64 {
    let (sv, kind) = (m.support_vectors(), m.kernel());
    let x_sq = x.squared_norm();
    let mut acc = 0.0;
    for (j, &cj) in m.coefficients().iter().enumerate() {
        let sv_j = sv.row(j);
        acc += cj * kind.eval(sv_j, x, sv_j.squared_norm(), x_sq);
    }
    acc - m.bias()
}

/// The four kernel families, RBF at the analog's Table-III width.
fn kernel_kinds(data: &PaperData) -> [KernelKind; 4] {
    [
        KernelKind::rbf_from_sigma_sq(data.sigma_sq),
        KernelKind::Linear,
        KernelKind::Poly {
            gamma: 0.5,
            coef0: 1.0,
            degree: 3,
        },
        KernelKind::Sigmoid {
            gamma: 0.05,
            coef0: -0.3,
        },
    ]
}

/// A model over `x` with every third row as an SV and mixed-sign
/// coefficients.
fn every_third_sv_model(kind: KernelKind, x: &CsrMatrix) -> SvmModel {
    let idx: Vec<usize> = (0..x.nrows()).step_by(3).collect();
    let coef = (0..idx.len())
        .map(|k| if k % 2 == 0 { 1.0 } else { -1.0 } * (0.5 + (k % 7) as f64 * 0.37))
        .collect();
    let sv = x.select_rows(&idx).expect("rows in range");
    SvmModel::new(kind, sv, coef, 0.125).expect("one coefficient per SV")
}

type OwnedRow = (Vec<u32>, Vec<f64>);

/// Every train and test row of the analog, then a row reaching past the
/// model's columns, one reaching column 3,999,999,999 and an empty row.
fn prediction_rows(data: &PaperData) -> Vec<OwnedRow> {
    let mut rows: Vec<OwnedRow> = Vec::new();
    for ds in std::iter::once(&data.train).chain(&data.test) {
        for i in 0..ds.len() {
            let r = ds.x.row(i);
            rows.push((r.indices.to_vec(), r.values.to_vec()));
        }
    }
    let ncols = data.train.x.ncols() as u32;
    rows.push((
        vec![0, 2, ncols + 1, ncols + 4096],
        vec![0.75, -1.5, 2.0, 3.25],
    ));
    rows.push((vec![1, 3, 3_999_999_999], vec![-0.5, 1.25, 4.0]));
    rows.push((Vec::new(), Vec::new()));
    rows
}

fn view(row: &OwnedRow) -> RowView<'_> {
    RowView {
        indices: &row.0,
        values: &row.1,
    }
}

/// The URL and a9a analogs at `generate(0.02)`: each kernel kind's model
/// (and its text copy), with the rows it predicts.
fn prediction_cases() -> Vec<(String, SvmModel, Vec<OwnedRow>)> {
    let mut cases = Vec::new();
    for which in [PaperDataset::Url, PaperDataset::Adult9] {
        let data = which.generate(0.02);
        let rows = prediction_rows(&data);
        for kind in kernel_kinds(&data) {
            let m = every_third_sv_model(kind, &data.train.x);
            let copy = SvmModel::read_from(&model_bytes(&m)[..]).expect("model text parses");
            cases.push((format!("{} {}", data.name, kind.name()), m, rows.clone()));
            cases.push((
                format!("{} {} (read_from)", data.name, kind.name()),
                copy,
                rows.clone(),
            ));
        }
    }
    cases
}

#[test]
fn prediction_gathers_bitwise_like_the_merge_join() {
    let cases = prediction_cases();
    // four threads at once, each starting from a different case, so every
    // thread predicts with models of both widths
    std::thread::scope(|s| {
        for t in 0..4 {
            let cases = &cases;
            s.spawn(move || {
                for k in 0..cases.len() {
                    let (tag, m, rows) = &cases[(k + 3 * t) % cases.len()];
                    for (i, row) in rows.iter().enumerate() {
                        let x = view(row);
                        assert_eq!(
                            m.decision(x).to_bits(),
                            merge_join_decision(m, x).to_bits(),
                            "{tag}: row {i} on thread {t}"
                        );
                    }
                }
            });
        }
    });
    // the text copy predicts exactly what the model does
    for pair in cases.chunks(2) {
        let [(tag, m, rows), (_, copy, _)] = pair else {
            unreachable!("cases come in model/copy pairs")
        };
        for row in rows {
            let x = view(row);
            assert_eq!(m.decision(x).to_bits(), copy.decision(x).to_bits(), "{tag}");
        }
    }
}

#[test]
fn one_thread_alternating_narrow_and_wide_models_stays_exact() {
    // One fresh thread alternates the narrow a9a model (123 columns) and
    // the wide URL model (50,000) on rows of both widths: each decision
    // depends on its model and row alone, whichever came before it.
    std::thread::spawn(|| {
        let narrow_data = PaperDataset::Adult9.generate(0.02);
        let wide_data = PaperDataset::Url.generate(0.02);
        let narrow = every_third_sv_model(KernelKind::Linear, &narrow_data.train.x);
        let wide = every_third_sv_model(
            KernelKind::rbf_from_sigma_sq(wide_data.sigma_sq),
            &wide_data.train.x,
        );
        let (narrow_rows, wide_rows) = (prediction_rows(&narrow_data), prediction_rows(&wide_data));
        for (i, (a, b)) in narrow_rows.iter().zip(wide_rows.iter().rev()).enumerate() {
            for (m, row) in [(&narrow, a), (&wide, b), (&narrow, b), (&wide, a)] {
                let x = view(row);
                assert_eq!(
                    m.decision(x).to_bits(),
                    merge_join_decision(m, x).to_bits(),
                    "step {i}"
                );
            }
        }
    })
    .join()
    .expect("the alternating thread passes");
}
