//! Validation of the distributed solver against the sequential baseline
//! and of the paper's central claim: shrinking + gradient reconstruction
//! leaves the solution exact, for every heuristic and process count.

use shrinksvm_core::dist::{DistSolver, DotKind};
use shrinksvm_core::kernel::KernelKind;
use shrinksvm_core::metrics::accuracy;
use shrinksvm_core::model::SvmModel;
use shrinksvm_core::params::SvmParams;
use shrinksvm_core::perfmodel::ComputeCharge;
use shrinksvm_core::shrink::{Heuristic, ReconPolicy, ShrinkPolicy};
use shrinksvm_core::smo::state::{in_low_set, in_up_set};
use shrinksvm_core::smo::SmoSolver;
use shrinksvm_datagen::planted::{FeatureStyle, PlantedConfig};
use shrinksvm_datagen::{gaussian, PaperDataset};
use shrinksvm_mpisim::CostParams;
use shrinksvm_sparse::Dataset;

fn blobs(n: usize) -> Dataset {
    gaussian::two_blobs(n, 4, 4.0, 42)
}

fn params(c: f64, sigma_sq: f64) -> SvmParams {
    SvmParams::new(c, KernelKind::rbf_from_sigma_sq(sigma_sq)).with_epsilon(1e-3)
}

#[test]
fn original_p1_matches_sequential_solver_bitwise() {
    let ds = blobs(240);
    let p = params(4.0, 2.0);
    let seq = SmoSolver::new(&ds, p.clone()).train().unwrap();
    let dist = DistSolver::new(&ds, p).with_processes(1).train().unwrap();
    assert_eq!(seq.iterations, dist.iterations);
    assert_eq!(
        seq.model.bias(),
        dist.model.bias(),
        "bias must be bit-identical"
    );
    assert_eq!(seq.model.n_sv(), dist.model.n_sv());
    assert_eq!(seq.model.coefficients(), dist.model.coefficients());
}

#[test]
fn trajectory_is_bit_identical_across_process_counts() {
    let ds = blobs(200);
    let p = params(2.0, 1.0);
    let reference = DistSolver::new(&ds, p.clone())
        .with_processes(1)
        .train()
        .unwrap();
    for procs in [2usize, 3, 4, 7, 8] {
        let run = DistSolver::new(&ds, p.clone())
            .with_processes(procs)
            .train()
            .unwrap();
        assert_eq!(reference.iterations, run.iterations, "p={procs}");
        // α trajectory is bit-identical; the bias epilogue sums partial
        // per-rank contributions, so only its association differs.
        assert_eq!(
            reference.model.coefficients(),
            run.model.coefficients(),
            "p={procs}"
        );
        assert!(
            (reference.model.bias() - run.model.bias()).abs() < 1e-12,
            "p={procs}"
        );
        assert!(run.converged);
    }
}

#[test]
fn shrinking_with_reconstruction_matches_across_process_counts() {
    // Reconstruction sums ring blocks in rank order, so bit-exactness
    // across p is only guaranteed up to the first reconstruction; after it
    // every trajectory must still land on an equivalent 2ε-optimum.
    let ds = blobs(200);
    let p = params(2.0, 1.0).with_shrink(ShrinkPolicy::best());
    let reference = DistSolver::new(&ds, p.clone())
        .with_processes(1)
        .train()
        .unwrap();
    for procs in [2usize, 4, 5] {
        let run = DistSolver::new(&ds, p.clone())
            .with_processes(procs)
            .train()
            .unwrap();
        assert!(run.converged, "p={procs}");
        assert!(run.trace.final_gap <= 2e-3 + 1e-12, "p={procs}");
        assert!(
            (reference.model.bias() - run.model.bias()).abs() < 1e-3,
            "p={procs}: bias {} vs {}",
            reference.model.bias(),
            run.model.bias()
        );
        // identical predictions on the training set
        for i in 0..ds.len() {
            assert_eq!(
                reference.model.predict(ds.x.row(i)),
                run.model.predict(ds.x.row(i)),
                "p={procs} sample {i}"
            );
        }
    }
}

#[test]
fn all_table2_heuristics_keep_accuracy_intact() {
    // The paper's Table V claim: testing accuracy with shrinking matches
    // the exact solver's.
    let data = PaperDataset::W7a.generate(0.15);
    let (train, test) = (&data.train, data.test.as_ref().unwrap());
    let base = params(data.c, data.sigma_sq);
    let exact = SmoSolver::new(train, base.clone()).train().unwrap();
    let exact_acc = accuracy(&exact.model, test);
    assert!(exact_acc > 0.8, "baseline accuracy {exact_acc}");
    for policy in ShrinkPolicy::table2() {
        let run = DistSolver::new(train, base.clone().with_shrink(policy))
            .with_processes(3)
            .train()
            .unwrap();
        assert!(run.converged, "{} did not converge", policy.name());
        let acc = accuracy(&run.model, test);
        assert!(
            (acc - exact_acc).abs() < 0.01,
            "{}: accuracy {acc} vs exact {exact_acc}",
            policy.name()
        );
        // optimality gap honored
        assert!(run.trace.final_gap <= 2.0 * base.epsilon + 1e-12);
    }
}

#[test]
fn shrinking_reduces_gamma_update_work() {
    // A hard, noisy problem with a long optimization tail (HIGGS-like):
    // once the β bracket tightens, the bulk of the samples leave it and
    // the aggressive heuristics must eliminate a large share of the
    // γ-update work.
    let cfg = PlantedConfig {
        n: 400,
        dim: 28,
        nnz_per_row: 28,
        sv_fraction: 0.4,
        label_noise: 0.08,
        margin_scale: 1.0,
        style: FeatureStyle::Dense,
        target_norm: None,
        feature_skew: 0.0,
        seed: 8,
    };
    let ds = cfg.generate();
    let base = params(32.0, 64.0);
    let original = DistSolver::new(&ds, base.clone())
        .with_processes(2)
        .train()
        .unwrap();
    let shrunk = DistSolver::new(
        &ds,
        base.clone().with_shrink(ShrinkPolicy::new(
            Heuristic::NumSamples(0.05),
            ReconPolicy::Multi,
        )),
    )
    .with_processes(2)
    .train()
    .unwrap();
    assert!(original.converged && shrunk.converged);
    assert_eq!(original.trace.work_saved(), 0.0);
    assert!(
        shrunk.trace.work_saved() > 0.3,
        "expected large savings, got {}",
        shrunk.trace.work_saved()
    );
    // and the models agree
    assert!((original.model.bias() - shrunk.model.bias()).abs() < 1e-6);
}

#[test]
fn original_never_reconstructs_and_shrinkers_record_events() {
    let ds = blobs(150);
    let base = params(2.0, 1.0);
    let orig = DistSolver::new(&ds, base.clone())
        .with_processes(2)
        .train()
        .unwrap();
    assert!(orig.trace.recon_events.is_empty());
    assert_eq!(orig.recon_time, 0.0);

    let multi = DistSolver::new(
        &ds,
        base.with_shrink(ShrinkPolicy::new(Heuristic::Random(2), ReconPolicy::Multi)),
    )
    .with_processes(2)
    .train()
    .unwrap();
    assert!(
        !multi.trace.recon_events.is_empty(),
        "aggressive multi must reconstruct at least once"
    );
}

#[test]
fn simulated_time_improves_with_processes_on_compute_bound_problems() {
    let ds = gaussian::two_blobs(400, 16, 3.0, 9);
    let base = params(4.0, 4.0);
    let t = |p: usize| {
        DistSolver::new(&ds, base.clone())
            .with_processes(p)
            .with_cost(CostParams::fdr())
            .train()
            .unwrap()
            .makespan
    };
    let t1 = t(1);
    let t4 = t(4);
    assert!(
        t4 < t1 * 0.6,
        "4 ranks should cut simulated time substantially: {t1} -> {t4}"
    );
}

#[test]
fn late_threshold_degenerates_to_original() {
    // The paper's MNIST observation (§V-D4): when the initial threshold
    // exceeds the iteration count, Shrinking(Worst) ≡ Default.
    let ds = blobs(160);
    let base = params(2.0, 1.0);
    let orig = DistSolver::new(&ds, base.clone())
        .with_processes(2)
        .train()
        .unwrap();
    let worst = DistSolver::new(&ds, base.clone().with_shrink(ShrinkPolicy::worst()))
        .with_processes(2)
        .train()
        .unwrap();
    // 50% of 160 = 80-iteration threshold; if the problem converges sooner,
    // traces must match the Original exactly.
    if orig.iterations <= 80 {
        assert_eq!(orig.iterations, worst.iterations);
        assert_eq!(orig.trace.sum_active, worst.trace.sum_active);
        assert!(worst.trace.recon_events.is_empty());
    } else {
        // otherwise shrinking fired; it must still converge exactly
        assert!(worst.converged);
    }
}

#[test]
fn rank_stats_report_collective_traffic() {
    let ds = blobs(120);
    let run = DistSolver::new(&ds, params(2.0, 1.0))
        .with_processes(3)
        .train()
        .unwrap();
    assert_eq!(run.rank_stats.len(), 3);
    for s in &run.rank_stats {
        // one fused candidate round per iteration carries the pivot
        // samples, so no per-iteration broadcast remains
        assert!(s.allreduces >= run.iterations, "≥1 allreduce per iteration");
        assert!(
            s.bcasts < run.iterations,
            "{} bcasts over {} iterations",
            s.bcasts,
            run.iterations
        );
        assert!(s.compute_time > 0.0);
    }
}

#[test]
fn xor_needs_rbf_distributed_too() {
    let ds = gaussian::xor(200, 0.15, 3);
    let run = DistSolver::new(
        &ds,
        SvmParams::new(10.0, KernelKind::rbf_from_sigma_sq(0.5)).with_shrink(ShrinkPolicy::best()),
    )
    .with_processes(4)
    .train()
    .unwrap();
    let correct = (0..ds.len())
        .filter(|&i| run.model.predict(ds.x.row(i)) == ds.y[i])
        .count();
    assert!(correct as f64 / 200.0 > 0.97, "{correct}/200");
}

#[test]
fn permanent_elimination_converges_but_skips_the_exactness_proof() {
    // The CA-SVM-style design the paper argues against (§IV): with
    // ReconPolicy::Never the active-set optimum is returned as-is.
    let cfg = PlantedConfig {
        n: 400,
        dim: 28,
        nnz_per_row: 28,
        sv_fraction: 0.4,
        label_noise: 0.08,
        margin_scale: 1.0,
        style: FeatureStyle::Dense,
        target_norm: None,
        feature_skew: 0.0,
        seed: 9,
    };
    let ds = cfg.generate();
    let base = params(32.0, 64.0);
    let exact = DistSolver::new(&ds, base.clone().with_shrink(ShrinkPolicy::best()))
        .with_processes(2)
        .train()
        .unwrap();
    let perm = DistSolver::new(
        &ds,
        base.with_shrink(ShrinkPolicy::new(
            Heuristic::NumSamples(0.05),
            ReconPolicy::Never,
        )),
    )
    .with_processes(2)
    .train()
    .unwrap();
    assert!(perm.converged, "active-set convergence");
    assert!(perm.trace.recon_events.is_empty(), "never reconstructs");
    // permanent elimination does at most as much work as the exact run
    assert!(perm.trace.sum_active <= exact.trace.sum_active);
    // and it stopped EARLIER than the exact run (false eliminations were
    // never revisited), which is exactly why its result is unproven
    assert!(perm.iterations <= exact.iterations);
}

#[test]
fn subsequent_policy_changes_pass_cadence_not_the_answer() {
    let ds = blobs(200);
    let mk = |sub| {
        let mut policy = ShrinkPolicy::new(Heuristic::Random(2), ReconPolicy::Multi);
        policy.subsequent = sub;
        DistSolver::new(&ds, params(2.0, 1.0).with_shrink(policy))
            .with_processes(2)
            .train()
            .unwrap()
    };
    let adaptive = mk(shrinksvm_core::SubsequentPolicy::ActiveSetSize);
    let fixed = mk(shrinksvm_core::SubsequentPolicy::SameAsInitial);
    assert!(adaptive.converged && fixed.converged);
    // identical final classifier regardless of cadence
    assert!((adaptive.model.bias() - fixed.model.bias()).abs() < 1e-6);
    assert_eq!(adaptive.model.n_sv(), fixed.model.n_sv());
    // a fixed 2-iteration threshold shrinks far more often
    assert!(
        fixed.trace.active_curve.len() >= adaptive.trace.active_curve.len(),
        "fixed cadence must fire at least as many passes ({} vs {})",
        fixed.trace.active_curve.len(),
        adaptive.trace.active_curve.len()
    );
}

/// `β_low − β_up` of a trained model, recomputed without the solver's
/// state: `α` is the model's `coef·y` at its training indices (0
/// elsewhere), and every `γ_i = Σ_j α_j y_j K(x_j, x_i) − y_i` is summed
/// afresh, O(n²) kernel evaluations.
fn recomputed_gap(ds: &Dataset, params: &SvmParams, model: &SvmModel) -> f64 {
    let n = ds.len();
    let mut alpha = vec![0.0; n];
    for (&i, &coef) in model.training_indices().iter().zip(model.coefficients()) {
        alpha[i] = coef * ds.y[i];
    }
    let sq: Vec<f64> = (0..n).map(|i| ds.x.row(i).squared_norm()).collect();
    let svs: Vec<usize> = (0..n).filter(|&j| alpha[j] != 0.0).collect();
    let (mut beta_up, mut beta_low) = (f64::INFINITY, f64::NEG_INFINITY);
    for i in 0..n {
        let (xi, y) = (ds.x.row(i), ds.y[i]);
        let mut gamma = -y;
        for &j in &svs {
            gamma += alpha[j] * ds.y[j] * params.kernel.eval(ds.x.row(j), xi, sq[j], sq[i]);
        }
        let c = params.c_for(y);
        if in_up_set(y, alpha[i], c) {
            beta_up = beta_up.min(gamma);
        }
        if in_low_set(y, alpha[i], c) {
            beta_low = beta_low.max(gamma);
        }
    }
    beta_low - beta_up
}

#[test]
fn recomputed_kkt_gap_confirms_the_solver_at_every_layout() {
    // The 2ε claim without trusting the solver's gradients: rebuild γ from
    // the returned model and check it against ε and against the solver's
    // own final gap, over policies, ranks, lanes and dot kinds.
    let a9a = PaperDataset::Adult9.generate(0.064); // 160 sparse rows
    let problems = [
        ("blobs", blobs(120), params(2.0, 1.0)),
        ("a9a", a9a.train, params(a9a.c, a9a.sigma_sq)),
    ];
    for (name, ds, base) in &problems {
        for policy in [
            ShrinkPolicy::best(),
            ShrinkPolicy::worst(),
            ShrinkPolicy::none(),
        ] {
            let params = base.clone().with_shrink(policy);
            for p in [1usize, 2, 4, 5] {
                for lanes in [1usize, 3] {
                    for dots in [DotKind::MergeJoin, DotKind::Scatter] {
                        let tag = format!("{name} {} p={p} lanes={lanes} {dots:?}", policy.name());
                        let run = DistSolver::new(ds, params.clone())
                            .with_processes(p)
                            .with_threads(lanes)
                            .with_dots(dots)
                            .train()
                            .unwrap_or_else(|e| panic!("{tag}: {e}"));
                        assert!(run.converged, "{tag}");
                        assert_eq!(
                            run.model.training_indices().len(),
                            run.model.n_sv(),
                            "{tag}: one training index per SV"
                        );
                        let gap = recomputed_gap(ds, &params, &run.model);
                        assert!(gap <= 2.0 * params.epsilon, "{tag}: recomputed gap {gap:e}");
                        assert!(
                            (gap.max(0.0) - run.trace.final_gap).abs() <= 1e-9,
                            "{tag}: recomputed gap {gap:e} vs the solver's {:e}",
                            run.trace.final_gap
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn fig3_best_over_default_lands_in_the_paper_band() {
    // Fig 3: Multi5pc beats Original by 1.56–2.27× on HIGGS. The charges
    // are spelled out so a recalibration of the default cannot move the
    // ratio.
    const CHARGE: ComputeCharge = ComputeCharge {
        lambda_per_nnz: 2.0e-9,
        kernel_overhead: 25.0e-9,
        cache_lookup: 30.0e-9,
        fma_per_elem: 0.5e-9,
    };
    let data = PaperDataset::Higgs.generate(0.2);
    let (train, _) = data.train.split_at(900);
    let makespan = |policy: ShrinkPolicy| {
        let run = DistSolver::new(&train, params(data.c, data.sigma_sq).with_shrink(policy))
            .with_processes(4)
            .with_cost(CostParams::fdr())
            .with_charge(CHARGE)
            .train()
            .unwrap();
        assert!(run.converged, "{}", policy.name());
        run.makespan
    };
    let ratio = makespan(ShrinkPolicy::none()) / makespan(ShrinkPolicy::best());
    eprintln!("HIGGS p=4 Original/Multi5pc makespan: {ratio:.3}");
    assert!(
        (1.56..=2.27).contains(&ratio),
        "Best/Default {ratio:.3} outside the paper's [1.56, 2.27]"
    );
}
