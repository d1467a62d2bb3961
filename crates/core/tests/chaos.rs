//! Chaos suite: the distributed trainer under injected faults.
//!
//! Every scenario here runs a real training job through the fault fabric
//! and asserts one of two outcomes the robustness layer guarantees:
//! *survival* — the run converges to the fault-free model (transport
//! faults are absorbed in-flight; crashes are recovered from the last
//! consistent checkpoint) — or *fast failure with a named diagnosis*
//! (`CoreError::RankLost`), never a hang or an opaque panic.
//!
//! The trainer's trajectory is a pure function of its state, so a restore
//! of a consistent checkpoint continues the *exact* fault-free
//! trajectory: the tests assert bit-identical models, not just similar
//! accuracy.

use shrinksvm_core::dist::checkpoint::Checkpoint;
use shrinksvm_core::dist::{CheckpointPolicy, DistRunResult, DistSolver, RecoveryPolicy};
use shrinksvm_core::error::CoreError;
use shrinksvm_core::kernel::KernelKind;
use shrinksvm_core::model::SvmModel;
use shrinksvm_core::params::SvmParams;
use shrinksvm_core::shrink::{Heuristic, ReconPolicy, ShrinkPolicy};
use shrinksvm_datagen::gaussian;
use shrinksvm_mpisim::FaultPlan;
use shrinksvm_sparse::Dataset;

/// CI sweeps the whole suite over a seed grid by setting this offset; the
/// scenarios are written to hold for *any* seed (crash times are scheduled
/// against the per-seed fault-free makespan). A malformed value is a loud
/// panic, never a silent run of the wrong grid.
fn seed_offset() -> u64 {
    match shrinksvm_mpisim::env_u64("SHRINKSVM_CHAOS_SEED_OFFSET") {
        Ok(v) => v.unwrap_or(0),
        Err(e) => panic!("{e}"),
    }
}

fn blobs(seed: u64) -> Dataset {
    gaussian::two_blobs(160, 4, 4.0, seed + seed_offset())
}

fn plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed + seed_offset())
}

fn params() -> SvmParams {
    SvmParams::new(2.0, KernelKind::rbf_from_sigma_sq(1.0)).with_epsilon(1e-3)
}

fn model_bytes(m: &SvmModel) -> Vec<u8> {
    let mut b = Vec::new();
    m.write_to(&mut b).expect("serializing to memory");
    b
}

/// Fault-free reference run (also provides the makespan that crash rules
/// are scheduled against).
fn baseline(ds: &Dataset, p: usize) -> DistRunResult {
    DistSolver::new(ds, params())
        .with_processes(p)
        .train()
        .expect("fault-free run trains")
}

#[test]
fn crash_with_checkpointing_recovers_the_exact_model_across_seeds() {
    for seed in [1u64, 2, 3] {
        let ds = blobs(seed);
        let clean = baseline(&ds, 3);
        let fp = plan(seed).crash_rank(1, 0.5 * clean.makespan);
        let run = DistSolver::new(&ds, params())
            .with_processes(3)
            .with_faults(fp)
            .with_checkpointing(CheckpointPolicy::every(8))
            .train()
            .expect("crash must be recovered");
        assert!(run.converged, "seed {seed}: recovered run converges");
        assert_eq!(
            run.recovery.recoveries, 1,
            "seed {seed}: exactly one restart"
        );
        assert!(
            run.faults_survived >= 1,
            "seed {seed}: the crash counts as a survived fault"
        );
        assert!(
            run.recovery.cost() > 0.0,
            "seed {seed}: the aborted attempt has a modeled cost"
        );
        // checkpointing alone climbs the default ladder, backoff included
        assert_eq!(
            run.recovery.backoff,
            RecoveryPolicy::default().base_backoff,
            "seed {seed}: one crash at streak 0 charges the base backoff"
        );
        assert_eq!(
            run.recovery.cost(),
            run.recovery.waste + run.recovery.backoff,
            "seed {seed}: cost = waste + backoff"
        );
        assert_eq!(
            model_bytes(&run.model),
            model_bytes(&clean.model),
            "seed {seed}: recovery must reproduce the fault-free model bit-for-bit"
        );
    }
}

#[test]
fn crash_without_checkpointing_fails_fast_with_named_diagnosis() {
    let ds = blobs(4);
    let clean = baseline(&ds, 2);
    let fp = plan(4).crash_rank(1, 0.4 * clean.makespan);
    let err = DistSolver::new(&ds, params())
        .with_processes(2)
        .with_faults(fp)
        .train();
    match err {
        Err(CoreError::RankLost { rank, sim_time }) => {
            assert_eq!(rank, 1);
            assert!(sim_time >= 0.4 * clean.makespan);
        }
        other => panic!("expected RankLost, got {other:?}"),
    }
}

#[test]
fn exhausted_recovery_budget_fails_fast() {
    let ds = blobs(5);
    let clean = baseline(&ds, 2);
    // two armed crash rules, budget for one recovery
    let fp = plan(5)
        .crash_rank(1, 0.4 * clean.makespan)
        .crash_rank(0, 0.2 * clean.makespan);
    let err = DistSolver::new(&ds, params())
        .with_processes(2)
        .with_faults(fp)
        .with_checkpointing(CheckpointPolicy::every(8))
        .with_recovery(RecoveryPolicy::new().with_max_recoveries(1))
        .train();
    assert!(
        matches!(err, Err(CoreError::RankLost { .. })),
        "second crash must exhaust the budget: {err:?}"
    );
}

#[test]
fn repeated_crashes_are_survived_within_budget() {
    let ds = blobs(6);
    let clean = baseline(&ds, 3);
    let fp = plan(6)
        .crash_rank(1, 0.5 * clean.makespan)
        .crash_rank(2, 0.2 * clean.makespan);
    let run = DistSolver::new(&ds, params())
        .with_processes(3)
        .with_faults(fp)
        .with_checkpointing(CheckpointPolicy::every(8))
        .train()
        .expect("both crashes recovered");
    assert_eq!(run.recovery.recoveries, 2);
    assert!(run.converged);
    assert_eq!(
        model_bytes(&run.model),
        model_bytes(&clean.model),
        "two-crash recovery still lands on the fault-free model"
    );
}

#[test]
fn degraded_continuation_retrains_on_fewer_ranks() {
    let ds = blobs(7);
    let clean = baseline(&ds, 4);
    let fp = plan(7).crash_rank(3, 0.5 * clean.makespan);
    let run = DistSolver::new(&ds, params())
        .with_processes(4)
        .with_faults(fp)
        .with_checkpointing(CheckpointPolicy::every(8))
        .with_recovery(RecoveryPolicy::new().with_same_p_rungs(0))
        .train()
        .expect("degraded continuation trains");
    assert!(run.converged);
    assert_eq!(run.recovery.recoveries, 1);
    assert_eq!(
        run.rank_stats.len(),
        3,
        "the fleet continued with one rank fewer"
    );
    // Algorithm 2's iterate trajectory is bit-identical for every process
    // count, so re-partitioning the restored state across 3 ranks lands on
    // the same multipliers; only the bias may differ at rounding level
    // (its allreduce summation order depends on p).
    assert_eq!(run.model.n_sv(), clean.model.n_sv());
    assert_eq!(run.model.coefficients(), clean.model.coefficients());
    let bias_err = (run.model.bias() - clean.model.bias()).abs();
    assert!(bias_err < 1e-12, "bias drift {bias_err}");
}

#[test]
fn multi_crash_with_corrupt_checkpoints_climbs_the_ladder_to_the_exact_model() {
    // The tentpole scenario: three injected crashes (the second and third
    // fire during recovery attempts) plus corrupted checkpoint
    // generations. Every generation after the iteration-0 cut is corrupt,
    // so each restore must *detect* the corruption and fall back to the
    // oldest verified generation — and with three crashes against
    // `same_p_rungs = 3`, the ladder recovers at full rank count and the
    // trajectory (a pure function of the restored cut) lands on the
    // fault-free model bit-for-bit.
    for seed in [21u64, 22, 23] {
        let ds = blobs(seed);
        let clean = baseline(&ds, 3);
        let fp = plan(seed)
            .crash_rank(0, 0.12 * clean.makespan)
            .crash_rank(2, 0.3 * clean.makespan)
            .crash_rank(1, 0.55 * clean.makespan)
            .corrupt_checkpoints(1, u64::MAX);
        let run = DistSolver::new(&ds, params())
            .with_processes(3)
            .with_faults(fp)
            .with_checkpointing(CheckpointPolicy::every(8).with_keep_generations(4096))
            .with_tracing()
            .train()
            .expect("the ladder must survive all three crashes");
        assert!(run.converged, "seed {seed}");
        assert_eq!(
            run.recovery.recoveries, 3,
            "seed {seed}: one restart per crash"
        );
        assert_eq!(
            run.rank_stats.len(),
            3,
            "seed {seed}: three crashes stay under the same-p rungs — no degrade"
        );
        assert!(
            run.recovery.corrupt_generations >= 1,
            "seed {seed}: the corrupted generations must be detected, got {:?}",
            run.recovery
        );
        assert!(!run.recovery.degraded, "seed {seed}");
        assert!(run.recovery.waste > 0.0, "seed {seed}");
        assert_eq!(
            model_bytes(&run.model),
            model_bytes(&clean.model),
            "seed {seed}: full recovery must reproduce the fault-free model bit-for-bit"
        );
        // ladder rungs land on the timeline as recovery-category instants
        let json = run.timeline.to_chrome_json();
        assert!(json.contains("\"recovery_restart\""), "seed {seed}");
        assert!(json.contains("\"recovery_ckpt_corrupt\""), "seed {seed}");
        assert!(json.contains("\"recovery\""), "seed {seed}");
    }
}

#[test]
fn ladder_degrades_rank_by_rank_to_the_single_rank_floor() {
    // With a checkpoint cadence too sparse to ever bank progress beyond
    // the iteration-0 cut, every recovery is a no-progress recovery; at
    // `same_p_rungs = 1` the ladder sheds one rank per rung: 3 → 2 → 1.
    let ds = blobs(24);
    let clean = baseline(&ds, 3);
    let fp = plan(24)
        .crash_rank(1, 0.2 * clean.makespan)
        .crash_rank(2, 0.45 * clean.makespan)
        .crash_rank(0, 0.7 * clean.makespan);
    let run = DistSolver::new(&ds, params())
        .with_processes(3)
        .with_faults(fp)
        .with_checkpointing(CheckpointPolicy::every(1_000_000))
        .with_recovery(
            RecoveryPolicy::new()
                .with_same_p_rungs(1)
                .with_max_recoveries(8),
        )
        .train()
        .expect("degraded continuation reaches the floor and finishes");
    assert!(run.converged);
    assert_eq!(run.recovery.recoveries, 3);
    assert_eq!(
        run.rank_stats.len(),
        1,
        "single-rank fallback: the fleet degraded 3 -> 2 -> 1"
    );
    assert!(run.recovery.degraded);
    assert_eq!(run.recovery.final_ranks, 1);
    assert!(
        run.recovery.backoff > 0.0,
        "the ladder charges simulated backoff before retries"
    );
    // Algorithm 2's iterate trajectory is bit-identical at every process
    // count, so the degraded run lands on the same multipliers; only the
    // bias may differ at rounding level (allreduce order depends on p).
    assert_eq!(run.model.n_sv(), clean.model.n_sv());
    assert_eq!(run.model.coefficients(), clean.model.coefficients());
    let bias_err = (run.model.bias() - clean.model.bias()).abs();
    assert!(bias_err < 1e-12, "bias drift {bias_err}");
}

#[test]
fn recovery_cost_charges_only_unbanked_work() {
    // An attempt that banked checkpoints before dying is not a total
    // loss: the retry resumes past the restored cut, so only the clock
    // *beyond* the cut counts as waste — strictly less than the crash
    // time whenever a checkpoint promoted before the crash.
    let ds = blobs(25);
    let clean = baseline(&ds, 3);
    let crash_t = 0.5 * clean.makespan;
    let fp = plan(25).crash_rank(1, crash_t);
    let run = DistSolver::new(&ds, params())
        .with_processes(3)
        .with_faults(fp)
        .with_checkpointing(CheckpointPolicy::every(8))
        .train()
        .expect("crash recovered");
    assert_eq!(run.recovery.recoveries, 1);
    assert!(run.recovery.waste > 0.0);
    assert!(
        run.recovery.waste < crash_t,
        "banked checkpoint work must not be charged: waste {} vs crash at {crash_t}",
        run.recovery.waste
    );
    assert_eq!(
        model_bytes(&run.model),
        model_bytes(&clean.model),
        "accounting change must not touch the trajectory"
    );
}

#[test]
fn transport_faults_leave_the_model_intact_and_cost_simulated_time() {
    let ds = blobs(8);
    let clean = baseline(&ds, 3);
    let fp = plan(8)
        .drop_messages(None, None, 0.05, 0.0, f64::INFINITY, 40)
        .corrupt_messages(None, None, 0.05, 0.0, f64::INFINITY, 40)
        .delay_messages(None, None, 5e-4, 0.05, 0.0, f64::INFINITY, 40)
        .with_max_retries(8);
    let run = DistSolver::new(&ds, params())
        .with_processes(3)
        .with_faults(fp)
        .train()
        .expect("transport faults are absorbed in-flight");
    assert_eq!(run.recovery.recoveries, 0, "no crash, no restart");
    assert!(
        run.faults_survived > 0,
        "the plan must actually have injected faults"
    );
    assert!(
        run.makespan > clean.makespan,
        "retransmission and delay must cost simulated time \
         ({} vs clean {})",
        run.makespan,
        clean.makespan
    );
    assert_eq!(
        model_bytes(&run.model),
        model_bytes(&clean.model),
        "transport faults must not perturb the trajectory"
    );
}

#[test]
fn chaos_runs_are_deterministic_for_identical_seeds() {
    let ds = blobs(9);
    let clean = baseline(&ds, 3);
    let make_plan = || {
        plan(9)
            .drop_messages(None, None, 0.05, 0.0, f64::INFINITY, 20)
            .crash_rank(1, 0.5 * clean.makespan)
            .with_max_retries(8)
    };
    let run = |fp: FaultPlan| {
        DistSolver::new(&ds, params())
            .with_processes(3)
            .with_faults(fp)
            .with_checkpointing(CheckpointPolicy::every(8))
            .with_validation()
            .train()
            .expect("chaos run survives")
    };
    let a = run(make_plan());
    let b = run(make_plan());
    assert_eq!(model_bytes(&a.model), model_bytes(&b.model));
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(a.recovery.cost().to_bits(), b.recovery.cost().to_bits());
    assert_eq!(a.faults_survived, b.faults_survived);
    assert_eq!(
        a.report.to_string(),
        b.report.to_string(),
        "identical seeds must give byte-identical reports"
    );
}

#[test]
fn shrinking_policies_survive_crash_recovery() {
    // the stage machine must resume Algorithm 4/5 mid-flight, not just
    // the no-shrink Algorithm 2
    let ds = blobs(10);
    for policy in [
        ShrinkPolicy::best(),
        ShrinkPolicy::new(Heuristic::NumSamples(0.05), ReconPolicy::Single),
    ] {
        let p = params().with_shrink(policy);
        let clean = DistSolver::new(&ds, p.clone())
            .with_processes(3)
            .train()
            .expect("fault-free run trains");
        let fp = plan(10).crash_rank(1, 0.6 * clean.makespan);
        let run = DistSolver::new(&ds, p)
            .with_processes(3)
            .with_faults(fp)
            .with_checkpointing(CheckpointPolicy::every(8))
            .train()
            .expect("crash under shrinking recovered");
        assert!(run.converged);
        assert_eq!(run.recovery.recoveries, 1);
        assert_eq!(
            run.model.n_sv(),
            clean.model.n_sv(),
            "recovered run finds the same support-vector set"
        );
    }
}

#[test]
fn checkpoints_mirror_to_disk_and_reload() {
    let dir = std::env::temp_dir().join("shrinksvm-chaos-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trainer.ckpt");
    let ds = blobs(11);
    let clean = baseline(&ds, 2);
    let fp = plan(11).crash_rank(1, 0.5 * clean.makespan);
    let run = DistSolver::new(&ds, params())
        .with_processes(2)
        .with_faults(fp)
        .with_checkpointing(CheckpointPolicy::every(8).with_disk(&path))
        .train()
        .expect("crash recovered");
    assert!(run.converged);
    let ck = Checkpoint::read_from(std::fs::File::open(&path).expect("checkpoint file exists"))
        .expect("on-disk checkpoint parses");
    assert_eq!(ck.n, ds.len());
    assert_eq!(ck.ranks.len(), 2);
    std::fs::remove_file(&path).ok();
}
