//! The deterministic chaos-soak harness: `cargo xtask soak`.
//!
//! A soak run sweeps a seed grid against a set of named fault-plan
//! templates. Each (seed, plan) cell trains the distributed solver three
//! times on the same dataset: one fault-free baseline, then the faulted
//! run twice. The cell passes only when the faulted run is
//! byte-deterministic across the two executions *and* honors the
//! survival contract — a bit-identical model on full recovery, identical
//! multipliers (bias at rounding level) on a degraded one. There is no
//! tolerance knob: the simulator is byte-deterministic per seed, so any
//! drift is a bug.
//!
//! When a cell fails, its fault plan is delta-debugged down to a
//! 1-minimal rule set that still reproduces the same failure class, so a
//! soak failure arrives pre-shrunk. Every run also executes a planted
//! shrinker self-test — a deliberately fatal plan padded with chaff
//! rules — and asserts the minimization actually bites.
//!
//! The report is `SOAK_<name>.json` (schema `shrinksvm-soak/v1`),
//! byte-deterministic for a given (name, seed grid, plan set): no
//! timestamps, no host state, floats via the observability JSON writer.

use std::fmt::Write as _;
use std::sync::Arc;

use shrinksvm_core::dist::{flight_capacity, CheckpointPolicy, DistRunResult, DistSolver};
use shrinksvm_core::error::CoreError;
use shrinksvm_core::kernel::KernelKind;
use shrinksvm_core::model::SvmModel;
use shrinksvm_core::params::SvmParams;
use shrinksvm_datagen::gaussian;
use shrinksvm_mpisim::FaultPlan;
use shrinksvm_obs::flight::FlightRecorder;
use shrinksvm_obs::json;
use shrinksvm_obs::monitor;
use shrinksvm_sparse::Dataset;

/// Schema tag stamped into every soak report.
pub const SCHEMA: &str = "shrinksvm-soak/v1";

/// The built-in fault-plan templates, in report order.
pub const PLAN_TEMPLATES: &[&str] = &["crash", "corrupt", "ladder"];

/// One soak invocation: which cells to run and whether failures shrink.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Report name: the output file is `SOAK_<name>.json`.
    pub name: String,
    /// Seed grid; `SHRINKSVM_CHAOS_SEED_OFFSET` shifts the whole grid.
    pub seeds: Vec<u64>,
    /// Plan template names (subset of [`PLAN_TEMPLATES`]).
    pub plans: Vec<String>,
    /// Delta-debug failing plans down to 1-minimal rule sets.
    pub shrink: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            name: "local".to_string(),
            seeds: vec![1, 2, 3],
            plans: PLAN_TEMPLATES.iter().map(|s| (*s).to_string()).collect(),
            shrink: true,
        }
    }
}

/// A failing plan after delta-debugging.
#[derive(Clone, Debug)]
pub struct ShrunkPlan {
    /// Rule count of the plan that first reproduced the failure.
    pub rules_before: usize,
    /// Rule count of the 1-minimal plan.
    pub rules_after: usize,
    /// The minimal plan, in `shrinksvm-faultplan v1` text form.
    pub plan_text: String,
}

/// One (seed, plan) cell's verdict.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Effective seed (grid seed + environment offset).
    pub seed: u64,
    /// Template name.
    pub plan: String,
    /// `None` when the cell passed; the failure class otherwise.
    pub failure: Option<String>,
    /// Restarts the ladder performed.
    pub recoveries: u32,
    /// Checksum-failed checkpoint generations detected on restore.
    pub corrupt_generations: u64,
    /// Whether the run shed ranks.
    pub degraded: bool,
    /// Rank count of the final attempt.
    pub final_ranks: usize,
    /// Simulated makespan of the faulted run.
    pub makespan: f64,
    /// Modeled recovery cost (waste + backoff).
    pub recovery_cost: f64,
    /// Present only for a failing cell with shrinking enabled.
    pub shrunk: Option<ShrunkPlan>,
    /// Flight-recorder dump (`shrinksvm-flight/v1` JSON) captured by
    /// re-running a failing cell once with the black box attached;
    /// `None` for passing cells. Written to disk as a separate
    /// `FLIGHT_*.json` artifact, not embedded in the soak report.
    pub flight_json: Option<String>,
}

/// The planted shrinker self-test's verdict.
#[derive(Clone, Debug)]
pub struct SelftestOutcome {
    /// Seed the planted scenario ran under.
    pub seed: u64,
    /// Failure class of the planted plan.
    pub class: String,
    /// Rule count before / after minimization.
    pub rules_before: usize,
    /// Rule count of the minimal plan (the acceptance bar is <= 2).
    pub rules_after: usize,
    /// The minimal plan, in text form.
    pub plan_text: String,
}

/// Everything one soak run produces.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Per-cell verdicts, seed-major in grid order.
    pub cases: Vec<CellOutcome>,
    /// The planted shrinker self-test.
    pub selftest: SelftestOutcome,
    /// Number of failing cells (self-test failures are an `Err` instead).
    pub failures: usize,
    /// The rendered `shrinksvm-soak/v1` report.
    pub json: String,
}

/// Injected crashes unwind rank threads with a `CrashNotice` payload the
/// driver catches and recovers from, and the dead rank's peers then
/// unwind when they receive from it ("can never complete"); without this
/// filter the default panic hook would spam the soak output with a
/// backtrace for every *expected* crash. Any other panic — liveness timeouts,
/// retry-budget exhaustion, real bugs — still reaches the previous hook
/// untouched.
fn quiet_expected_crashes() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            let expected = payload
                .downcast_ref::<shrinksvm_mpisim::CrashNotice>()
                .is_some()
                || msg.is_some_and(|m| m.contains("can never complete"));
            if !expected {
                prev(info);
            }
        }));
    });
}

fn params() -> SvmParams {
    SvmParams::new(2.0, KernelKind::rbf_from_sigma_sq(1.0)).with_epsilon(1e-3)
}

fn blobs(seed: u64) -> Dataset {
    gaussian::two_blobs(160, 4, 4.0, seed)
}

fn model_bytes(m: &SvmModel) -> Vec<u8> {
    let mut b = Vec::new();
    m.write_to(&mut b).expect("serializing to memory");
    b
}

/// Leading variant name of a `CoreError`, e.g. `RankLost`.
fn error_class(e: &CoreError) -> String {
    let d = format!("{e:?}");
    d.split(|c: char| !c.is_alphanumeric() && c != '_')
        .next()
        .unwrap_or("Unknown")
        .to_string()
}

/// One template instantiated against a concrete baseline: how to build
/// the fault plan and how to run the solver under it.
struct Scenario<'a> {
    ds: &'a Dataset,
    clean: &'a DistRunResult,
    ckpt: CheckpointPolicy,
    /// The template requires at least one detected corrupt generation.
    expect_corruption: bool,
}

impl Scenario<'_> {
    fn run(&self, fp: FaultPlan) -> Result<DistRunResult, CoreError> {
        self.run_flight(fp, None)
    }

    fn run_flight(
        &self,
        fp: FaultPlan,
        flight: Option<Arc<FlightRecorder>>,
    ) -> Result<DistRunResult, CoreError> {
        let mut s = DistSolver::new(self.ds, params())
            .with_processes(3)
            .with_faults(fp)
            .with_checkpointing(self.ckpt.clone());
        if let Some(fr) = flight {
            s = s.with_flight(fr);
        }
        s.train()
    }

    /// `None` when `fp` satisfies the survival contract; the failure
    /// class otherwise. One training per call.
    fn classify(&self, fp: FaultPlan) -> Option<String> {
        let run = match self.run(fp) {
            Ok(run) => run,
            Err(e) => return Some(format!("train-error:{}", error_class(&e))),
        };
        if !run.converged {
            return Some("not-converged".to_string());
        }
        if self.expect_corruption && run.recovery.corrupt_generations == 0 {
            return Some("corruption-not-detected".to_string());
        }
        if run.recovery.degraded {
            // Algorithm 2's iterate trajectory is process-count
            // invariant; only the bias allreduce order depends on p.
            if run.model.coefficients() != self.clean.model.coefficients()
                || (run.model.bias() - self.clean.model.bias()).abs() >= 1e-12
            {
                return Some("diverged-degraded-model".to_string());
            }
        } else if model_bytes(&run.model) != model_bytes(&self.clean.model) {
            return Some("diverged-model".to_string());
        }
        None
    }
}

/// Build the named template's fault plan against the baseline makespan.
/// Crash deadlines are well separated so the first panic is never a
/// wall-clock race between armed rules.
fn template_plan(template: &str, seed: u64, makespan: f64) -> Result<FaultPlan, String> {
    let fp = FaultPlan::new(seed);
    match template {
        // One mid-run crash, recovered from the newest cut at the same p.
        "crash" => Ok(fp.crash_rank(1, 0.5 * makespan)),
        // A crash whose restore must detect corrupted generations and
        // fall back to an older verified cut.
        "corrupt" => Ok(fp
            .crash_rank(2, 0.35 * makespan)
            .corrupt_checkpoints(1, u64::MAX)),
        // The full ladder: three crashes (two land during recovery
        // attempts) plus corruption of every post-warmup generation.
        "ladder" => Ok(fp
            .crash_rank(0, 0.12 * makespan)
            .crash_rank(2, 0.3 * makespan)
            .crash_rank(1, 0.55 * makespan)
            .corrupt_checkpoints(1, u64::MAX)),
        other => Err(format!(
            "soak: unknown plan template '{other}' (known: {})",
            PLAN_TEMPLATES.join(", ")
        )),
    }
}

/// The named template's scenario shape. Every template climbs the
/// default recovery ladder; they differ in the checkpoint history kept.
fn template_scenario<'a>(
    template: &str,
    ds: &'a Dataset,
    clean: &'a DistRunResult,
) -> Scenario<'a> {
    match template {
        "crash" => Scenario {
            ds,
            clean,
            ckpt: CheckpointPolicy::every(8),
            expect_corruption: false,
        },
        // Both corruption templates keep every generation so the
        // iteration-0 cut survives the corrupt window.
        _ => Scenario {
            ds,
            clean,
            ckpt: CheckpointPolicy::every(8).with_keep_generations(4096),
            expect_corruption: true,
        },
    }
}

/// Greedy 1-minimal delta debugging: repeatedly drop any single rule
/// whose removal preserves the failure class, until no rule can go.
/// `probe` runs one training per call and returns the failure class.
pub fn shrink_plan<F>(plan: &FaultPlan, class: &str, mut probe: F) -> FaultPlan
where
    F: FnMut(&FaultPlan) -> Option<String>,
{
    let mut cur = plan.clone();
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < cur.rules_len() {
            let cand = cur.without_rule(i);
            if probe(&cand).as_deref() == Some(class) {
                cur = cand;
                changed = true;
            } else {
                i += 1;
            }
        }
    }
    cur
}

/// Re-run a failing cell's plan once with a flight recorder attached and
/// dump the black box. The rerun is byte-deterministic per seed, so the
/// dump is identical across soak invocations; crashes and train errors
/// are the *expected* outcome here — the rings survive the unwind in the
/// caller-held `Arc`, which is the whole point of the recorder.
fn capture_flight(scenario: &Scenario<'_>, fp: &FaultPlan, name: &str, class: &str) -> String {
    let fr = Arc::new(FlightRecorder::new(3, flight_capacity()));
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        scenario.run_flight(fp.clone(), Some(Arc::clone(&fr)))
    }));
    let snap = fr.snapshot();
    let health = monitor::analyze(&snap.all_events());
    snap.to_json(name, class, &health)
}

/// Run one (seed, template) cell: two identical faulted runs for the
/// byte-determinism check, contract classification, and (on failure)
/// delta-debugging of the plan.
fn run_cell(
    template: &str,
    seed: u64,
    ds: &Dataset,
    clean: &DistRunResult,
    shrink: bool,
) -> Result<CellOutcome, String> {
    let scenario = template_scenario(template, ds, clean);
    let fp = template_plan(template, seed, clean.makespan)?;

    let a = scenario.run(fp.clone());
    let b = scenario.run(fp.clone());
    let mut failure = match (&a, &b) {
        (Ok(x), Ok(y)) => {
            let same = model_bytes(&x.model) == model_bytes(&y.model)
                && x.makespan.to_bits() == y.makespan.to_bits()
                && x.recovery.cost().to_bits() == y.recovery.cost().to_bits()
                && x.recovery.recoveries == y.recovery.recoveries;
            if same {
                None
            } else {
                Some("nondeterministic".to_string())
            }
        }
        (Err(x), Err(y)) if error_class(x) == error_class(y) => None,
        _ => Some("nondeterministic".to_string()),
    };
    if failure.is_none() {
        failure = scenario.classify(fp.clone());
    }

    let shrunk = match &failure {
        Some(class) if shrink => {
            let min = shrink_plan(&fp, class, |p| scenario.classify(p.clone()));
            Some(ShrunkPlan {
                rules_before: fp.rules_len(),
                rules_after: min.rules_len(),
                plan_text: min.to_text(),
            })
        }
        _ => None,
    };
    let flight_json = failure
        .as_ref()
        .map(|class| capture_flight(&scenario, &fp, &format!("{template}_s{seed}"), class));

    let (recoveries, corrupt, degraded, final_ranks, makespan, recovery_cost) = match &a {
        Ok(run) => (
            run.recovery.recoveries,
            run.recovery.corrupt_generations,
            run.recovery.degraded,
            run.recovery.final_ranks,
            run.makespan,
            run.recovery.cost(),
        ),
        Err(_) => (0, 0, false, 0, 0.0, 0.0),
    };
    Ok(CellOutcome {
        seed,
        plan: template.to_string(),
        failure,
        recoveries,
        corrupt_generations: corrupt,
        degraded,
        final_ranks,
        makespan,
        recovery_cost,
        shrunk,
        flight_json,
    })
}

/// The planted shrinker self-test: a deliberately fatal plan — one
/// crash with no checkpointing — padded with chaff the failure does not
/// depend on (two delay rules, one checkpoint-corruption rule that is
/// inert without checkpointing). The shrinker must strip every chaff
/// rule; the acceptance bar is a minimal plan of at most two rules.
fn shrink_selftest(seed: u64) -> Result<SelftestOutcome, String> {
    let ds = blobs(seed);
    let clean = DistSolver::new(&ds, params())
        .with_processes(3)
        .train()
        .map_err(|e| format!("soak: self-test baseline failed: {e:?}"))?;
    let planted = FaultPlan::new(seed)
        .delay_messages(None, None, 5e-4, 0.05, 0.0, f64::INFINITY, 20)
        .delay_messages(None, None, 1e-3, 0.03, 0.0, f64::INFINITY, 10)
        .corrupt_checkpoints(1, u64::MAX)
        .crash_rank(1, 0.5 * clean.makespan);
    let probe = |fp: &FaultPlan| match DistSolver::new(&ds, params())
        .with_processes(3)
        .with_faults(fp.clone())
        .train()
    {
        Ok(run) if run.converged => None,
        Ok(_) => Some("not-converged".to_string()),
        Err(e) => Some(format!("train-error:{}", error_class(&e))),
    };
    let class = probe(&planted)
        .ok_or_else(|| "soak: the planted plan unexpectedly survived".to_string())?;
    let min = shrink_plan(&planted, &class, probe);
    Ok(SelftestOutcome {
        seed,
        class,
        rules_before: planted.rules_len(),
        rules_after: min.rules_len(),
        plan_text: min.to_text(),
    })
}

fn push_cell_json(out: &mut String, c: &CellOutcome) {
    out.push_str("    {\"seed\":");
    let _ = write!(out, "{}", c.seed);
    out.push_str(",\"plan\":");
    json::escape_into(out, &c.plan);
    out.push_str(",\"status\":");
    json::escape_into(out, if c.failure.is_none() { "pass" } else { "fail" });
    out.push_str(",\"class\":");
    json::escape_into(out, c.failure.as_deref().unwrap_or("ok"));
    let _ = write!(
        out,
        ",\"recoveries\":{},\"corrupt_generations\":{},\"degraded\":{},\"final_ranks\":{}",
        c.recoveries, c.corrupt_generations, c.degraded, c.final_ranks
    );
    out.push_str(",\"makespan\":");
    json::write_f64(out, c.makespan);
    out.push_str(",\"recovery_cost\":");
    json::write_f64(out, c.recovery_cost);
    match &c.shrunk {
        Some(s) => {
            let _ = write!(
                out,
                ",\"shrunk\":{{\"rules_before\":{},\"rules_after\":{},\"plan\":",
                s.rules_before, s.rules_after
            );
            json::escape_into(out, &s.plan_text);
            out.push_str("}}");
        }
        None => out.push_str(",\"shrunk\":null}"),
    }
}

fn render(cfg: &SoakConfig, cases: &[CellOutcome], st: &SelftestOutcome) -> String {
    let failures = cases.iter().filter(|c| c.failure.is_some()).count();
    let mut out = String::new();
    out.push_str("{\"schema\":");
    json::escape_into(&mut out, SCHEMA);
    out.push_str(",\"name\":");
    json::escape_into(&mut out, &cfg.name);
    out.push_str(",\"seeds\":[");
    for (i, s) in cfg.seeds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{s}");
    }
    out.push_str("],\"plans\":[");
    for (i, p) in cfg.plans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::escape_into(&mut out, p);
    }
    let _ = write!(out, "],\"shrink\":{},\n  \"cases\":[\n", cfg.shrink);
    for (i, c) in cases.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        push_cell_json(&mut out, c);
    }
    out.push_str("\n  ],\n  \"shrink_selftest\":{\"seed\":");
    let _ = write!(out, "{},\"class\":", st.seed);
    json::escape_into(&mut out, &st.class);
    let _ = write!(
        out,
        ",\"rules_before\":{},\"rules_after\":{},\"plan\":",
        st.rules_before, st.rules_after
    );
    json::escape_into(&mut out, &st.plan_text);
    let _ = write!(out, "}},\n  \"failures\":{failures}}}\n");
    out
}

/// Run the full soak grid. Deterministic for a given config and
/// `SHRINKSVM_CHAOS_SEED_OFFSET`; `Err` only on setup problems (bad
/// template name, malformed environment, self-test plan surviving) —
/// failing *cells* are reported in the returned [`SoakReport`].
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, String> {
    quiet_expected_crashes();
    let offset = shrinksvm_mpisim::env_u64("SHRINKSVM_CHAOS_SEED_OFFSET")
        .map_err(|e| e.to_string())?
        .unwrap_or(0);
    if cfg.seeds.is_empty() || cfg.plans.is_empty() {
        return Err("soak: need at least one seed and one plan".to_string());
    }
    for p in &cfg.plans {
        // fail fast on typos before burning grid time
        template_plan(p, 1, 1.0)?;
    }
    let mut cases = Vec::new();
    for &grid_seed in &cfg.seeds {
        let seed = grid_seed + offset;
        let ds = blobs(seed);
        let clean = DistSolver::new(&ds, params())
            .with_processes(3)
            .train()
            .map_err(|e| format!("soak: seed {seed} baseline failed: {e:?}"))?;
        for p in &cfg.plans {
            cases.push(run_cell(p, seed, &ds, &clean, cfg.shrink)?);
        }
    }
    let selftest = shrink_selftest(cfg.seeds[0] + offset + 100)?;
    let json = render(cfg, &cases, &selftest);
    json::check(&json).map_err(|e| format!("soak: report failed self-check: {e}"))?;
    let failures = cases.iter().filter(|c| c.failure.is_some()).count();
    Ok(SoakReport {
        cases,
        selftest,
        failures,
        json,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_template_is_a_named_error() {
        let err = template_plan("warp-core-breach", 1, 1.0).unwrap_err();
        assert!(err.contains("warp-core-breach"), "{err}");
        assert!(err.contains("ladder"), "{err}");
    }

    #[test]
    fn shrinker_is_one_minimal_on_a_synthetic_predicate() {
        // failure depends on rules 1 and 3 jointly; 0 and 2 are chaff
        let plan = FaultPlan::new(7)
            .delay_messages(None, None, 1e-3, 0.1, 0.0, f64::INFINITY, 4)
            .crash_rank(0, 1.0)
            .corrupt_checkpoints(5, 9)
            .crash_rank(1, 2.0);
        assert_eq!(plan.rules_len(), 4);
        // predicate: fails iff both crash rules survive
        let crashes = |p: &FaultPlan| p.to_text().lines().filter(|l| l.contains("crash")).count();
        let probe = |p: &FaultPlan| (crashes(p) == 2).then(|| "boom".to_string());
        let min = shrink_plan(&plan, "boom", probe);
        assert_eq!(min.rules_len(), 2, "{}", min.to_text());
        assert_eq!(crashes(&min), 2, "only the crash rules survive");
    }

    #[test]
    fn report_renders_valid_deterministic_json() {
        let cfg = SoakConfig {
            name: "unit".to_string(),
            seeds: vec![1, 2],
            plans: vec!["crash".to_string()],
            shrink: false,
        };
        let cases = vec![CellOutcome {
            seed: 1,
            plan: "crash".to_string(),
            failure: Some("diverged-model".to_string()),
            recoveries: 1,
            corrupt_generations: 0,
            degraded: false,
            final_ranks: 3,
            makespan: 0.5,
            recovery_cost: 0.125,
            shrunk: Some(ShrunkPlan {
                rules_before: 3,
                rules_after: 1,
                plan_text: "shrinksvm-faultplan v1\n".to_string(),
            }),
            flight_json: None,
        }];
        let st = SelftestOutcome {
            seed: 101,
            class: "train-error:RankLost".to_string(),
            rules_before: 4,
            rules_after: 1,
            plan_text: "shrinksvm-faultplan v1\n".to_string(),
        };
        let a = render(&cfg, &cases, &st);
        let b = render(&cfg, &cases, &st);
        assert_eq!(a, b);
        json::check(&a).expect("valid json");
        assert!(a.contains("\"schema\":\"shrinksvm-soak/v1\""));
        assert!(a.contains("\"failures\":1"));
        assert!(a.contains("\"rules_after\":1"));
    }
}
