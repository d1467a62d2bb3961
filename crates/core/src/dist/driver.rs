//! Launching a distributed training run and merging the per-rank outcomes.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use shrinksvm_mpisim::{CommStats, CostParams, FaultPlan, Universe, ValidationReport};
use shrinksvm_obs::flight::{FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
use shrinksvm_obs::monitor::{self, HealthRule};
use shrinksvm_obs::timeline::{Event, Timeline};
use shrinksvm_obs::{attrib, BenchReport, MetricsRegistry, PerfDoctor, Profile};
use shrinksvm_sparse::Dataset;

use crate::dist::checkpoint::{
    Checkpoint, CheckpointCtx, CheckpointPolicy, CheckpointStore, RestoreScan,
};
use crate::dist::recovery::{LadderAction, RecoveryLadder, RecoveryPolicy, RecoverySummary};
use crate::dist::solver::{train_rank, DistConfig, DotKind};
use crate::error::CoreError;
use crate::kernel::check_finite_rows;
use crate::model::SvmModel;
use crate::params::SvmParams;
use crate::perfmodel::ComputeCharge;
use crate::trace::{merge_rank_traces, Trace};

/// Merged result of a distributed run.
#[derive(Clone, Debug)]
pub struct DistRunResult {
    /// The trained model (identical on every rank; rank 0's copy).
    pub model: SvmModel,
    /// Total SMO iterations.
    pub iterations: u64,
    /// Whether optimality was reached.
    pub converged: bool,
    /// Merged execution trace.
    pub trace: Trace,
    /// Fleet makespan in *simulated* seconds (max rank clock).
    pub makespan: f64,
    /// Max simulated seconds any rank spent inside gradient
    /// reconstruction (Figure 8's numerator).
    pub recon_time: f64,
    /// Real wall-clock time of the whole simulated run.
    pub wall_time: Duration,
    /// Per-rank communication statistics (of the final, successful
    /// attempt).
    pub rank_stats: Vec<CommStats>,
    /// Injected faults survived: transport faults absorbed by
    /// retransmission or delay, plus rank crashes recovered from.
    pub faults_survived: u64,
    /// Recovery-ladder accounting: restarts performed, corrupt
    /// generations detected, waste/backoff split, final rank count. The
    /// total modeled cost of the run is `makespan + recovery.cost()`.
    pub recovery: RecoverySummary,
    /// Validation report of the final attempt (violations plus the
    /// fault-injection ledger; empty without
    /// [`DistSolver::with_validation`]).
    pub report: ValidationReport,
    /// Merged simulated-time timeline of the final attempt (empty without
    /// [`DistSolver::with_tracing`]). Driver-side crash recoveries appear
    /// as `recovery_restart` instants at each aborted attempt's crash
    /// time.
    pub timeline: Timeline,
    /// Merged solver metrics across ranks: counters sum to global totals,
    /// epoch series (active-set size, KKT gap) are recorded once on
    /// rank 0.
    pub metrics: MetricsRegistry,
    /// Trace-analysis report of the final attempt (`None` without
    /// [`DistSolver::with_tracing`]): the exact critical path through the
    /// event DAG, the five-bucket makespan attribution (crash-recovery
    /// cost from aborted attempts fills the recovery bucket), and the
    /// what-if projections. Render with [`PerfDoctor::render_text`] /
    /// [`PerfDoctor::to_json`].
    pub perf: Option<PerfDoctor>,
    /// Hierarchical time profile of the final attempt (`None` without
    /// [`DistSolver::with_tracing`]): per-rank and merged phase → op →
    /// charge-class trees reconciled against the attribution buckets.
    /// Export with [`Profile::to_folded`] / [`Profile::to_svg`] /
    /// [`Profile::write`].
    pub profile: Option<Profile>,
}

impl DistRunResult {
    /// Fraction of simulated time spent in gradient reconstruction.
    pub fn recon_fraction(&self) -> f64 {
        if self.makespan == 0.0 {
            0.0
        } else {
            self.recon_time / self.makespan
        }
    }

    /// Summarize this run as a machine-readable [`BenchReport`] named
    /// `name` (written to disk as `BENCH_<name>.json`). Speedup vs the
    /// Original baseline is unknown here; callers comparing policies fill
    /// in [`BenchReport::speedup_vs_original`] themselves.
    pub fn bench_report(&self, name: &str) -> BenchReport {
        let mut agg = CommStats::default();
        for s in &self.rank_stats {
            agg.merge(s);
        }
        let mut r = BenchReport::new(name);
        r.modeled_time = self.makespan;
        r.iterations = self.iterations;
        r.converged = self.converged;
        r.ranks = self.rank_stats.len() as u32;
        r.compute_time = agg.compute_time;
        r.transfer_time = agg.transfer_time;
        r.idle_time = agg.idle_time;
        r.faults_survived = self.faults_survived;
        r.recoveries = u64::from(self.recovery.recoveries);
        r.recovery_cost = self.recovery.cost();
        r.extras
            .insert("recovery_waste".to_string(), self.recovery.waste);
        r.extras
            .insert("recovery_backoff".to_string(), self.recovery.backoff);
        r.extras.insert(
            "recovery_corrupt_generations".to_string(),
            self.recovery.corrupt_generations as f64,
        );
        r.extras.insert("recon_time".to_string(), self.recon_time);
        r.extras
            .insert("n_sv".to_string(), self.model.n_sv() as f64);
        if let Some(doc) = &self.perf {
            for (k, v) in attrib::bench_extras(doc) {
                r.extras.insert(k.to_string(), v);
            }
        }
        r
    }
}

/// Builder-style front end: configures process count, network model and
/// compute charges, then trains.
///
/// ```
/// use shrinksvm_core::dist::DistSolver;
/// use shrinksvm_core::kernel::KernelKind;
/// use shrinksvm_core::params::SvmParams;
/// use shrinksvm_core::shrink::ShrinkPolicy;
/// use shrinksvm_datagen::gaussian;
///
/// let ds = gaussian::two_blobs(120, 3, 5.0, 1);
/// let params = SvmParams::new(1.0, KernelKind::rbf_from_sigma_sq(2.0))
///     .with_shrink(ShrinkPolicy::best());
/// let result = DistSolver::new(&ds, params).with_processes(4).train().unwrap();
/// assert!(result.converged);
/// ```
pub struct DistSolver<'a> {
    ds: &'a Dataset,
    cfg: DistConfig,
    p: usize,
    cost: CostParams,
    validate: bool,
    faults: Option<FaultPlan>,
    checkpoint: Option<CheckpointPolicy>,
    recovery: Option<RecoveryPolicy>,
    tracing: bool,
    flight: Option<Arc<FlightRecorder>>,
}

/// Flight-recorder ring capacity (events kept per rank):
/// `SHRINKSVM_FLIGHT_CAP` when set (clamped to ≥ 1), else
/// [`DEFAULT_FLIGHT_CAPACITY`]. Read at recorder-construction time, not
/// cached — harnesses size each run's black box independently.
///
/// Panics with a named diagnosis when the override is set to a
/// non-numeric value — a misconfigured knob must not silently fall back
/// to the default.
pub fn flight_capacity() -> usize {
    match shrinksvm_mpisim::env_u64("SHRINKSVM_FLIGHT_CAP") {
        Ok(Some(v)) => v.max(1) as usize,
        Ok(None) => DEFAULT_FLIGHT_CAPACITY,
        Err(e) => panic!("{e}"),
    }
}

impl<'a> DistSolver<'a> {
    /// A single-process distributed solver (add ranks with
    /// [`DistSolver::with_processes`]).
    pub fn new(ds: &'a Dataset, params: SvmParams) -> Self {
        DistSolver {
            ds,
            cfg: DistConfig::new(params),
            p: 1,
            cost: CostParams::fdr(),
            validate: false,
            faults: None,
            checkpoint: None,
            recovery: None,
            tracing: false,
            flight: None,
        }
    }

    /// Set the number of simulated ranks.
    pub fn with_processes(mut self, p: usize) -> Self {
        assert!(p >= 1, "need at least one process");
        self.p = p;
        self
    }

    /// Set the network cost model.
    pub fn with_cost(mut self, cost: CostParams) -> Self {
        self.cost = cost;
        self
    }

    /// Set the compute charges applied to simulated clocks.
    pub fn with_charge(mut self, charge: ComputeCharge) -> Self {
        self.cfg.charge = charge;
        self
    }

    /// Set the modeled intra-rank lane count (the paper's hybrid
    /// MPI+OpenMP layout): every kernel-column fill splits over this many
    /// static lanes and charges the slowest. The lanes run inline on the
    /// rank's thread, so results are bit-identical at every count; only
    /// the simulated critical-path charge changes.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one lane");
        self.cfg.threads = threads;
        self
    }

    /// Select the sparse dot-product implementation for the gradient hot
    /// path (defaults to [`DotKind::Scatter`]; both are bit-identical).
    pub fn with_dots(mut self, dots: DotKind) -> Self {
        self.cfg.dots = dots;
        self
    }

    /// Run the solver under the substrate's full communication validation
    /// ([`Universe::validated`]): collective lockstep fingerprints, message
    /// conservation and tag discipline. Training panics with the validation
    /// report if the communication pattern is incorrect. Off by default.
    pub fn with_validation(mut self) -> Self {
        self.validate = true;
        self
    }

    /// Install a seeded [`FaultPlan`] — injected message drops,
    /// corruptions and delays, rank crashes and slowdowns, all keyed on
    /// simulated time. Transport faults are absorbed by the substrate's
    /// retransmission; crashes are recoverable when
    /// [`DistSolver::with_checkpointing`] is also set.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enable periodic checkpointing and crash recovery: every rank
    /// snapshots its solver state on the policy's cadence, and on an
    /// injected rank death training restarts from a verified consistent
    /// checkpoint. Without [`DistSolver::with_recovery`] the restarts
    /// climb the default ladder, [`RecoveryPolicy::default`].
    pub fn with_checkpointing(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Tune the recovery ladder (see [`RecoveryPolicy`]): retry budget,
    /// same-`p` rungs, backoff and degradation floor. A checkpointing run
    /// without this climbs [`RecoveryPolicy::default`]; a run without
    /// checkpointing does not recover unless this is set.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Record a per-rank simulated-time timeline (compute spans,
    /// collectives, receive waits, retransmissions, solver phases) into
    /// [`DistRunResult::timeline`]. Purely simulated-time bookkeeping, so
    /// the artifact is byte-identical across same-seed runs.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Attach a crash flight recorder: every rank mirrors its last N
    /// events (compute spans, receive waits, retransmissions, terminal
    /// fault diagnostics) into `flight`'s bounded per-rank rings,
    /// independent of tracing. The caller keeps the `Arc` — it survives
    /// the panic unwind of a crashed attempt, so the black box is
    /// readable even when the run never returns a result. Driver-level
    /// recovery-ladder actions are mirrored in too. Size the rings with
    /// [`flight_capacity`].
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Run the training. With a fault plan installed, transport faults are
    /// absorbed in-flight; an injected rank crash aborts the attempt and —
    /// if the recovery ladder's budget allows — the driver disarms the
    /// fired crash rule, restores a verified consistent checkpoint and
    /// retrains. Repeated no-progress crashes escalate through the
    /// [`RecoveryPolicy`] rungs: older generations, fewer ranks, deeper
    /// skips at the floor, then a named [`CoreError::RankLost`]. A
    /// training row whose squared norm is not finite is a
    /// [`CoreError::NonFiniteRow`], found before any rank starts.
    pub fn train(self) -> Result<DistRunResult, CoreError> {
        #[allow(clippy::disallowed_methods)]
        // allow-wall-clock: host-side metric (reported wall_time), not simulated time
        let start = Instant::now();
        let ds = self.ds;
        // Once, before any rank starts, so every rank agrees on the verdict.
        check_finite_rows(&ds.x)?;
        let mut faults = self.faults;
        let policy = self.recovery.unwrap_or(if self.checkpoint.is_some() {
            RecoveryPolicy::default()
        } else {
            RecoveryPolicy::none()
        });
        let store = self.checkpoint.as_ref().map(|pol| {
            let s = Arc::new(CheckpointStore::new(
                self.p,
                pol.disk_path.clone(),
                pol.keep_generations,
            ));
            if let Some(plan) = &faults {
                s.plant_corruptions(&plan.checkpoint_corruption_windows());
            }
            s
        });
        let mut ladder = RecoveryLadder::new(policy, self.p);
        let mut summary = RecoverySummary::default();
        let mut resume: Option<Arc<Checkpoint>> = None;
        let mut resumed_seq: Option<u64> = None;
        // (rank, sim_time, kind) instants surfaced on the final timeline.
        let mut marks: Vec<(usize, f64, &'static str)> = Vec::new();
        // How many of `marks` are already mirrored into the flight
        // recorder (each crash appends a batch; mirror it once).
        let mut marks_mirrored = 0usize;
        loop {
            let p = ladder.p();
            let mut universe = Universe::new(p).with_cost(self.cost);
            if self.validate {
                universe = universe.validated();
            }
            if self.tracing {
                universe = universe.with_tracing();
            }
            if let Some(plan) = &faults {
                universe = universe.with_faults(plan.clone());
            }
            if let Some(fr) = &self.flight {
                universe = universe.with_flight(Arc::clone(fr));
            }
            let mut cfg = self.cfg.clone();
            if let (Some(store), Some(pol)) = (&store, &self.checkpoint) {
                cfg.checkpoint = Some(CheckpointCtx {
                    store: Arc::clone(store),
                    every_iters: pol.every_iters,
                });
                cfg.resume = resume.clone();
            }
            // Promote-seq watermark at attempt start: generations at or
            // past it were banked by *this* attempt.
            let seq_floor = store.as_ref().map_or(0, |s| s.promote_seq());
            let (outcomes, mut report, mut timeline, deps) =
                match universe.run_try_observed(|comm| train_rank(comm, ds, &cfg)) {
                    Ok(result) => result,
                    Err(notice) => {
                        marks.push((notice.rank, notice.sim_time, "recovery_restart"));
                        // Did the verified frontier move past the cut we
                        // resumed from? That is the ladder's notion of
                        // progress.
                        let frontier = store
                            .as_ref()
                            .map_or_else(RestoreScan::default, |s| s.restore_verified(0));
                        let action = ladder.on_crash(frontier.seq > resumed_seq);
                        let LadderAction::Restore {
                            p: next_p,
                            skip_generations,
                            backoff,
                        } = action
                        else {
                            return Err(CoreError::RankLost {
                                rank: notice.rank,
                                sim_time: notice.sim_time,
                            });
                        };
                        if let Some(plan) = &mut faults {
                            // the fault already fired; re-injecting it on the
                            // retry would loop forever
                            plan.disarm_rank_rule(notice.rule);
                        }
                        let scan = store.as_ref().map_or_else(RestoreScan::default, |s| {
                            s.restore_verified(skip_generations)
                        });
                        // Work banked into a cut this attempt promoted is
                        // not waste — the retry resumes past it. Only the
                        // clock beyond the restored cut is re-executed.
                        let banked = if scan.seq.is_some_and(|s| s >= seq_floor) {
                            scan.sim_time
                        } else {
                            0.0
                        };
                        charge_recovery(&mut summary, (notice.sim_time - banked).max(0.0), backoff);
                        summary.recoveries += 1;
                        summary.corrupt_generations += scan.corrupt_seqs.len() as u64;
                        summary.generations_skipped += scan.skipped_valid as u64;
                        if !scan.corrupt_seqs.is_empty() {
                            marks.push((notice.rank, notice.sim_time, "recovery_ckpt_corrupt"));
                        }
                        if next_p < p {
                            summary.degraded = true;
                            marks.push((notice.rank, notice.sim_time, "recovery_degrade"));
                        }
                        if scan.checkpoint.is_none() {
                            summary.cold_restarts += 1;
                        }
                        if let Some(store) = &store {
                            // Drop generations newer than the restore
                            // target (the retry re-posts their keys) and
                            // retarget the store at the retry's rank count.
                            store.rewind_to(scan.seq);
                            store.reset_ranks(next_p);
                        }
                        if let Some(fr) = &self.flight {
                            // Mirror this crash's ladder actions into the
                            // black box as they happen — the rings must
                            // tell the recovery story even if a later
                            // attempt dies without returning.
                            for &(rank, sim_time, kind) in &marks[marks_mirrored..] {
                                fr.record(Event::Instant {
                                    track: rank as u32,
                                    name: kind.to_string(),
                                    cat: "recovery".to_string(),
                                    t: sim_time,
                                });
                            }
                            marks_mirrored = marks.len();
                        }
                        resume = scan.checkpoint.clone();
                        resumed_seq = scan.seq;
                        continue;
                    }
                };
            if self.validate && !report.is_clean() {
                panic!("{report}");
            }

            // Error paths are driven by globally-agreed values, so either
            // every rank succeeded or every rank failed identically; report
            // rank 0's.
            let mut values = Vec::with_capacity(outcomes.len());
            let mut rank_stats = Vec::with_capacity(outcomes.len());
            let mut makespan = 0.0f64;
            let mut recon_time = 0.0f64;
            for o in outcomes {
                makespan = makespan.max(o.clock);
                rank_stats.push(o.stats);
                values.push(o.value?);
            }
            for v in &values {
                recon_time = recon_time.max(v.recon_sim_time);
            }
            let transport_faults: u64 = rank_stats.iter().map(CommStats::transport_faults).sum();
            let mut metrics = MetricsRegistry::new();
            for v in &values {
                metrics.merge(&v.metrics);
            }
            if self.tracing && !marks.is_empty() {
                // The timeline covers only the final (successful) attempt;
                // mark where earlier attempts died — and which ladder rungs
                // fired — so recoveries are visible on the affected rank's
                // track.
                for &(rank, sim_time, kind) in &marks {
                    timeline.push(Event::Instant {
                        track: rank as u32,
                        name: kind.to_string(),
                        cat: "recovery".to_string(),
                        t: sim_time,
                    });
                }
                timeline.normalize();
                // Ladder-churn health: the per-attempt analysis inside the
                // universe never sees these driver-level recovery marks, so
                // the churn rule is evaluated here, over the final merged
                // timeline, and only its events are new (every other rule
                // already fired — or didn't — inside the universe).
                let churn: Vec<_> = monitor::analyze(timeline.events())
                    .into_iter()
                    .filter(|h| h.rule == HealthRule::RecoveryChurn)
                    .collect();
                if !churn.is_empty() {
                    for h in &churn {
                        let instant = h.to_instant();
                        if let Some(fr) = &self.flight {
                            fr.record(instant.clone());
                        }
                        timeline.push(instant);
                    }
                    timeline.normalize();
                }
            }
            if let Some(fr) = &self.flight {
                // Refresh the report's black-box rendering so it includes
                // any driver-level events mirrored after the universe
                // returned.
                report.flight = fr.snapshot().render_lines();
            }
            // Trace analysis of the final attempt. A failure here is a
            // simulator bug (the dep log must replay bit-for-bit), so it
            // dies loudly rather than shipping wrong numbers.
            let perf = if self.tracing {
                match PerfDoctor::analyze_split(&deps, summary.waste, summary.backoff) {
                    Ok(doc) => Some(doc),
                    Err(e) => panic!("PerfDoctor analysis failed: {e}"),
                }
            } else {
                None
            };
            // The hierarchical profile shares the doctor's failure
            // contract: it reconciles the same walk against the same
            // buckets, so an error is a simulator bug, not bad input.
            let profile = if self.tracing {
                match Profile::from_run(&deps, &timeline) {
                    Ok(p) => Some(p),
                    Err(e) => panic!("profile construction failed: {e}"),
                }
            } else {
                None
            };
            summary.final_ranks = rank_stats.len();
            if summary.recoveries > 0 {
                metrics.inc("recoveries", u64::from(summary.recoveries));
                metrics.inc("recovery_corrupt_generations", summary.corrupt_generations);
                metrics.inc("recovery_generations_skipped", summary.generations_skipped);
                metrics.inc("recovery_cold_restarts", u64::from(summary.cold_restarts));
                metrics.set_gauge("recovery_waste", summary.waste);
                metrics.set_gauge("recovery_backoff", summary.backoff);
                metrics.set_gauge("recovery_final_ranks", summary.final_ranks as f64);
            }
            // Per-rule health-event counts, registered only when an event
            // actually fired — a fault-free run's registry (and every
            // artifact derived from it) is byte-identical to one produced
            // before the monitor existed.
            let mut health_counts: BTreeMap<String, u64> = BTreeMap::new();
            for e in timeline.events() {
                if let Event::Instant { name, cat, .. } = e {
                    if cat == "health" {
                        let rule = name.split(':').next().unwrap_or("unknown");
                        *health_counts.entry(format!("health_{rule}")).or_insert(0) += 1;
                    }
                }
            }
            for (k, n) in &health_counts {
                metrics.inc(k, *n);
            }
            let first = &values[0];
            let traces: Vec<_> = values.iter().map(|v| v.trace.clone()).collect();
            let trace = merge_rank_traces(
                &traces,
                ds.len() as u64,
                ds.x.mean_row_nnz(),
                first.converged,
                first.final_gap,
            );
            return Ok(DistRunResult {
                model: first.model.clone(),
                iterations: first.iterations,
                converged: first.converged,
                trace,
                makespan,
                recon_time,
                wall_time: start.elapsed(),
                rank_stats,
                faults_survived: u64::from(summary.recoveries) + transport_faults,
                report,
                timeline,
                metrics,
                perf,
                profile,
                recovery: summary,
            });
        }
    }
}

/// Book one aborted attempt's cost into the run's recovery summary:
/// `waste` is the attempt's re-executed simulated time (its crash clock
/// minus whatever it banked into the restored cut), `backoff` the
/// ladder's pre-retry charge. Lives as a named function so the charge
/// lint can require recovery-loop accounting to route through it.
fn charge_recovery(summary: &mut RecoverySummary, waste: f64, backoff: f64) {
    summary.waste += waste;
    summary.backoff += backoff;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelKind;
    use crate::shrink::ShrinkPolicy;
    use shrinksvm_datagen::gaussian;

    fn quick_params() -> SvmParams {
        SvmParams::new(2.0, KernelKind::rbf_from_sigma_sq(1.0)).with_epsilon(1e-3)
    }

    #[test]
    fn builder_configures_and_trains() {
        let ds = gaussian::two_blobs(100, 3, 5.0, 31);
        let run = DistSolver::new(&ds, quick_params())
            .with_processes(3)
            .with_cost(CostParams::zero())
            .with_charge(ComputeCharge::default())
            .train()
            .unwrap();
        assert!(run.converged);
        assert_eq!(run.rank_stats.len(), 3);
        assert!(run.model.n_sv() > 0);
        assert!(run.wall_time.as_nanos() > 0);
    }

    #[test]
    fn zero_cost_network_still_tracks_compute_time() {
        let ds = gaussian::two_blobs(80, 3, 4.0, 32);
        let run = DistSolver::new(&ds, quick_params())
            .with_processes(2)
            .with_cost(CostParams::zero())
            .train()
            .unwrap();
        // compute is charged through the charge model even when the
        // network is free
        assert!(run.makespan > 0.0);
        for s in &run.rank_stats {
            assert!(s.compute_time > 0.0);
            assert_eq!(s.comm_time(), 0.0);
        }
    }

    #[test]
    fn recon_fraction_is_a_fraction() {
        let ds = gaussian::two_blobs(120, 3, 2.0, 33);
        let run = DistSolver::new(&ds, quick_params().with_shrink(ShrinkPolicy::best()))
            .with_processes(2)
            .train()
            .unwrap();
        let f = run.recon_fraction();
        assert!((0.0..1.0).contains(&f), "recon fraction {f}");
    }

    #[test]
    fn tracing_and_metrics_populate_the_run_result() {
        let ds = gaussian::two_blobs(120, 3, 4.0, 35);
        let run = DistSolver::new(&ds, quick_params().with_shrink(ShrinkPolicy::best()))
            .with_processes(2)
            .with_tracing()
            .train()
            .unwrap();
        assert!(!run.timeline.is_empty());
        assert_eq!(run.timeline.tracks(), 2);
        let json = run.timeline.to_chrome_json();
        shrinksvm_obs::json::check(&json).unwrap();
        assert!(json.contains("\"compute\""));
        assert!(json.contains("\"allreduce\""));
        // rank-0 epoch series merged into the run-level registry
        assert!(!run.metrics.series("active_set").is_empty());
        assert!(run.metrics.counter("shrink_passes") > 0);
        let report = run.bench_report("unit").to_json();
        shrinksvm_obs::json::check(&report).unwrap();
        assert!(report.contains("\"modeled_time\""));
    }

    #[test]
    fn untraced_run_has_an_empty_timeline() {
        let ds = gaussian::two_blobs(80, 3, 4.0, 36);
        let run = DistSolver::new(&ds, quick_params())
            .with_processes(2)
            .train()
            .unwrap();
        assert!(run.timeline.is_empty());
        // metrics are collected unconditionally — they cost a few counters
        assert!(run.metrics.gauge("final_gap").is_some());
    }

    #[test]
    fn rows_with_non_finite_norms_are_rejected_before_any_rank_starts() {
        // the libsvm rows `+1 1:inf 3:1`, `-1 2:0.25 3:-1`, `+1 1:1 2:nan`,
        // `-1 2:1 3:-0.5`, then the same with `+1 1:1e308 3:1e308` first
        let rows = |first: (&[u32], &[f64])| {
            let mut b = shrinksvm_sparse::CsrBuilder::new(3);
            for (idx, val) in [
                first,
                (&[1, 2], &[0.25, -1.0]),
                (&[0, 1], &[1.0, f64::NAN]),
                (&[1, 2], &[1.0, -0.5]),
            ] {
                b.push_row(idx, val).unwrap();
            }
            Dataset::new(b.finish(), vec![1.0, -1.0, 1.0, -1.0]).unwrap()
        };
        for p in [1, 2, 4] {
            let ds = rows((&[0, 2], &[f64::INFINITY, 1.0]));
            let err = DistSolver::new(&ds, quick_params())
                .with_processes(p)
                .train();
            assert!(
                matches!(
                    err,
                    Err(CoreError::NonFiniteRow {
                        row: 0,
                        column: Some(0)
                    })
                ),
                "p = {p}: {err:?}"
            );
            let ds = rows((&[0, 2], &[1e308, 1e308]));
            let err = DistSolver::new(&ds, quick_params().with_shrink(ShrinkPolicy::best()))
                .with_processes(p)
                .train();
            assert!(
                matches!(
                    err,
                    Err(CoreError::NonFiniteRow {
                        row: 0,
                        column: None
                    })
                ),
                "p = {p}: {err:?}"
            );
        }
    }

    #[test]
    fn degenerate_input_errors_cleanly() {
        let ds = gaussian::two_blobs(100, 3, 5.0, 34);
        let one_class = ds
            .select(&(0..100).filter(|i| i % 2 == 0).collect::<Vec<_>>())
            .unwrap();
        let err = DistSolver::new(&one_class, quick_params())
            .with_processes(2)
            .train();
        assert!(matches!(err, Err(CoreError::DegenerateProblem(_))));
    }
}
