//! Launching a fleet of ranks.

use std::sync::Arc;
use std::time::Duration;

use shrinksvm_analyze::{FaultEvent, ValidationReport, Violation};
use shrinksvm_obs::critpath::{DepEvent, DepLog};
use shrinksvm_obs::flight::FlightRecorder;
use shrinksvm_obs::monitor;
use shrinksvm_obs::profile::Profile;
use shrinksvm_obs::timeline::{Event, Timeline};

use crate::comm::{Comm, RankFinal};
use crate::cost::CostParams;
use crate::fabric::{Fabric, Message};
use crate::fault::{CrashNotice, FaultPlan};
use crate::stats::CommStats;

/// Default liveness timeout: the absolute fallback bound on a single
/// blocking receive when no override is configured.
pub const DEFAULT_LIVENESS_TIMEOUT: Duration = Duration::from_secs(300);

/// Environment variable overriding the default liveness timeout, in whole
/// seconds.
pub const LIVENESS_TIMEOUT_ENV: &str = "SHRINKSVM_LIVENESS_TIMEOUT_SECS";

/// What one rank produced: the closure's return value plus the rank's final
/// simulated clock and activity counters.
#[derive(Clone, Debug)]
pub struct RankOutcome<T> {
    /// The value returned by the rank closure.
    pub value: T,
    /// Final simulated time on this rank's clock, in seconds.
    pub clock: f64,
    /// Traffic and compute counters.
    pub stats: CommStats,
}

/// Everything a fully-observed run returns: per-rank outcomes, the
/// validation report, the merged [`Timeline`], and the replayable
/// dependency log.
pub type ObservedRun<T> = (Vec<RankOutcome<T>>, ValidationReport, Timeline, DepLog);

/// Build the hierarchical time [`Profile`] of an observed run: the
/// dependency log supplies the charges, the timeline's solver spans the
/// phase stacks.
///
/// # Errors
///
/// Propagates [`Profile::from_run`]'s contract: a log the replay rejects
/// or a profile that fails to reconcile with the attribution buckets.
pub fn profile_observed<T>(run: &ObservedRun<T>) -> Result<Profile, String> {
    Profile::from_run(&run.3, &run.2)
}

/// A set of `p` simulated ranks sharing a cost model (`MPI_COMM_WORLD`
/// analog). Construct once, [`Universe::run`] any number of programs.
///
/// A wait-for-graph deadlock verdict is always active: the receive or the
/// finish that leaves every unfinished rank blocked fails at once with a
/// per-rank report instead of hanging, and every receiver checks its links'
/// message order. Full communication validation (collective lockstep
/// ledger, message conservation, tag discipline) is opt-in via
/// [`Universe::validated`].
#[derive(Clone, Debug)]
pub struct Universe {
    p: usize,
    cost: CostParams,
    validate: bool,
    liveness: Duration,
    faults: Option<Arc<FaultPlan>>,
    tracing: bool,
    flight: Option<Arc<FlightRecorder>>,
}

/// Publishes this rank's `Finished` state when the closure exits — normally
/// or by unwinding — so blocked peers can be diagnosed instead of hanging.
struct FinishGuard<'f> {
    fabric: &'f Fabric,
    rank: usize,
}

impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        self.fabric.finish(self.rank, std::thread::panicking());
    }
}

impl Universe {
    /// A universe of `p` ranks with zero-cost networking (pure correctness).
    ///
    /// The liveness timeout defaults to [`DEFAULT_LIVENESS_TIMEOUT`],
    /// overridable process-wide via the `SHRINKSVM_LIVENESS_TIMEOUT_SECS`
    /// environment variable or per-universe via
    /// [`Universe::with_liveness_timeout`].
    ///
    /// # Panics
    ///
    /// Panics with a named diagnosis when the environment override is set
    /// to a non-numeric or zero value — a misconfigured knob must not
    /// silently fall back to the default.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "need at least one rank");
        let liveness = match crate::env::env_u64(LIVENESS_TIMEOUT_ENV) {
            Ok(None) => DEFAULT_LIVENESS_TIMEOUT,
            Ok(Some(0)) => panic!("{LIVENESS_TIMEOUT_ENV}: must be a positive number of seconds"),
            Ok(Some(secs)) => Duration::from_secs(secs),
            Err(e) => panic!("{e}"),
        };
        Universe {
            p,
            cost: CostParams::zero(),
            validate: false,
            liveness,
            faults: None,
            tracing: false,
            flight: None,
        }
    }

    /// Attach a network cost model.
    pub fn with_cost(mut self, cost: CostParams) -> Self {
        self.cost = cost;
        self
    }

    /// Set the liveness timeout: the absolute fallback bound on a single
    /// blocked wait, for pathologies the wait-for graph cannot see (e.g. a
    /// peer spinning forever in compute). Real communication deadlocks
    /// never wait for it; they are diagnosed at once.
    pub fn with_liveness_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "liveness timeout must be positive");
        self.liveness = timeout;
        self
    }

    /// Install a deterministic fault schedule: every run of this universe
    /// injects the plan's message drops/corruptions/delays and rank
    /// crashes/slowdowns, keyed on simulated time and the plan's seed.
    /// Injected crashes surface as recoverable errors through
    /// [`Universe::run_try`].
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// The liveness timeout in force.
    pub fn liveness_timeout(&self) -> Duration {
        self.liveness
    }

    /// Record a simulated-time [`Timeline`] of every run: per-rank spans
    /// for compute, collectives and p2p receive waits, plus instant
    /// markers for retransmissions and every injected fault. Retrieve the
    /// merged timeline via [`Universe::run_observed`] /
    /// [`Universe::run_try_observed`]. Identical seeds produce
    /// byte-identical rendered traces because every timestamp comes off
    /// the simulated LogGP clock.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Whether runs record a timeline.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Attach a shared crash [`FlightRecorder`]: every rank mirrors its
    /// trace events (and terminal diagnostics — crash, retry exhaustion,
    /// deadlock, liveness timeout) into a bounded per-rank ring *at record
    /// time*, so the caller's `Arc` clone still holds each rank's last
    /// moments after a panic destroys the tracer buffers. Works with or
    /// without [`Universe::with_tracing`]. On a successful run the
    /// snapshot is also rendered into the [`ValidationReport`].
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Enable full communication validation: collective lockstep
    /// fingerprints, tag discipline and finalize-time message conservation.
    /// (Every run checks each link's message order.)
    /// [`Universe::run`] then panics with the report if a run is dirty;
    /// [`Universe::run_report`] returns it instead.
    pub fn validated(mut self) -> Self {
        self.validate = true;
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.p
    }

    /// Run `f` on every rank concurrently (one OS thread per rank) and
    /// return the outcomes in rank order. Panics propagate: if any rank
    /// panics, the join panics here with that rank's payload (preferring the
    /// first rank that panicked over secondary casualties). Under
    /// [`Universe::validated`], a dirty validation report also panics.
    pub fn run<T, F>(&self, f: F) -> Vec<RankOutcome<T>>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        let (outcomes, report) = self.run_report(f);
        if !report.is_clean() {
            panic!("{report}");
        }
        outcomes
    }

    /// Like [`Universe::run`], but hand back the [`ValidationReport`] instead
    /// of panicking on violations. Without [`Universe::validated`] the report
    /// is always clean. An injected rank crash still panics here; use
    /// [`Universe::run_try`] to recover from one.
    pub fn run_report<T, F>(&self, f: F) -> (Vec<RankOutcome<T>>, ValidationReport)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        match self.run_try(f) {
            Ok(result) => result,
            Err(notice) => panic!("{notice}"),
        }
    }

    /// Like [`Universe::run_report`], but an injected rank crash (a
    /// [`crate::FaultPlan`] crash rule firing) is returned as
    /// `Err(CrashNotice)` instead of propagating the panic, so a driver
    /// can recover — restart from a checkpoint, or continue degraded.
    /// Every other panic still propagates.
    pub fn run_try<T, F>(
        &self,
        f: F,
    ) -> Result<(Vec<RankOutcome<T>>, ValidationReport), CrashNotice>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        self.run_try_observed(f)
            .map(|(outcomes, report, _timeline, _deps)| (outcomes, report))
    }

    /// Like [`Universe::run`], but also return the merged simulated-time
    /// [`Timeline`] (empty unless built [`Universe::with_tracing`]).
    /// Panics on a rank crash or a dirty validation report.
    pub fn run_observed<T, F>(&self, f: F) -> (Vec<RankOutcome<T>>, Timeline)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        match self.run_try_observed(f) {
            Ok((outcomes, report, timeline, _deps)) => {
                if !report.is_clean() {
                    panic!("{report}");
                }
                (outcomes, timeline)
            }
            Err(notice) => panic!("{notice}"),
        }
    }

    /// Like [`Universe::run_try`], but also return the merged
    /// simulated-time [`Timeline`] — every rank's recorded track in rank
    /// order, with the fault ledger's injected events overlaid as instant
    /// markers on the affected rank's track — plus the merged cross-rank
    /// [`DepLog`] (matched send→recv edges and collective intervals with
    /// exact charge values), which
    /// [`PerfDoctor::analyze`](shrinksvm_obs::PerfDoctor::analyze) replays
    /// bit-for-bit. Without [`Universe::with_tracing`] both are empty.
    pub fn run_try_observed<T, F>(&self, f: F) -> Result<ObservedRun<T>, CrashNotice>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        let cost = self.cost;
        let p = self.p;
        let fabric = Arc::new(Fabric::new(p, self.validate));
        let mut outcomes: Vec<Option<RankOutcome<T>>> = (0..p).map(|_| None).collect();
        let mut finals: Vec<RankFinal> = Vec::with_capacity(if self.validate { p } else { 0 });
        let mut tracks: Vec<Vec<Event>> = (0..p).map(|_| Vec::new()).collect();
        let mut dep_tracks: Vec<Vec<DepEvent>> = (0..p).map(|_| Vec::new()).collect();
        let mut crashed: Option<CrashNotice> = None;
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(p);
            for rank in 0..p {
                let f = &f;
                let fabric = Arc::clone(&fabric);
                let validate = self.validate;
                let tracing = self.tracing;
                let liveness = self.liveness;
                let faults = self.faults.clone();
                let flight = self.flight.clone();
                handles.push(s.spawn(move || {
                    let mut comm = Comm::new(rank, p, cost, Arc::clone(&fabric), liveness, faults);
                    if tracing {
                        comm.enable_tracing();
                    }
                    if let Some(fr) = flight {
                        comm.enable_flight(fr);
                    }
                    let _guard = FinishGuard {
                        fabric: &fabric,
                        rank,
                    };
                    let value = f(&mut comm);
                    let events = comm.take_trace_events();
                    let deps = comm.take_dep_events();
                    let outcome = RankOutcome {
                        value,
                        clock: comm.clock(),
                        stats: comm.stats(),
                    };
                    // Under validation the pending buffers outlive the rank
                    // so the universe can audit leftovers post-join.
                    let fin = if validate {
                        Some(comm.finalize())
                    } else {
                        None
                    };
                    (outcome, fin, events, deps)
                }));
            }
            let mut joined: Vec<Option<Box<dyn std::any::Any + Send>>> = Vec::with_capacity(p);
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok((outcome, fin, events, deps)) => {
                        outcomes[rank] = Some(outcome);
                        if let Some(fin) = fin {
                            finals.push(fin);
                        }
                        tracks[rank] = events;
                        dep_tracks[rank] = deps;
                        joined.push(None);
                    }
                    Err(payload) => joined.push(Some(payload)),
                }
            }
            // Prefer the payload of the rank that panicked *first* — peers
            // that died reacting to it are secondary casualties.
            let preferred = fabric
                .first_panicked()
                .filter(|&r| matches!(joined.get(r), Some(Some(_))));
            let root = if let Some(r) = preferred {
                joined[r].take()
            } else {
                joined.iter_mut().find_map(Option::take)
            };
            if let Some(payload) = root {
                // An injected crash is a *planned* fault: surface it as a
                // value so the caller can recover. Anything else unwinds.
                match payload.downcast::<CrashNotice>() {
                    Ok(notice) => crashed = Some(*notice),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        if let Some(notice) = crashed {
            return Err(notice);
        }
        let mut report = fabric.take_report();
        for fin in finals {
            let unreceived = fabric.unreceived(fin.rank);
            audit_rank(&mut report, fin, unreceived);
        }
        report.normalize();
        let (timeline, deps) = if self.tracing {
            let mut tl = Timeline::from_tracks(tracks);
            for e in &report.faults {
                tl.push(ledger_instant(e));
            }
            tl.normalize();
            // In-flight health verdicts, evaluated over the normalized
            // timeline (events + fault-ledger projections) and overlaid
            // as `cat:"health"` instants. A fault-free run under the
            // monitor's thresholds produces none, keeping traced artifacts
            // byte-identical to their pre-monitor baselines.
            let health = monitor::analyze(tl.events());
            if !health.is_empty() {
                for h in &health {
                    let instant = h.to_instant();
                    if let Some(fr) = &self.flight {
                        fr.record(instant.clone());
                    }
                    tl.push(instant);
                }
                tl.normalize();
            }
            (tl, DepLog::from_ranks(dep_tracks))
        } else {
            (Timeline::new(), DepLog::new())
        };
        if let Some(fr) = &self.flight {
            report.flight = fr.snapshot().render_lines();
        }
        let outcomes = outcomes
            .into_iter()
            .map(|o| o.expect("rank completed"))
            .collect();
        Ok((outcomes, report, timeline, deps))
    }

    /// Convenience: run and return the maximum simulated clock across ranks
    /// (the fleet's makespan) alongside the rank-0 value.
    pub fn run_timed<T, F>(&self, f: F) -> (T, f64)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        let mut outcomes = self.run(f);
        let makespan = outcomes.iter().map(|o| o.clock).fold(0.0f64, f64::max);
        (outcomes.remove(0).value, makespan)
    }
}

/// Map one fault-ledger entry to an instant marker on the affected rank's
/// timeline track, at the ledger's simulated time.
fn ledger_instant(e: &FaultEvent) -> Event {
    let (track, name, t) = match *e {
        FaultEvent::MessageDropped {
            rank,
            src,
            sim_time,
            ..
        } => (rank as u32, format!("drop(src={src})"), sim_time),
        FaultEvent::MessageCorrupted {
            rank,
            src,
            sim_time,
            ..
        } => (rank as u32, format!("corruption(src={src})"), sim_time),
        FaultEvent::MessageDelayed {
            rank,
            src,
            secs,
            sim_time,
            ..
        } => (rank as u32, format!("delay(src={src},+{secs}s)"), sim_time),
        FaultEvent::MessageLost {
            rank,
            src,
            attempts,
            sim_time,
            ..
        } => (
            rank as u32,
            format!("lost(src={src},attempts={attempts})"),
            sim_time,
        ),
        FaultEvent::RankCrashed { rank, sim_time } => (rank as u32, "crash".to_string(), sim_time),
        FaultEvent::RankSlowed {
            rank,
            factor,
            sim_time,
        } => (rank as u32, format!("slowdown(x{factor})"), sim_time),
    };
    Event::Instant {
        track,
        name,
        cat: "fault".to_string(),
        t,
    }
}

/// Message-conservation audit of one finished rank: anything still queued in
/// its inbox was sent but never received; anything still in its pending
/// buffers was taken off a link but never matched.
fn audit_rank(report: &mut ValidationReport, fin: RankFinal, unreceived: Vec<(usize, Message)>) {
    let mut extra = Vec::new();
    for (src, queue) in fin.pending.into_iter().enumerate() {
        for msg in queue {
            extra.push(Violation::UnmatchedPending {
                rank: fin.rank,
                src,
                tag: msg.tag,
                bytes: msg.payload.len(),
            });
        }
    }
    for (src, msg) in unreceived {
        extra.push(Violation::UnreceivedMessage {
            src,
            dst: fin.rank,
            tag: msg.tag,
            bytes: msg.payload.len(),
        });
    }
    report.extend(extra);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_rank_order() {
        let out = Universe::new(5).run(|c| c.rank() * 10);
        let vals: Vec<usize> = out.iter().map(|o| o.value).collect();
        assert_eq!(vals, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn single_rank_universe_works() {
        let out = Universe::new(1).run(|c| {
            assert_eq!(c.size(), 1);
            c.allreduce_f64_sum(3.0)
        });
        assert_eq!(out[0].value, 3.0);
    }

    #[test]
    fn run_timed_reports_makespan() {
        let ((), t) = Universe::new(3).run_timed(|c| {
            c.advance_compute(c.rank() as f64);
        });
        assert_eq!(t, 2.0);
    }

    #[test]
    fn closures_can_borrow_environment() {
        let data = [1.0, 2.0, 3.0, 4.0];
        let out = Universe::new(2).run(|c| data[c.rank()] * 2.0);
        assert_eq!(out[0].value, 2.0);
        assert_eq!(out[1].value, 4.0);
    }

    #[test]
    #[should_panic(expected = "rank panic bubbles")]
    fn rank_panics_propagate() {
        Universe::new(2).run(|c| {
            if c.rank() == 1 {
                panic!("rank panic bubbles");
            }
            // rank 0 returns immediately; no cross-rank wait, so the panic
            // surfaces cleanly at join.
        });
    }

    #[test]
    #[should_panic(expected = "root cause panic")]
    fn first_panic_wins_over_secondary_casualties() {
        // rank 1 panics; rank 0 blocks on it and dies secondarily. The
        // surfaced payload must be rank 1's, despite rank 0 joining first.
        Universe::new(2).run(|c| {
            if c.rank() == 1 {
                panic!("root cause panic");
            }
            c.recv(1, 7);
        });
    }

    #[test]
    fn universe_is_reusable() {
        let u = Universe::new(3);
        for _ in 0..3 {
            let out = u.run(|c| c.allreduce_u64_sum(1));
            assert!(out.iter().all(|o| o.value == 3));
        }
    }

    #[test]
    fn validated_clean_run_is_clean() {
        let (out, report) = Universe::new(4).validated().run_report(|c| {
            let peer = c.rank() ^ 1;
            let got = c.sendrecv(peer, 3, &[c.rank() as u8]);
            c.barrier();
            got[0]
        });
        assert!(report.is_clean(), "{report}");
        assert_eq!(out[0].value, 1);
    }

    #[test]
    fn validated_run_reports_unreceived_message() {
        let (_, report) = Universe::new(2).validated().run_report(|c| {
            if c.rank() == 0 {
                c.isend(1, 42, &[0u8; 24]);
            }
            // rank 1 never posts the matching receive
        });
        let s = report.to_string();
        assert!(!report.is_clean());
        assert!(s.contains("from rank 0 to rank 1"), "{s}");
        assert!(s.contains("tag 0x2a"), "{s}");
    }

    #[test]
    fn tracing_records_spans_and_is_deterministic() {
        let cost = CostParams {
            latency: 1.0,
            gap_per_byte: 0.0,
            send_overhead: 0.0,
        };
        let run = || {
            let (_, tl) = Universe::new(2)
                .with_cost(cost)
                .with_tracing()
                .run_observed(|c| {
                    c.advance_compute(1.0 + c.rank() as f64);
                    c.allreduce_f64_sum(1.0);
                    c.trace_mark("phase_done", "solver");
                });
            tl
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        let json = a.to_chrome_json();
        assert_eq!(json, b.to_chrome_json(), "same run, same bytes");
        assert_eq!(a.render_text(), b.render_text());
        assert!(json.contains("\"name\":\"compute\""), "{json}");
        assert!(json.contains("\"name\":\"allreduce\""), "{json}");
        // rank 0 finished compute first and waited on slower rank 1
        assert!(json.contains("\"name\":\"recv_wait\""), "{json}");
        assert!(json.contains("\"name\":\"phase_done\""), "{json}");
        assert_eq!(a.tracks(), 2);
    }

    #[test]
    fn untraced_runs_return_empty_timeline() {
        let (_, tl) = Universe::new(2).run_observed(|c| c.barrier());
        assert!(tl.is_empty());
    }

    #[test]
    fn dep_log_replays_the_makespan_bit_for_bit() {
        use shrinksvm_obs::PerfDoctor;
        let run = || {
            Universe::new(4)
                .with_cost(CostParams::fdr())
                .with_tracing()
                .run_try_observed(|c| {
                    c.advance_compute(1e-3 * (1.0 + c.rank() as f64));
                    let _ = c.allreduce_f64_sum(c.rank() as f64);
                    c.advance_compute(5e-4);
                    c.barrier();
                })
                .expect("fault-free")
        };
        let (outcomes, _, _, deps) = run();
        assert!(!deps.is_empty());
        let makespan = outcomes.iter().map(|o| o.clock).fold(0.0f64, f64::max);
        let doc = PerfDoctor::analyze(&deps, 0.0).expect("analyzable");
        // The identity replay and the critical-path walk both reproduce
        // the simulated makespan exactly, no tolerance.
        assert_eq!(doc.makespan.to_bits(), makespan.to_bits());
        assert_eq!(doc.critical_path.total().to_bits(), makespan.to_bits());
        // Collective hops are labeled with the collective's name.
        assert!(
            doc.critical_path
                .by_op
                .keys()
                .any(|k| k.contains("allreduce") || k.contains("barrier")),
            "{:?}",
            doc.critical_path.by_op
        );
        // Same seed, same bytes.
        let (_, _, _, deps2) = run();
        let doc2 = PerfDoctor::analyze(&deps2, 0.0).expect("analyzable");
        assert_eq!(doc.to_json(), doc2.to_json());
    }

    #[test]
    fn untraced_runs_return_empty_dep_log() {
        let (_, _, _, deps) = Universe::new(2)
            .run_try_observed(|c| c.barrier())
            .expect("clean");
        assert!(deps.is_empty());
    }

    #[test]
    fn injected_faults_appear_on_the_timeline() {
        use crate::fault::FaultPlan;
        // One guaranteed drop on the 0→1 link: the ledger entry must show
        // up as a fault instant on rank 1's track.
        let plan = FaultPlan::new(17).drop_messages(Some(0), Some(1), 1.0, 0.0, f64::MAX, 1);
        let (_, _, tl, _) = Universe::new(2)
            .with_faults(plan)
            .with_tracing()
            .run_try_observed(|c| {
                if c.rank() == 0 {
                    c.send(1, 1, &[42]);
                } else {
                    c.recv(0, 1);
                }
            })
            .expect("drop is survivable");
        let txt = tl.render_text();
        assert!(txt.contains("drop(src=0)"), "{txt}");
        let json = tl.to_chrome_json();
        assert!(json.contains("\"cat\":\"fault\""), "{json}");
        assert!(json.contains("retransmit"), "{json}");
    }

    #[test]
    fn idle_and_transfer_time_split_the_wait() {
        let cost = CostParams {
            latency: 1.0,
            gap_per_byte: 0.5,
            send_overhead: 0.0,
        };
        let out = Universe::new(2).with_cost(cost).run(|c| {
            if c.rank() == 0 {
                c.advance_compute(10.0);
                c.send(1, 1, &[0u8; 4]);
            } else {
                c.recv(0, 1);
            }
        });
        let s = out[1].stats;
        // rank 1 waited from t=0 to t=13: 10s for rank 0's compute
        // (imbalance), then 1 + 4·0.5 = 3s of wire transfer.
        assert!((s.idle_time - 10.0).abs() < 1e-12, "idle {}", s.idle_time);
        assert!(
            (s.transfer_time - 3.0).abs() < 1e-12,
            "transfer {}",
            s.transfer_time
        );
        assert!((s.comm_time() - 13.0).abs() < 1e-12);
    }

    #[test]
    fn oversubscribed_fleet_draws_no_false_verdict() {
        // Far more ranks than host cores: a rank that was posted to but
        // has not run yet must never read as blocked.
        use crate::reduce::{MaxLoc, MinLoc};
        const P: usize = 64;
        let (out, report) = Universe::new(P).validated().run_report(|c| {
            let r = c.rank() as u64;
            let mut agree = 0u64;
            for round in 0..500u64 {
                let min = MinLoc {
                    value: ((r + round) % P as u64) as f64,
                    index: r,
                };
                let max = MaxLoc {
                    value: ((r * 7 + round) % P as u64) as f64,
                    index: r,
                };
                let ((lo, _), (hi, _)) = c.allreduce_minloc_maxloc((min, &[1]), (max, &[2]));
                let left = c.ring_shift(&[r as u8; 32]);
                agree += u64::from(lo.value == 0.0 && hi.value == (P - 1) as f64);
                agree += u64::from(left == [((r + P as u64 - 1) % P as u64) as u8; 32]);
            }
            agree
        });
        assert!(report.is_clean(), "{report}");
        assert!(out.iter().all(|o| o.value == 1000));
    }

    #[test]
    #[should_panic(expected = "communication deadlock diagnosed")]
    fn cyclic_deadlock_is_diagnosed() {
        Universe::new(2).run(|c| {
            // Both ranks receive before sending: classic head-on deadlock.
            let peer = 1 - c.rank();
            let _ = c.recv(peer, 1);
            c.send(peer, 1, &[]);
        });
    }
}
