//! End-to-end checks of the unified telemetry layer: artifact
//! determinism, JSON well-formedness, fault-ledger visibility, health
//! monitoring, and the crash flight recorder.

use shrinksvm::prelude::*;
use shrinksvm_datagen::gaussian;
use shrinksvm_obs::monitor;
use shrinksvm_obs::{json, Event, FlightRecorder, Timeline, TrackRecorder};

fn params() -> SvmParams {
    SvmParams::new(2.0, KernelKind::rbf_from_sigma_sq(1.5)).with_epsilon(1e-3)
}

fn traced_artifacts(ds: &Dataset) -> (String, String, String, String) {
    let run = DistSolver::new(ds, params().with_shrink(ShrinkPolicy::best()))
        .with_processes(3)
        .with_tracing()
        .train()
        .unwrap();
    let profile = run.profile.as_ref().unwrap();
    (
        run.timeline.to_chrome_json(),
        run.metrics.snapshot(),
        run.bench_report("determinism").to_json(),
        profile.to_folded(),
    )
}

#[test]
fn telemetry_artifacts_are_byte_identical_across_same_seed_runs() {
    let ds = gaussian::two_blobs(180, 4, 3.0, 77);
    let (trace_a, metrics_a, bench_a, folded_a) = traced_artifacts(&ds);
    let (trace_b, metrics_b, bench_b, folded_b) = traced_artifacts(&ds);
    assert_eq!(trace_a, trace_b);
    assert_eq!(metrics_a, metrics_b);
    assert_eq!(bench_a, bench_b);
    assert_eq!(folded_a, folded_b);

    json::check(&trace_a).unwrap();
    json::check(&bench_a).unwrap();
    // solver telemetry made it into the snapshot
    assert!(metrics_a.contains("series active_set"), "{metrics_a}");
    assert!(metrics_a.contains("gauge final_gap"), "{metrics_a}");
    // per-rank tracks and solver phases made it into the trace
    assert!(trace_a.contains("\"allreduce\""));
    assert!(trace_a.contains("\"compute\""));
}

#[test]
fn traced_runs_attach_a_reconciled_hierarchical_profile() {
    let ds = gaussian::two_blobs(180, 4, 3.0, 77);
    let run = DistSolver::new(&ds, params().with_shrink(ShrinkPolicy::best()))
        .with_processes(3)
        .with_tracing()
        .train()
        .unwrap();
    let profile = run.profile.as_ref().expect("tracing attaches a profile");
    assert_eq!(profile.ranks, 3);
    assert_eq!(profile.makespan, run.makespan);

    // Conservation: the folded self-times sum to p * makespan (every
    // simulated second is charged to exactly one leaf).
    let folded = profile.to_folded();
    let total: f64 = folded
        .lines()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .sum();
    let expect = 3.0 * run.makespan;
    assert!(
        (total - expect).abs() <= 1e-9 * run.makespan,
        "folded sum {total} vs p*makespan {expect}"
    );

    // Stacks are rank;phase;op;charge — solver phases from the timeline
    // must show up as the phase frame, not just the "main" fallback.
    assert!(
        folded.lines().any(|l| l.starts_with("rank0;fused_sweep;")),
        "{folded}"
    );
    // Untraced runs attach nothing.
    let plain = DistSolver::new(&ds, params())
        .with_processes(3)
        .train()
        .unwrap();
    assert!(plain.profile.is_none());

    // The remaining renderings hold up too: JSON parses, the flame SVG is
    // well-formed XML.
    json::check(&profile.to_json()).unwrap();
    shrinksvm_obs::profile::xml_check(&profile.to_svg()).unwrap();
}

#[test]
fn fault_ledger_events_are_visible_on_the_timeline() {
    let ds = gaussian::two_blobs(150, 3, 4.0, 78);
    let plan = FaultPlan::new(9).drop_messages(Some(0), Some(1), 1.0, 0.0, f64::MAX, 2);
    let run = DistSolver::new(&ds, params())
        .with_processes(2)
        .with_faults(plan)
        .with_tracing()
        .train()
        .unwrap();
    assert!(run.faults_survived >= 2, "{}", run.faults_survived);
    let text = run.timeline.render_text();
    assert!(text.contains("drop(src=0)"), "{text}");
    let trace = run.timeline.to_chrome_json();
    json::check(&trace).unwrap();
    assert!(trace.contains("\"fault\""));
    assert!(trace.contains("\"retransmit\""));
}

#[test]
fn smo_cache_hit_rate_is_sampled_per_epoch() {
    // enough iterations to cross the 256-iteration epoch boundary
    let ds = gaussian::two_blobs(400, 4, 2.0, 79);
    let out = SmoSolver::new(&ds, params().with_epsilon(1e-4).with_cache_bytes(8 << 20))
        .train()
        .unwrap();
    assert!(out.iterations > 256, "{}", out.iterations);
    assert!(!out.metrics.series("cache_hit_rate").is_empty());
    let rate = out.metrics.gauge("cache_hit_rate").unwrap();
    assert!((0.0..=1.0).contains(&rate), "{rate}");
    // snapshot renders the series deterministically
    let snap = out.metrics.snapshot();
    assert!(snap.contains("series cache_hit_rate"), "{snap}");
}

#[test]
fn convergence_phase_is_published_as_an_epoch_series() {
    // enough iterations to cross the metrics-epoch boundary at least once
    let ds = gaussian::two_blobs(400, 4, 2.0, 80);
    let run = DistSolver::new(&ds, params().with_epsilon(1e-4))
        .with_processes(2)
        .train()
        .unwrap();
    assert!(run.iterations > 256, "{}", run.iterations);
    let phases = run.metrics.series("convergence_phase");
    assert!(!phases.is_empty());
    // phase codes are the four-point scale from ConvergencePhase::code
    assert!(
        phases.iter().all(|&(_, c)| (0.0..=3.0).contains(&c)),
        "{phases:?}"
    );
    assert!(run.metrics.snapshot().contains("series convergence_phase"));
}

#[test]
fn fault_free_runs_emit_zero_health_events() {
    let ds = gaussian::two_blobs(180, 4, 3.0, 81);
    let run = DistSolver::new(&ds, params())
        .with_processes(3)
        .with_tracing()
        .train()
        .unwrap();
    // acceptance bar: a healthy run's timeline carries no health events,
    // neither as timeline instants nor as registered metrics
    assert!(!run
        .timeline
        .events()
        .iter()
        .any(|e| matches!(e, Event::Instant { cat, .. } if cat == "health")),);
    assert!(!run.metrics.snapshot().contains("health_"));
    // and a fresh analysis over the same timeline agrees
    let health = monitor::analyze(run.timeline.events());
    assert!(health.is_empty(), "{health:?}");
}

#[test]
fn text_renderer_handles_empty_and_instant_only_tracks() {
    // empty timeline renders as empty text
    assert_eq!(Timeline::new().render_text(), "");

    // track 0 has no events at all, track 1 holds only instants/counters
    let r0 = TrackRecorder::new(0);
    let mut r1 = TrackRecorder::new(1);
    r1.instant("retransmit", "fault", 0.25);
    r1.counter("active_set", 0.5, 64.0);
    let tl = Timeline::from_tracks(vec![r0.finish(), r1.finish()]);
    let text = tl.render_text();
    // the empty track gets no section header
    assert!(!text.contains("-- rank 0 --"), "{text}");
    assert!(text.contains("-- rank 1 --"), "{text}");
    // instants and counters keep their distinct markers
    assert!(text.contains("!] fault    retransmit"), "{text}");
    assert!(text.contains("#] counter  active_set = 64"), "{text}");
}

#[test]
fn text_renderer_interleaves_health_with_fault_events() {
    let mut r0 = TrackRecorder::new(0);
    r0.span("recv_wait", "p2p", 0.0, 0.9);
    r0.instant("retransmit", "fault", 0.1);
    let mut tl = Timeline::from_tracks(vec![r0.finish()]);
    for h in monitor::analyze(tl.events()) {
        tl.push(h.to_instant());
    }
    tl.normalize();
    let text = tl.render_text();
    // the dominating recv_wait span triggers a stall diagnostic, rendered
    // in the same per-rank section as the raw fault marker
    assert!(text.contains("!] fault    retransmit"), "{text}");
    assert!(text.contains("!] health   collective_stall:"), "{text}");
}

#[test]
fn flight_ring_wraparound_is_deterministic() {
    let fill = |recorder: &FlightRecorder| {
        for i in 0..10 {
            recorder.record(Event::Instant {
                track: 0,
                name: format!("e{i}"),
                cat: "fault".into(),
                t: f64::from(i) * 0.1,
            });
        }
        // events on tracks beyond the ring set are ignored, not mis-filed
        recorder.record(Event::Instant {
            track: 5,
            name: "ghost".into(),
            cat: "fault".into(),
            t: 9.9,
        });
    };
    let a = FlightRecorder::new(2, 4);
    let b = FlightRecorder::new(2, 4);
    fill(&a);
    fill(&b);
    let (sa, sb) = (a.snapshot(), b.snapshot());
    // wraparound keeps exactly the newest `capacity` events, oldest first
    assert_eq!(sa.ranks[0].events.len(), 4);
    assert_eq!(sa.ranks[0].dropped, 6);
    let names: Vec<&str> = sa.ranks[0]
        .events
        .iter()
        .map(|e| match e {
            Event::Instant { name, .. } => name.as_str(),
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(names, ["e6", "e7", "e8", "e9"]);
    assert!(sa.ranks[1].events.is_empty());
    // identical fills serialize to identical bytes
    let ja = sa.to_json("wrap", "test", &[]);
    assert_eq!(ja, sb.to_json("wrap", "test", &[]));
    json::check(&ja).unwrap();
    // the rendered lines (what lands in the validation report) carry one
    // line per retained event plus the rank-0 aged-out marker
    let lines = sa.render_lines();
    assert_eq!(lines.len(), sa.len() + 1, "{lines:?}");
    assert_eq!(lines[0], "rank 0: ... 6 earlier event(s) aged out");
}
