//! Chaos suite for the fault-injection fabric: planted fault scenarios
//! across point-to-point and collective phases, transport recovery, named
//! fail-fast diagnoses, and seed determinism.
//!
//! No scenario rides a wall-clock timeout: every fault either gets
//! survived (and the run's result is exact) or is diagnosed by name
//! (rank/op/tag) within milliseconds.

use std::time::Duration;

use shrinksvm_mpisim::{CostParams, FaultPlan, Universe};

const ANY: Option<usize> = None;
const FOREVER: f64 = f64::INFINITY;

/// Scenario 1: a dropped point-to-point message is retransmitted and the
/// payload still arrives intact.
#[test]
fn dropped_message_is_retried_and_survives() {
    let plan = FaultPlan::new(1).drop_messages(Some(0), Some(1), 1.0, 0.0, FOREVER, 1);
    let (out, report) = Universe::new(2).with_faults(plan).run_report(|c| {
        if c.rank() == 0 {
            c.send(1, 5, &[10, 20, 30]);
            vec![]
        } else {
            c.recv(0, 5)
        }
    });
    assert_eq!(out[1].value, vec![10, 20, 30]);
    assert_eq!(out[1].stats.drops_seen, 1);
    assert_eq!(out[1].stats.retries, 1);
    assert!(out[1].stats.retry_time > 0.0);
    let s = report.to_string();
    assert!(s.contains("fault-injection ledger (1 event(s))"), "{s}");
    assert!(s.contains("lost in flight; retransmitted"), "{s}");
}

/// Scenario 2: every copy of a message is dropped — the transport exhausts
/// its retry budget and fails fast with a named diagnosis (rank, tag,
/// attempt count), not a timeout.
#[test]
#[should_panic(expected = "tag 0x5 from rank 0 permanently lost after 3 transmission attempt(s)")]
fn exhausted_retry_budget_fails_fast_with_named_diagnosis() {
    let plan = FaultPlan::new(1).with_max_retries(2).drop_messages(
        Some(0),
        Some(1),
        1.0,
        0.0,
        FOREVER,
        u64::MAX,
    );
    Universe::new(2).with_faults(plan).run(|c| {
        if c.rank() == 0 {
            c.send(1, 5, &[1]);
            vec![]
        } else {
            c.recv(0, 5)
        }
    });
}

/// Scenario 3: an injected payload corruption is caught by the envelope
/// checksum and the copy is retransmitted.
#[test]
fn corruption_is_detected_by_checksum_and_retried() {
    let plan = FaultPlan::new(3).corrupt_messages(Some(0), Some(1), 1.0, 0.0, FOREVER, 1);
    let (out, report) = Universe::new(2).with_faults(plan).run_report(|c| {
        if c.rank() == 0 {
            c.send_f64s(1, 7, &[1.5, -2.5]);
            vec![]
        } else {
            c.recv_f64s(0, 7)
        }
    });
    assert_eq!(out[1].value, vec![1.5, -2.5]);
    assert_eq!(out[1].stats.corruptions_seen, 1);
    assert_eq!(out[1].stats.retries, 1);
    assert!(
        report.to_string().contains("failed its checksum"),
        "{}",
        report
    );
}

/// Scenario 4: an injected delay perturbs the receiver's simulated clock
/// by exactly the injected amount under a zero-cost network.
#[test]
fn delay_advances_the_simulated_clock() {
    let plan = FaultPlan::new(4).delay_messages(Some(0), Some(1), 2.25, 1.0, 0.0, FOREVER, 1);
    let (out, report) = Universe::new(2).with_faults(plan).run_report(|c| {
        if c.rank() == 0 {
            c.send(1, 9, &[0]);
        } else {
            c.recv(0, 9);
        }
        c.clock()
    });
    assert_eq!(out[0].value, 0.0);
    assert!(
        (out[1].value - 2.25).abs() < 1e-12,
        "clock = {}",
        out[1].value
    );
    assert_eq!(out[1].stats.delays_seen, 1);
    assert!(
        report.to_string().contains("held 2.250000s in flight"),
        "{}",
        report
    );
}

/// Scenario 5: an injected slowdown inflates a rank's compute charges
/// inside its window and nowhere else.
#[test]
fn slowdown_inflates_compute_inside_window() {
    let plan = FaultPlan::new(5).slow_rank(1, 3.0, 0.0, 10.0);
    let (out, report) = Universe::new(2).with_faults(plan).run_report(|c| {
        c.advance_compute(1.0);
        c.clock()
    });
    assert_eq!(out[0].value, 1.0);
    assert!((out[1].value - 3.0).abs() < 1e-12);
    assert!((out[1].stats.slowdown_time - 2.0).abs() < 1e-12);
    assert!(
        report.to_string().contains("compute charged at 3x"),
        "{}",
        report
    );
}

/// Scenario 6: an injected rank crash surfaces as a recoverable value
/// through `run_try`, naming the rank and its simulated time of death.
#[test]
fn injected_crash_is_recoverable_via_run_try() {
    let plan = FaultPlan::new(6).crash_rank(1, 0.5);
    let result = Universe::new(2).with_faults(plan).run_try(|c| {
        c.advance_compute(1.0);
        c.rank()
    });
    let notice = result.expect_err("rank 1 must crash");
    assert_eq!(notice.rank, 1);
    assert!(notice.sim_time >= 0.5);
    assert!(notice
        .to_string()
        .contains("rank 1 killed by injected crash"));
}

/// Scenario 7: through the plain `run` surface an injected crash panics
/// with a named diagnosis — again no timeout involved.
#[test]
#[should_panic(expected = "rank 1 killed by injected crash")]
fn injected_crash_panics_by_name_through_run() {
    let plan = FaultPlan::new(7).crash_rank(1, 0.0);
    Universe::new(2).with_faults(plan).run(|c| {
        c.advance_compute(1.0);
    });
}

/// Scenario 8: a peer blocked on a crashed rank is diagnosed (the crash is
/// the preferred root cause even though the peer also dies).
#[test]
fn peer_blocked_on_crashed_rank_fails_fast() {
    let plan = FaultPlan::new(8).crash_rank(1, 0.5);
    let result = Universe::new(2).with_faults(plan).run_try(|c| {
        if c.rank() == 1 {
            c.advance_compute(1.0); // dies here
            c.send(0, 3, &[1]);
        }
        c.recv(1, 3) // rank 0 blocks on a message that never comes
    });
    let notice = result.expect_err("crash must win over the secondary casualty");
    assert_eq!(notice.rank, 1);
}

/// Scenario 9: faults planted inside a collective phase (allreduce traffic
/// uses the reserved tag namespace) are survived and the reduction is
/// still exact.
#[test]
fn collective_phase_drops_are_survived_exactly() {
    let plan = FaultPlan::new(9).drop_messages(ANY, ANY, 1.0, 0.0, FOREVER, 2);
    let (out, _) = Universe::new(4).with_faults(plan).run_report(|c| {
        let local = (c.rank() + 1) as f64;
        c.allreduce_f64_sum(local)
    });
    assert!(out.iter().all(|o| o.value == 10.0));
    let total_drops: u64 = out.iter().map(|o| o.stats.drops_seen).sum();
    assert!(total_drops > 0, "the plan must actually have fired");
}

/// Scenario 10: a random mix of drops, corruptions and delays across a
/// barrage of p2p + collective traffic is survived with exact results.
#[test]
fn mixed_fault_barrage_is_survived() {
    let plan = FaultPlan::new(10)
        .with_max_retries(8)
        .drop_messages(ANY, ANY, 0.2, 0.0, FOREVER, u64::MAX)
        .corrupt_messages(ANY, ANY, 0.15, 0.0, FOREVER, u64::MAX)
        .delay_messages(ANY, ANY, 0.01, 0.1, 0.0, FOREVER, u64::MAX);
    let (out, report) = Universe::new(4)
        .with_cost(CostParams::fdr())
        .with_faults(plan)
        .run_report(|c| {
            let mut acc = 0u64;
            for round in 0..8 {
                acc += c.allreduce_u64_sum(c.rank() as u64 + round);
                let peer = c.rank() ^ 1;
                let got = c.sendrecv(peer, 11, &[c.rank() as u8]);
                acc += u64::from(got[0]);
            }
            c.barrier();
            acc
        });
    // Exactness: every rank computed the same allreduce sums and swapped
    // the right bytes, faults notwithstanding.
    let expect: u64 = (0..8u64).map(|r| 4 * r + 6).sum();
    assert_eq!(out[0].value, expect + 8); // rank 0's peer is rank 1
    assert_eq!(out[1].value, expect); // rank 1's peer is rank 0
    let faults: u64 = out.iter().map(|o| o.stats.transport_faults()).sum();
    assert!(faults > 0, "the barrage must have injected something");
    assert!(!report.faults.is_empty());
}

/// Satellite (d): seed determinism sweep — the same `FaultPlan` seed must
/// produce byte-identical validation reports and identical per-rank stats
/// across consecutive runs; different seeds must differ somewhere.
#[test]
fn identical_seeds_give_byte_identical_reports() {
    let run_once = |seed: u64| {
        let plan = FaultPlan::new(seed)
            .with_max_retries(8)
            .drop_messages(ANY, ANY, 0.25, 0.0, FOREVER, u64::MAX)
            .delay_messages(ANY, ANY, 0.005, 0.25, 0.0, FOREVER, u64::MAX);
        let (out, report) = Universe::new(3)
            .with_cost(CostParams::fdr())
            .with_faults(plan)
            .validated()
            .run_report(|c| {
                let mut acc = c.allreduce_f64_sum(c.rank() as f64);
                for _ in 0..4 {
                    acc = c.allreduce_f64_sum(acc) / 3.0;
                    c.barrier();
                }
                acc
            });
        let stats: Vec<_> = out.iter().map(|o| o.stats).collect();
        (report.to_string(), stats)
    };
    let mut ledgers = Vec::new();
    for seed in [11u64, 12, 13] {
        let (report_a, stats_a) = run_once(seed);
        let (report_b, stats_b) = run_once(seed);
        assert_eq!(
            report_a, report_b,
            "seed {seed}: reports must be byte-identical"
        );
        assert_eq!(stats_a, stats_b, "seed {seed}: stats must be identical");
        ledgers.push(report_a);
    }
    assert!(
        ledgers[0] != ledgers[1] || ledgers[1] != ledgers[2],
        "different seeds should perturb the fault sequence"
    );
}

/// Satellite (a): the liveness timeout is configurable and fires with a
/// named diagnosis when a peer is stuck in (wall-clock) compute that the
/// wait-for graph cannot see.
#[test]
#[should_panic(expected = "liveness timeout")]
fn liveness_timeout_is_configurable_and_fires() {
    Universe::new(2)
        .with_liveness_timeout(Duration::from_millis(60))
        .run(|c| {
            if c.rank() == 1 {
                // allow-wall-clock: a real-time stall is the very thing
                // this test injects — busy in host time without blocking,
                // invisible to the wait-for graph, so only the liveness
                // bound can fire.
                #[allow(clippy::disallowed_methods)]
                std::thread::sleep(Duration::from_millis(400));
                c.send(0, 2, &[1]);
                vec![]
            } else {
                c.recv(1, 2)
            }
        });
}

/// Satellite (a): the environment variable override is honored.
#[test]
fn liveness_timeout_env_override_is_honored() {
    std::env::set_var(shrinksvm_mpisim::LIVENESS_TIMEOUT_ENV, "7");
    let u = Universe::new(1);
    std::env::remove_var(shrinksvm_mpisim::LIVENESS_TIMEOUT_ENV);
    assert_eq!(u.liveness_timeout(), Duration::from_secs(7));
    assert_eq!(
        Universe::new(1).liveness_timeout(),
        shrinksvm_mpisim::DEFAULT_LIVENESS_TIMEOUT
    );
}

/// A fault plan survives serialization: text-roundtripped plans inject the
/// exact same fault sequence.
#[test]
fn roundtripped_plan_behaves_identically() {
    let plan = FaultPlan::new(21)
        .drop_messages(ANY, ANY, 0.5, 0.0, FOREVER, u64::MAX)
        .with_max_retries(9);
    let copy = FaultPlan::from_text(&plan.to_text()).expect("roundtrip parses");
    let run_with = |p: FaultPlan| {
        let (out, report) = Universe::new(2).with_faults(p).run_report(|c| {
            if c.rank() == 0 {
                for i in 0..16 {
                    c.send(1, 1, &[i]);
                }
                0
            } else {
                (0..16).map(|_| c.recv(0, 1)[0] as u64).sum::<u64>()
            }
        });
        (out[1].value, out[1].stats, report.to_string())
    };
    assert_eq!(run_with(plan), run_with(copy));
}

/// Faults do not corrupt results even under validation: the full
/// correctness machinery (link order, ledger, conservation) stays clean
/// across a survived fault schedule.
#[test]
fn survived_faults_leave_validation_clean() {
    let plan = FaultPlan::new(22)
        .drop_messages(ANY, ANY, 0.3, 0.0, FOREVER, u64::MAX)
        .with_max_retries(8);
    let (out, report) = Universe::new(4)
        .with_faults(plan)
        .validated()
        .run_report(|c| {
            let v = c.allreduce_u64_sum(1);
            c.barrier();
            v
        });
    assert!(report.is_clean(), "{report}");
    assert!(out.iter().all(|o| o.value == 4));
}

/// Fault events render on a dedicated Chrome-trace track (`tid = tracks +
/// rank`), labeled via thread-name metadata, so Perfetto shows the fault
/// timeline above the rank's compute/comm spans instead of interleaved
/// with them. Regular spans stay on `tid = rank`.
#[test]
fn fault_events_get_a_dedicated_chrome_trace_track() {
    let plan = FaultPlan::new(31).drop_messages(Some(0), Some(1), 1.0, 0.0, FOREVER, 1);
    let (out, _, tl, _) = Universe::new(2)
        .with_faults(plan)
        .with_tracing()
        .run_try_observed(|c| {
            if c.rank() == 0 {
                c.advance_compute(1e-3);
                c.send(1, 5, &[9, 9, 9]);
                vec![]
            } else {
                c.recv(0, 5)
            }
        })
        .expect("single drop is survivable");
    assert_eq!(out[1].value, vec![9, 9, 9]);
    assert_eq!(out[1].stats.retries, 1);

    let json = tl.to_chrome_json();
    // Rank 1 saw the drop: its fault track is tid = tracks + rank = 3,
    // named in the metadata, and both the ledger projection and the
    // retransmit instant live there with cat "fault".
    assert!(
        json.contains("\"tid\":3,\"args\":{\"name\":\"rank 1 faults\"}"),
        "{json}"
    );
    for fault_evt in ["drop(src=0)", "retransmit"] {
        let evt = json
            .split('{')
            .find(|chunk| chunk.contains(fault_evt))
            .unwrap_or_else(|| panic!("no {fault_evt} event in {json}"));
        assert!(evt.contains("\"cat\":\"fault\""), "{evt}");
        assert!(evt.contains("\"tid\":3"), "{evt}");
    }
    // Rank 0 had no faults: no metadata row for its fault track, and its
    // compute span stays on the plain rank track tid = 0.
    assert!(!json.contains("rank 0 faults"), "{json}");
    let compute = json
        .split('{')
        .find(|chunk| chunk.contains("\"compute\"") && chunk.contains("\"ph\":\"X\""))
        .expect("compute span present");
    assert!(compute.contains("\"tid\":0"), "{compute}");
}
