//! Crash flight recorder demonstration — the observability layer's
//! black box, exercised end to end.
//!
//! A seeded chaos run injects probabilistic message drops under a tiny
//! retry budget with a fat retransmission backoff: early drops are
//! survivable (each one bills its backoff as a long receive wait —
//! exactly the straggler/stall evidence the health monitor looks for),
//! until one message exceeds the budget and the run dies with a
//! retry-exhaustion panic. The training never returns a result — but the
//! caller-held [`FlightRecorder`] `Arc` survives the unwind with every
//! rank's last-N events intact, including the terminal
//! `lost(src=…,attempts=…)` diagnostic recorded immediately before the
//! panic.
//!
//! The scenario runs **twice** and the resulting `shrinksvm-flight/v1`
//! dump is asserted byte-identical (everything is simulated time, so the
//! black box is as deterministic as the run it records), then the health
//! analysis is asserted to contain at least one straggler or
//! collective-stall event. Artifacts:
//!
//! * `FLIGHT_flight_recorder.json` — the black box, renderable with
//!   `cargo xtask doctor results/FLIGHT_flight_recorder.json`
//!
//! ```text
//! cargo run --release --example flight_recorder [out_dir]
//! ```

use std::panic;
use std::path::PathBuf;
use std::sync::Arc;

use shrinksvm::prelude::*;
use shrinksvm_core::dist::flight_capacity;
use shrinksvm_datagen::gaussian;
use shrinksvm_obs::flight::FlightRecorder;
use shrinksvm_obs::json;
use shrinksvm_obs::monitor::{self, HealthRule};

/// The injected drops make rank threads die with *expected* panics (the
/// exhausted receive, then its peers' receives from the dead rank).
/// Silence those so the demonstration output is the flight recorder, not
/// a backtrace wall; anything unexpected still reaches the default hook.
fn quiet_expected_panics() {
    let prev = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        let expected = msg.is_some_and(|m| {
            m.contains("retry budget exhausted") || m.contains("can never complete")
        });
        if !expected {
            prev(info);
        }
    }));
}

fn run_once() -> String {
    let ds = gaussian::two_blobs(160, 4, 4.0, 7);
    let params = SvmParams::new(2.0, KernelKind::rbf_from_sigma_sq(1.0)).with_epsilon(1e-3);
    // Two injection rules under a one-retry budget with a fat 0.5 s
    // backoff. The first is a single survivable drop on the 1→0 link:
    // rank 0 absorbs the whole backoff as one dominating recv_wait span —
    // exactly the stall/straggler evidence the monitor flags. The second
    // drops a 2→1 message twice in a row, exhausting the budget: fatal.
    // (At p = 3 the candidate allreduce pairs ranks 1 and 2 and folds
    // rank 0 in through rank 1, so 2→1 carries traffic every iteration.)
    let plan = FaultPlan::new(7)
        .drop_messages(Some(1), Some(0), 1.0, 0.0, f64::INFINITY, 1)
        .drop_messages(Some(2), Some(1), 1.0, 0.4, f64::INFINITY, 2)
        .with_max_retries(1)
        .with_retry_backoff(0.5);
    let flight = Arc::new(FlightRecorder::new(3, flight_capacity()));
    let outcome = panic::catch_unwind(panic::AssertUnwindSafe(|| {
        DistSolver::new(&ds, params)
            .with_processes(3)
            .with_faults(plan)
            .with_flight(Arc::clone(&flight))
            .train()
    }));
    assert!(
        outcome.is_err(),
        "the retry budget must exhaust — this scenario exists to crash"
    );

    let snap = flight.snapshot();
    assert!(!snap.is_empty(), "the black box must not be empty");
    let health = monitor::analyze(&snap.all_events());
    assert!(
        health
            .iter()
            .any(|h| matches!(h.rule, HealthRule::Straggler | HealthRule::CollectiveStall)),
        "expected at least one straggler or collective-stall health event, got: {health:?}"
    );
    assert!(
        snap.all_events().iter().any(|e| matches!(
            e,
            shrinksvm_obs::timeline::Event::Instant { name, .. } if name.starts_with("lost(")
        )),
        "the terminal loss diagnostic must be on the rings"
    );
    snap.to_json("flight_recorder", "retry-budget-exhausted", &health)
}

fn main() {
    quiet_expected_panics();
    let out: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results".into())
        .into();

    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "flight dump must be byte-deterministic");
    json::check(&a).expect("flight JSON well-formed");

    std::fs::create_dir_all(&out).expect("create out dir");
    let path = out.join("FLIGHT_flight_recorder.json");
    std::fs::write(&path, &a).expect("write flight dump");

    println!("flight dump written to {}", path.display());
    println!("health events: {}", a.matches("\"rule\":").count());
    println!("determinism: two same-seed crashes produced byte-identical black boxes ✓");
    println!("render it with: cargo xtask doctor {}", path.display());
}
