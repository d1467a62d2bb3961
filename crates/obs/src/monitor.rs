//! The in-flight health monitor: deterministic watch rules over timeline
//! events.
//!
//! [`analyze`] consumes a flat slice of [`Event`]s — a merged timeline or
//! a flight-recorder window — and evaluates five simulated-time watch
//! rules ([`HealthRule`]): per-rank heartbeat gaps, straggler skew
//! (slowest frontier vs. the median), collective-wait stalls, retransmit
//! storms, and recovery-ladder churn. Every firing becomes a
//! [`HealthEvent`], renderable as a `cat:"health"` timeline instant and
//! serializable into flight recordings.
//!
//! Rules are pure functions of the event slice and fixed thresholds:
//! no wall-clock reads, no unordered iteration, so identical seeds
//! produce identical health verdicts. The thresholds are conservative —
//! a fault-free benchmark run must emit **zero** health events (the
//! bench-diff byte-identity gate depends on it); the rules are tuned to
//! fire on injected-fault pathologies (backoff-inflated receive waits,
//! storming retransmissions, ladder thrash), not on the ordinary skew of
//! a balanced run.

use crate::json::{escape_into, write_f64};
use crate::timeline::Event;

/// Which watch rule fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthRule {
    /// A rank recorded nothing for a large fraction of the run.
    HeartbeatGap,
    /// The slowest rank's event frontier is far beyond the median rank's.
    Straggler,
    /// One collective or p2p wait consumed a large fraction of the run.
    CollectiveStall,
    /// A rank absorbed many retransmissions.
    RetransmitStorm,
    /// The recovery ladder restarted many times in one training run.
    RecoveryChurn,
}

impl HealthRule {
    /// Stable machine-readable key (used in JSON and metric names).
    pub fn key(self) -> &'static str {
        match self {
            HealthRule::HeartbeatGap => "heartbeat_gap",
            HealthRule::Straggler => "straggler",
            HealthRule::CollectiveStall => "collective_stall",
            HealthRule::RetransmitStorm => "retransmit_storm",
            HealthRule::RecoveryChurn => "recovery_churn",
        }
    }
}

/// One watch-rule firing.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthEvent {
    /// The rule that fired.
    pub rule: HealthRule,
    /// The rank the evidence sits on.
    pub track: u32,
    /// Simulated time of the evidence.
    pub t: f64,
    /// Human-readable specifics (durations, counts, span names).
    pub detail: String,
}

impl HealthEvent {
    /// Render as a `cat:"health"` timeline instant.
    pub fn to_instant(&self) -> Event {
        Event::Instant {
            track: self.track,
            name: format!("{}: {}", self.rule.key(), self.detail),
            cat: "health".to_string(),
            t: self.t,
        }
    }

    /// Append as a JSON object (fixed key order).
    pub fn json_into(&self, out: &mut String) {
        out.push_str("{\"rule\":");
        escape_into(out, self.rule.key());
        let _ = {
            use std::fmt::Write as _;
            write!(out, ",\"track\":{}", self.track)
        };
        out.push_str(",\"t\":");
        write_f64(out, self.t);
        out.push_str(",\"detail\":");
        escape_into(out, &self.detail);
        out.push('}');
    }
}

// Thresholds for the watch rules. Fractions are of the observed makespan;
// floors are absolute simulated seconds that keep tiny runs from tripping
// fraction-only rules.

/// Heartbeat rule: a silent stretch longer than this fraction of the
/// makespan fires.
const HEARTBEAT_GAP_FRAC: f64 = 0.6;
/// Heartbeat rule: absolute minimum gap, simulated seconds.
const HEARTBEAT_FLOOR: f64 = 0.01;
/// Straggler rule: slowest frontier must exceed `factor × median`.
const STRAGGLER_FACTOR: f64 = 2.0;
/// Straggler rule: absolute minimum skew, simulated seconds.
const STRAGGLER_FLOOR: f64 = 0.01;
/// Stall rule: one wait span longer than this fraction of the makespan
/// fires.
const STALL_FRAC: f64 = 0.35;
/// Stall rule: absolute minimum duration, simulated seconds.
const STALL_FLOOR: f64 = 0.005;
/// Storm rule: retransmit instants on one rank to fire at.
const RETRANSMIT_STORM: u64 = 3;
/// Churn rule: recovery restarts across the run to fire at.
const RECOVERY_CHURN: u64 = 3;

/// End time of an event (spans end at `t1`, points at their instant).
fn end(e: &Event) -> f64 {
    match *e {
        Event::Span { t1, .. } => t1,
        Event::Instant { t, .. } | Event::Counter { t, .. } => t,
    }
}

/// Whether a rule should look at this event at all: previously emitted
/// health instants are excluded so re-analyzing an annotated timeline is
/// idempotent.
fn watchable(e: &Event) -> bool {
    !matches!(e, Event::Span { cat, .. } | Event::Instant { cat, .. } if cat == "health")
}

/// Evaluate every watch rule over `events` (any order; the rules sort
/// what they need). Returns firings ordered by (time, rank, rule key) —
/// a deterministic total order.
pub fn analyze(events: &[Event]) -> Vec<HealthEvent> {
    let watched: Vec<&Event> = events.iter().filter(|e| watchable(e)).collect();
    if watched.is_empty() {
        return Vec::new();
    }
    let tracks = watched.iter().map(|e| e.track()).max().unwrap_or(0) as usize + 1;
    let makespan = watched.iter().map(|e| end(e)).fold(0.0_f64, f64::max);
    let mut out = Vec::new();

    // Heartbeat gaps: the largest silent stretch between one event's end
    // and the next event's start on the same rank.
    let gap_threshold = (HEARTBEAT_GAP_FRAC * makespan).max(HEARTBEAT_FLOOR);
    for track in 0..tracks as u32 {
        let mut bounds: Vec<(f64, f64)> = watched
            .iter()
            .filter(|e| e.track() == track)
            .map(|e| (e.start(), end(e)))
            .collect();
        if bounds.is_empty() {
            continue;
        }
        bounds.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut frontier = bounds[0].1;
        for &(start, fin) in &bounds[1..] {
            let gap = start - frontier;
            if gap > gap_threshold {
                out.push(HealthEvent {
                    rule: HealthRule::HeartbeatGap,
                    track,
                    t: start,
                    detail: format!("silent for {gap:.6}s of a {makespan:.6}s run"),
                });
            }
            frontier = frontier.max(fin);
        }
    }

    // Straggler skew: per-rank span frontiers vs. the median frontier.
    let mut frontiers: Vec<(u32, f64)> = Vec::new();
    for track in 0..tracks as u32 {
        let frontier = watched
            .iter()
            .filter(|e| e.track() == track && matches!(e, Event::Span { .. }))
            .map(|e| end(e))
            .fold(f64::NEG_INFINITY, f64::max);
        if frontier.is_finite() {
            frontiers.push((track, frontier));
        }
    }
    if frontiers.len() >= 2 {
        let mut sorted: Vec<f64> = frontiers.iter().map(|&(_, f)| f).collect();
        sorted.sort_by(f64::total_cmp);
        // Lower-middle median: with two ranks the faster one is the
        // baseline, so a 2× straggler is still visible.
        let median = sorted[(sorted.len() - 1) / 2];
        for &(track, frontier) in &frontiers {
            if frontier > STRAGGLER_FACTOR * median && frontier - median > STRAGGLER_FLOOR {
                out.push(HealthEvent {
                    rule: HealthRule::Straggler,
                    track,
                    t: frontier,
                    detail: format!(
                        "frontier {frontier:.6}s vs median {median:.6}s ({:.1}x)",
                        frontier / median.max(f64::MIN_POSITIVE)
                    ),
                });
            }
        }
    }

    // Collective-wait stalls: one coll/p2p wait dominating the run.
    let stall_threshold = (STALL_FRAC * makespan).max(STALL_FLOOR);
    for e in &watched {
        if let Event::Span {
            track,
            name,
            cat,
            t0,
            t1,
        } = e
        {
            if (cat == "coll" || cat == "p2p") && t1 - t0 > stall_threshold {
                out.push(HealthEvent {
                    rule: HealthRule::CollectiveStall,
                    track: *track,
                    t: *t1,
                    detail: format!("{name} waited {:.6}s of a {makespan:.6}s run", t1 - t0),
                });
            }
        }
    }

    // Retransmit storms: many retransmissions absorbed by one rank.
    for track in 0..tracks as u32 {
        let mut count = 0u64;
        let mut last = 0.0_f64;
        for e in &watched {
            if let Event::Instant {
                track: tr, name, t, ..
            } = e
            {
                if *tr == track && name == "retransmit" {
                    count += 1;
                    last = last.max(*t);
                }
            }
        }
        if count >= RETRANSMIT_STORM {
            out.push(HealthEvent {
                rule: HealthRule::RetransmitStorm,
                track,
                t: last,
                detail: format!("{count} retransmission(s)"),
            });
        }
    }

    // Recovery churn: ladder restarts across the whole run.
    let mut churn = 0u64;
    let mut last: Option<(u32, f64)> = None;
    for e in &watched {
        if let Event::Instant { track, cat, t, .. } = e {
            if cat == "recovery" {
                churn += 1;
                last = Some(match last {
                    Some((lt, lts)) if lts >= *t => (lt, lts),
                    _ => (*track, *t),
                });
            }
        }
    }
    if churn >= RECOVERY_CHURN {
        let (track, t) = last.unwrap_or((0, makespan));
        out.push(HealthEvent {
            rule: HealthRule::RecoveryChurn,
            track,
            t,
            detail: format!("{churn} recovery step(s) in one training run"),
        });
    }

    out.sort_by(|a, b| {
        a.t.total_cmp(&b.t)
            .then(a.track.cmp(&b.track))
            .then(a.rule.key().cmp(b.rule.key()))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: u32, name: &str, cat: &str, t0: f64, t1: f64) -> Event {
        Event::Span {
            track,
            name: name.to_string(),
            cat: cat.to_string(),
            t0,
            t1,
        }
    }

    fn instant(track: u32, name: &str, cat: &str, t: f64) -> Event {
        Event::Instant {
            track,
            name: name.to_string(),
            cat: cat.to_string(),
            t,
        }
    }

    /// A dense, balanced two-rank run: nothing should fire.
    fn healthy() -> Vec<Event> {
        let mut ev = Vec::new();
        for track in 0..2 {
            for i in 0..10 {
                let t = i as f64 * 0.1;
                ev.push(span(track, "compute", "compute", t, t + 0.06));
                ev.push(span(track, "allreduce", "coll", t + 0.06, t + 0.1));
            }
        }
        ev
    }

    #[test]
    fn healthy_run_emits_nothing() {
        assert_eq!(analyze(&healthy()), Vec::new());
    }

    #[test]
    fn empty_slice_emits_nothing() {
        assert!(analyze(&[]).is_empty());
    }

    #[test]
    fn heartbeat_gap_fires_on_a_silent_stretch() {
        let mut ev = healthy();
        ev.push(span(0, "late", "compute", 4.0, 4.1));
        let health = analyze(&ev);
        assert!(
            health
                .iter()
                .any(|h| h.rule == HealthRule::HeartbeatGap && h.track == 0),
            "{health:?}"
        );
    }

    #[test]
    fn straggler_fires_when_one_frontier_runs_far_ahead() {
        let mut ev = healthy();
        ev.push(span(2, "compute", "compute", 0.0, 0.4));
        ev.push(span(2, "compute", "compute", 0.4, 3.0));
        let health = analyze(&ev);
        let straggler: Vec<_> = health
            .iter()
            .filter(|h| h.rule == HealthRule::Straggler)
            .collect();
        assert_eq!(straggler.len(), 1, "{health:?}");
        assert_eq!(straggler[0].track, 2);
    }

    #[test]
    fn stall_fires_on_one_dominant_wait() {
        let mut ev = healthy();
        ev.push(span(1, "recv_wait", "p2p", 0.0, 0.9));
        let health = analyze(&ev);
        assert!(
            health
                .iter()
                .any(|h| h.rule == HealthRule::CollectiveStall && h.detail.contains("recv_wait")),
            "{health:?}"
        );
    }

    #[test]
    fn retransmit_storm_counts_per_rank() {
        let mut ev = healthy();
        for i in 0..3 {
            ev.push(instant(1, "retransmit", "fault", 0.2 + 0.1 * i as f64));
        }
        // two on rank 0: below threshold
        ev.push(instant(0, "retransmit", "fault", 0.2));
        ev.push(instant(0, "retransmit", "fault", 0.3));
        let health = analyze(&ev);
        let storms: Vec<_> = health
            .iter()
            .filter(|h| h.rule == HealthRule::RetransmitStorm)
            .collect();
        assert_eq!(storms.len(), 1, "{health:?}");
        assert_eq!(storms[0].track, 1);
    }

    #[test]
    fn recovery_churn_counts_across_the_run() {
        let mut ev = healthy();
        for i in 0..3 {
            ev.push(instant(0, "recovery_restart", "recovery", 0.1 * i as f64));
        }
        let health = analyze(&ev);
        assert!(
            health.iter().any(|h| h.rule == HealthRule::RecoveryChurn),
            "{health:?}"
        );
    }

    #[test]
    fn previously_emitted_health_instants_are_ignored() {
        let mut ev = healthy();
        ev.push(instant(0, "straggler: x", "health", 5.0));
        assert!(analyze(&ev).is_empty());
    }

    #[test]
    fn output_order_is_deterministic() {
        let mut ev = healthy();
        ev.push(span(1, "recv_wait", "p2p", 0.0, 0.9));
        for i in 0..3 {
            ev.push(instant(1, "retransmit", "fault", 0.2 + 0.1 * i as f64));
        }
        let a = analyze(&ev);
        ev.reverse();
        let b = analyze(&ev);
        assert_eq!(a, b);
    }

    #[test]
    fn to_instant_carries_the_health_category() {
        let h = HealthEvent {
            rule: HealthRule::Straggler,
            track: 3,
            t: 1.5,
            detail: "test".into(),
        };
        match h.to_instant() {
            Event::Instant {
                track,
                name,
                cat,
                t,
            } => {
                assert_eq!((track, t), (3, 1.5));
                assert_eq!(cat, "health");
                assert!(name.starts_with("straggler:"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let h = HealthEvent {
            rule: HealthRule::CollectiveStall,
            track: 1,
            t: 0.5,
            detail: "recv_wait waited 0.4s".into(),
        };
        let mut out = String::new();
        h.json_into(&mut out);
        assert_eq!(
            out,
            "{\"rule\":\"collective_stall\",\"track\":1,\"t\":0.5,\"detail\":\"recv_wait waited 0.4s\"}"
        );
        crate::json::check(&out).unwrap();
    }
}
