//! The crash flight recorder: a bounded, deterministic ring buffer of the
//! last N timeline events per rank.
//!
//! The tracing pipeline in `mpisim` buffers each rank's events inside the
//! rank thread and only merges them after a *successful* join — so when a
//! run dies (retry-budget exhaustion, deadlock diagnosis, liveness
//! timeout), the panicking rank's buffer unwinds with it and the timeline
//! is never built. The [`FlightRecorder`] is the black box that survives:
//! ranks mirror every event into a shared, per-rank ring at record time,
//! and the driver holds its own `Arc` clone, so the last moments of every
//! rank are still readable after the unwind.
//!
//! Rings are bounded (default [`DEFAULT_FLIGHT_CAPACITY`] events per rank)
//! and strictly per-rank: each ring is only ever written by its own rank
//! thread, so the retained window is a pure function of that rank's event
//! sequence — byte-deterministic for identical seeds regardless of OS
//! scheduling. A [`FlightSnapshot`] serializes as schema
//! [`FLIGHT_SCHEMA`] (`FLIGHT_<name>.json`) with the triggering reason and
//! any health events attached.

use crate::json::{escape_into, write_f64};
use crate::monitor::HealthEvent;
use crate::timeline::Event;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Schema tag written into every flight recording.
pub const FLIGHT_SCHEMA: &str = "shrinksvm-flight/v1";

/// Default ring capacity: events retained per rank.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 64;

/// One rank's bounded event window.
#[derive(Debug, Default)]
struct FlightRing {
    events: VecDeque<Event>,
    dropped: u64,
}

/// A shared, panic-surviving recorder of the last N events per rank.
///
/// Cloneable via `Arc`; each rank writes only its own ring, so lock
/// contention is nil and the retained windows are deterministic.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    rings: Vec<Mutex<FlightRing>>,
}

impl FlightRecorder {
    /// A recorder for `ranks` ranks retaining `capacity` events each.
    /// A zero capacity is clamped to 1 (an empty black box records
    /// nothing, which defeats the point).
    pub fn new(ranks: usize, capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            rings: (0..ranks)
                .map(|_| Mutex::new(FlightRing::default()))
                .collect(),
        }
    }

    /// Events retained per rank.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of rank rings.
    pub fn ranks(&self) -> usize {
        self.rings.len()
    }

    /// Mirror one event into its rank's ring (the rank is the event's
    /// track). Events on tracks beyond the ring set are ignored.
    pub fn record(&self, event: Event) {
        let Some(ring) = self.rings.get(event.track() as usize) else {
            return;
        };
        let mut ring = ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// Copy out every ring's current window.
    pub fn snapshot(&self) -> FlightSnapshot {
        FlightSnapshot {
            capacity: self.capacity,
            ranks: self
                .rings
                .iter()
                .map(|ring| {
                    let ring = ring
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    RankFlight {
                        events: ring.events.iter().cloned().collect(),
                        dropped: ring.dropped,
                    }
                })
                .collect(),
        }
    }
}

/// One rank's snapshotted window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankFlight {
    /// The retained events, oldest first.
    pub events: Vec<Event>,
    /// Events that aged out of the ring before the snapshot.
    pub dropped: u64,
}

/// A point-in-time copy of every rank's ring, ready to serialize.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlightSnapshot {
    /// Ring capacity the recorder ran with.
    pub capacity: usize,
    /// Per-rank windows, indexed by rank.
    pub ranks: Vec<RankFlight>,
}

/// Append one timeline event as a JSON object.
fn event_json(out: &mut String, e: &Event) {
    match e {
        Event::Span {
            name, cat, t0, t1, ..
        } => {
            out.push_str("{\"kind\":\"span\",\"name\":");
            escape_into(out, name);
            out.push_str(",\"cat\":");
            escape_into(out, cat);
            out.push_str(",\"t0\":");
            write_f64(out, *t0);
            out.push_str(",\"t1\":");
            write_f64(out, *t1);
            out.push('}');
        }
        Event::Instant { name, cat, t, .. } => {
            out.push_str("{\"kind\":\"instant\",\"name\":");
            escape_into(out, name);
            out.push_str(",\"cat\":");
            escape_into(out, cat);
            out.push_str(",\"t\":");
            write_f64(out, *t);
            out.push('}');
        }
        Event::Counter { name, t, value, .. } => {
            out.push_str("{\"kind\":\"counter\",\"name\":");
            escape_into(out, name);
            out.push_str(",\"t\":");
            write_f64(out, *t);
            out.push_str(",\"value\":");
            write_f64(out, *value);
            out.push('}');
        }
    }
}

impl FlightSnapshot {
    /// Every retained event across all ranks, rank-major — the slice the
    /// health rules analyze post-mortem.
    pub fn all_events(&self) -> Vec<Event> {
        self.ranks
            .iter()
            .flat_map(|r| r.events.iter().cloned())
            .collect()
    }

    /// Total retained events.
    pub fn len(&self) -> usize {
        self.ranks.iter().map(|r| r.events.len()).sum()
    }

    /// Whether no rank retained anything.
    pub fn is_empty(&self) -> bool {
        self.ranks.iter().all(|r| r.events.is_empty())
    }

    /// Serialize as a `FLIGHT_<name>.json` document (schema
    /// [`FLIGHT_SCHEMA`]): run name, the terminating `reason`, ring
    /// capacity, the post-mortem health events, then every rank's window
    /// oldest-first. Fixed key order, written with the byte-deterministic
    /// JSON helpers.
    pub fn to_json(&self, name: &str, reason: &str, health: &[HealthEvent]) -> String {
        let mut out = String::with_capacity(256 + self.len() * 96);
        out.push_str("{\"schema\":");
        escape_into(&mut out, FLIGHT_SCHEMA);
        out.push_str(",\"name\":");
        escape_into(&mut out, name);
        out.push_str(",\"reason\":");
        escape_into(&mut out, reason);
        let _ = {
            use std::fmt::Write as _;
            write!(out, ",\"capacity\":{}", self.capacity)
        };
        out.push_str(",\"health\":[");
        for (i, h) in health.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            h.json_into(&mut out);
        }
        out.push_str("],\"ranks\":[");
        for (rank, rf) in self.ranks.iter().enumerate() {
            if rank > 0 {
                out.push(',');
            }
            let _ = {
                use std::fmt::Write as _;
                write!(
                    out,
                    "{{\"rank\":{rank},\"dropped\":{},\"events\":[",
                    rf.dropped
                )
            };
            for (i, e) in rf.events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                event_json(&mut out, e);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Render as plain text lines (one per retained event, prefixed by
    /// rank) for embedding into a `ValidationReport` — the same
    /// fixed-precision format the timeline text renderer uses.
    pub fn render_lines(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(self.len() + self.ranks.len());
        for (rank, rf) in self.ranks.iter().enumerate() {
            if rf.dropped > 0 {
                lines.push(format!(
                    "rank {rank}: ... {} earlier event(s) aged out",
                    rf.dropped
                ));
            }
            for e in &rf.events {
                match e {
                    Event::Span {
                        name, cat, t0, t1, ..
                    } => lines.push(format!(
                        "rank {rank}: [{t0:.9}s +{:.9}s] {cat:<8} {name}",
                        t1 - t0
                    )),
                    Event::Instant { name, cat, t, .. } => {
                        lines.push(format!(
                            "rank {rank}: [{t:.9}s           !] {cat:<8} {name}"
                        ));
                    }
                    Event::Counter { name, t, value, .. } => lines.push(format!(
                        "rank {rank}: [{t:.9}s           #] counter  {name} = {value}"
                    )),
                }
            }
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::check;
    use crate::monitor::{HealthEvent, HealthRule};

    fn span(track: u32, name: &str, t0: f64, t1: f64) -> Event {
        Event::Span {
            track,
            name: name.to_string(),
            cat: "compute".to_string(),
            t0,
            t1,
        }
    }

    #[test]
    fn ring_retains_the_newest_events() {
        let fr = FlightRecorder::new(1, 3);
        for i in 0..5 {
            fr.record(span(0, &format!("e{i}"), i as f64, i as f64 + 0.5));
        }
        let snap = fr.snapshot();
        assert_eq!(snap.ranks[0].dropped, 2);
        let names: Vec<&str> = snap.ranks[0]
            .events
            .iter()
            .map(|e| match e {
                Event::Span { name, .. } => name.as_str(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, ["e2", "e3", "e4"]);
    }

    #[test]
    fn out_of_range_tracks_are_ignored() {
        let fr = FlightRecorder::new(2, 4);
        fr.record(span(7, "ghost", 0.0, 1.0));
        assert!(fr.snapshot().is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let fr = FlightRecorder::new(1, 0);
        assert_eq!(fr.capacity(), 1);
        fr.record(span(0, "a", 0.0, 1.0));
        fr.record(span(0, "b", 1.0, 2.0));
        assert_eq!(fr.snapshot().ranks[0].events.len(), 1);
    }

    #[test]
    fn json_is_well_formed_and_schema_tagged() {
        let fr = FlightRecorder::new(2, 4);
        fr.record(span(0, "compute", 0.0, 1.5));
        fr.record(Event::Instant {
            track: 1,
            name: "retransmit".into(),
            cat: "fault".into(),
            t: 0.25,
        });
        fr.record(Event::Counter {
            track: 1,
            name: "active_set".into(),
            t: 0.5,
            value: 12.0,
        });
        let health = vec![HealthEvent {
            rule: HealthRule::RetransmitStorm,
            track: 1,
            t: 0.25,
            detail: "3 retransmissions".into(),
        }];
        let doc = fr
            .snapshot()
            .to_json("unit", "retry budget exhausted", &health);
        check(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
        assert!(doc.contains("\"schema\":\"shrinksvm-flight/v1\""));
        assert!(doc.contains("\"reason\":\"retry budget exhausted\""));
        assert!(doc.contains("\"rule\":\"retransmit_storm\""));
        assert!(doc.contains("\"kind\":\"counter\""));
    }

    #[test]
    fn snapshots_are_deterministic_across_identical_sequences() {
        let run = || {
            let fr = FlightRecorder::new(2, 3);
            for i in 0..6 {
                fr.record(span(
                    (i % 2) as u32,
                    &format!("e{i}"),
                    i as f64,
                    i as f64 + 1.0,
                ));
            }
            fr.snapshot().to_json("det", "test", &[])
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn render_lines_mention_aged_out_events() {
        let fr = FlightRecorder::new(1, 2);
        for i in 0..4 {
            fr.record(span(0, &format!("e{i}"), i as f64, i as f64 + 1.0));
        }
        let lines = fr.snapshot().render_lines();
        assert!(
            lines[0].contains("2 earlier event(s) aged out"),
            "{lines:?}"
        );
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn flight_snapshot_feeds_health_analysis() {
        let fr = FlightRecorder::new(2, 8);
        for i in 0..4 {
            fr.record(Event::Instant {
                track: 1,
                name: "retransmit".into(),
                cat: "fault".into(),
                t: 0.1 * (i + 1) as f64,
            });
        }
        let health = crate::monitor::analyze(&fr.snapshot().all_events());
        assert!(
            health.iter().any(|h| h.rule == HealthRule::RetransmitStorm),
            "{health:?}"
        );
    }
}
