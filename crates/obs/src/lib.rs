//! `shrinksvm-obs`: dependency-free telemetry for the shrinksvm workspace.
//!
//! Five pieces, all keyed on *simulated* time so identical seeds produce
//! byte-identical artifacts:
//!
//! - [`timeline`] — a per-rank span/event timeline ([`TrackRecorder`],
//!   [`Timeline`]) exported as Chrome trace-event JSON (Perfetto /
//!   `chrome://tracing` loadable) or a plain-text per-rank listing.
//! - [`critpath`] — the cross-rank dependency log ([`DepLog`]) recorded
//!   alongside the timeline, its bit-exact identity replay, the exact
//!   critical-path walk and what-if projections.
//! - [`attrib`] — five-bucket makespan attribution and the [`PerfDoctor`]
//!   text + JSON report built on the replay.
//! - [`metrics`] — a [`MetricsRegistry`] of counters, gauges, fixed-bucket
//!   histograms and epoch-keyed sample series with a deterministic text
//!   snapshot.
//! - [`report`] — [`BenchReport`], the machine-readable `BENCH_<name>.json`
//!   summary every benchmark run emits.
//! - [`monitor`] — deterministic in-flight watch rules ([`monitor::analyze`])
//!   that turn timeline events into `cat:"health"` [`HealthEvent`]s:
//!   heartbeat gaps, straggler skew, collective-wait stalls, retransmit
//!   storms and recovery churn.
//! - [`flight`] — the crash [`FlightRecorder`]: a bounded per-rank ring of
//!   the last N events that survives rank panics and serializes as
//!   `FLIGHT_<name>.json` (schema [`FLIGHT_SCHEMA`]).
//! - [`profile`] — hierarchical self/total-time [`Profile`]s (phase → op
//!   → charge class) reconciled against the attribution buckets, exported
//!   as collapsed-stack text, a self-contained flame-graph SVG and JSON
//!   (`PROFILE_<name>.*`, schema [`PROFILE_SCHEMA`]).
//! - [`perfdiff`] — differential attribution ([`PerfDiff`]): decompose
//!   the makespan delta between two PerfDoctor reports into per-bucket
//!   and per-op gains/losses plus what-if shifts.
//! - [`perfhist`] — the cross-run perf-history ledger ([`HistoryRow`]):
//!   append-only JSONL makespan trajectory with a text sparkline and a
//!   regression gate.
//!
//! [`json`] holds the shared hand-rolled JSON writer helpers, a strict
//! well-formedness checker used by tests and CI to validate emitted
//! documents, and a small parser ([`json::parse`]) used by the
//! `bench-diff` regression gate — all without external dependencies.

pub mod attrib;
pub mod critpath;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod monitor;
pub mod perfdiff;
pub mod perfhist;
pub mod profile;
pub mod report;
pub mod timeline;

pub use attrib::{Attribution, PerfDoctor, RankBuckets, PERF_SCHEMA};
pub use critpath::{CriticalPath, DepEvent, DepLog, DepRecorder, Hop, HopKind, Projections};
pub use flight::{
    FlightRecorder, FlightSnapshot, RankFlight, DEFAULT_FLIGHT_CAPACITY, FLIGHT_SCHEMA,
};
pub use metrics::{Histogram, MetricsRegistry};
pub use monitor::{HealthEvent, HealthRule};
pub use perfdiff::{OpDelta, PerfDiff, PERFDIFF_SCHEMA};
pub use perfhist::{
    gate_against_tail, parse_ledger, render_history, sparkline, HistoryRow, PERF_HISTORY_SCHEMA,
};
pub use profile::{xml_check, Profile, ProfileNode, PROFILE_SCHEMA};
pub use report::{BenchReport, BENCH_SCHEMA_VERSION};
pub use timeline::{Event, Timeline, TrackRecorder};
