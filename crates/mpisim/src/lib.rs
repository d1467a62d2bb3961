//! An MPI-like message-passing substrate for single-host simulation of
//! distributed-memory algorithms.
//!
//! The paper's solver is an MPI program (MVAPICH2 on InfiniBand FDR); Rust
//! has no mature MPI binding, and this reproduction must run on one host
//! anyway. So we build the substrate: every *rank* is an OS thread with an
//! unbounded inbox that every rank (itself included) can post to, and the
//! primitives the paper uses — `Send`/`Recv`, `Isend`/`Irecv`/`Waitall`,
//! `Bcast` (binomial tree), `Allreduce` (recursive doubling, including
//! MINLOC/MAXLOC), `Barrier` (dissemination) and a ring shift — are
//! implemented *on top of the point-to-point layer*, exactly the way an MPI
//! library implements them.
//!
//! ## Simulated time
//!
//! Real wall-clock time on a single host says nothing about scaling, so the
//! substrate carries a LogGP-style cost model ([`CostParams`]): each rank
//! owns a simulated clock; every message departs stamped with the sender's
//! clock and the receiver advances to
//! `max(own, depart + latency + bytes·G)`. Compute is charged explicitly via
//! [`Comm::advance_compute`]. Because the collectives are built from
//! point-to-point messages, their `O(log p)` critical paths *emerge* from
//! the simulation rather than being asserted — the same trees an MPI
//! implementation would use produce the same time structure.
//!
//! ## Example
//!
//! ```
//! use shrinksvm_mpisim::{CostParams, Universe};
//!
//! let outcomes = Universe::new(4).with_cost(CostParams::fdr()).run(|comm| {
//!     let local = (comm.rank() + 1) as f64;
//!     comm.allreduce_f64_sum(local)
//! });
//! assert!(outcomes.iter().all(|o| o.value == 10.0));
//! ```

//! ## Correctness tooling
//!
//! A wait-for-graph deadlock verdict is always on. Delivery and blocking
//! share one lock with every rank's wait-for state. A receive that finds
//! its link empty yields its core a bounded number of times, still
//! running, before it parks; the park that leaves no rank running (or a
//! receive from a rank that already finished) fails at once, with a
//! per-rank report naming ranks, sources and tags.
//! Every receiver also checks, on every run, that the messages it takes off
//! a link carry the sender's link sequence numbers 0, 1, 2, … in order; a
//! reordered, duplicated or lost message panics as a transport bug.
//! [`Universe::validated`] additionally enables a collective lockstep
//! ledger, user-tag discipline, and finalize-time message conservation;
//! [`Universe::run_report`] returns the [`ValidationReport`].
//!
//! ## Fault injection
//!
//! [`Universe::with_faults`] installs a [`FaultPlan`] — a seeded,
//! serializable schedule of message drops, corruptions and delays, rank
//! crashes and slowdowns, all keyed on simulated time. The transport
//! survives drops and (checksum-detected) corruptions with bounded
//! exponential-backoff retransmission; every injected fault is recorded in
//! [`CommStats`] and in the report's fault ledger. Injected crashes
//! surface as recoverable [`CrashNotice`] values via
//! [`Universe::run_try`].
//!
//! ## Tracing
//!
//! [`Universe::with_tracing`] records a simulated-time [`Timeline`]: every
//! rank's track carries spans for compute charges, collectives and p2p
//! receive waits, plus instant markers for retransmissions and every
//! injected fault from the ledger. [`Universe::run_observed`] /
//! [`Universe::run_try_observed`] return the merged timeline, exportable
//! as Chrome trace-event JSON (Perfetto-loadable) or a plain-text
//! per-rank listing. Programs add their own phases via
//! [`Comm::trace_span`] / [`Comm::trace_mark`] / [`Comm::trace_counter`].
//! Every timestamp comes off the simulated clock, so identical seeds
//! render byte-identical traces.

pub mod collectives;
pub mod comm;
pub mod cost;
pub mod env;
pub mod fabric;
pub mod fault;
pub mod reduce;
pub mod stats;
pub mod universe;

pub use collectives::minloc_maxloc_len;
pub use comm::{Comm, Request};
pub use cost::CostParams;
pub use env::{env_u64, EnvVarError};
pub use fault::{CkptRule, CrashNotice, FaultPlan, LinkFault, LinkRule, RankFault, RankRule};
pub use reduce::{MaxLoc, MinLoc};
pub use shrinksvm_analyze::{FaultEvent, ValidationReport, Violation};
pub use shrinksvm_obs::critpath::{DepEvent, DepLog};
pub use shrinksvm_obs::timeline::{Event as TraceEvent, Timeline, TrackRecorder};
pub use shrinksvm_obs::{PerfDoctor, Profile};
pub use stats::CommStats;
pub use universe::{
    profile_observed, ObservedRun, RankOutcome, Universe, DEFAULT_LIVENESS_TIMEOUT,
    LIVENESS_TIMEOUT_ENV,
};

/// User-visible tags must stay below this bound; higher tag space is
/// reserved for collectives.
pub const MAX_USER_TAG: u64 = 1 << 32;
