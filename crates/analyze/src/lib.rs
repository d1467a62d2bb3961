//! Communication-correctness analyses for message-passing programs.
//!
//! The simulated-MPI substrate (`shrinksvm-mpisim`) runs the paper's
//! distributed solver at up to thousands of ranks, and the paper's whole
//! claim is that shrinking plus gradient reconstruction stays *exact* under
//! that communication pattern. This crate holds the machinery that proves a
//! run was communication-correct — the role TSan/MUST play for real MPI
//! programs:
//!
//! - [`ledger::CollectiveLedger`] — a per-universe ledger of collective
//!   fingerprints that catches rank-divergent collective sequences (the
//!   classic mismatched-`Bcast`/`Allreduce` bug) at the first divergent
//!   operation.
//! - [`waitfor::WaitForGraph`] — per-rank blocking state with cycle
//!   diagnosis, so a communication deadlock is reported immediately with a
//!   full per-rank wait report instead of a wall-clock timeout.
//! - [`report::ValidationReport`] — finalize-time findings: unreceived
//!   messages, never-matched buffered messages and tag-discipline
//!   breaches.
//! - [`fault::FaultEvent`] — the fault-injection ledger: when the
//!   substrate runs under a fault plan, every injected fault and every
//!   transport recovery action is recorded here and rendered with the
//!   report, deterministically ordered.
//!
//! The crate is dependency-free and knows nothing about threads or
//! channels: the substrate feeds it events and asks for verdicts, which
//! keeps every analysis deterministic and unit-testable in isolation.

pub mod fault;
pub mod ledger;
pub mod report;
pub mod waitfor;

pub use fault::FaultEvent;
pub use ledger::{CollectiveDivergence, CollectiveKind, CollectiveLedger, Fingerprint};
pub use report::{ValidationReport, Violation};
pub use waitfor::{DeadlockReport, RankState, WaitEdge, WaitForGraph};
