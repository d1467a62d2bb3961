//! An OpenMP-analog shared-memory runtime.
//!
//! The paper enhances libsvm with OpenMP `parallel for` loops over the
//! gradient-update and kernel-row computations (§V-A) and uses that as the
//! single-node baseline. This crate is our from-scratch equivalent: a small
//! fork-join runtime offering `parallel for` with *static* and *dynamic*
//! scheduling, slice partitioning and part-ordered results, built directly on
//! [`std::thread::scope`] so borrowed data can be captured exactly like an
//! OpenMP region captures its enclosing scope.
//!
//! The pool is deliberately simple — no work stealing, no persistent
//! workers — because the consumers are long, regular loops (one gradient
//! update per sample) where chunked static scheduling is what OpenMP would
//! pick too, and because spawn overhead (~10 µs/thread) is negligible
//! against the millisecond-scale loop bodies it parallelizes.

pub mod pool;
pub mod schedule;
pub mod stats;

pub use pool::ThreadPool;
pub use schedule::Schedule;
pub use stats::PoolStats;
