//! `shrinkbench`: the end-to-end and per-layer benchmark of shrinksvm.
//!
//! Four workloads ([`workload::Workload::all`]) each train the paper's
//! distributed solver on a generated dataset and predict a held-out split,
//! as a user of the library would. One run measures one workload:
//!
//! * untraced ([`run::measure`]): the end-to-end metrics of
//!   [`spec::END_TO_END`] — host set-up and training wall time, prediction
//!   throughput, the modeled (simulated LogGP) makespan, iterations, test
//!   accuracy and peak memory;
//! * traced ([`traced::measure`]): the per-layer metrics of
//!   [`spec::PER_LAYER`], from micro-probes of the public layer calls and
//!   from a `DistSolver::with_tracing` run, plus `PERF_<workload>.json`
//!   (the PerfDoctor report) and `TRACE_<workload>.json` (a Chrome trace
//!   of the benchmark's own spans around every layer call).
//!
//! Every run also checks its outputs ([`outcome::Outcome::failed`]): a
//! converged, 2ε-optimal solution, byte-identical models for identical
//! inputs, and bit-identical predictions after a model write→read.

// allow-wall-clock: the repository bans host-clock reads in simulated code;
// reading the host clock is what a benchmark is for.
#![allow(clippy::disallowed_methods)]

pub mod host;
pub mod outcome;
pub mod probes;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod traced;
pub mod workload;
