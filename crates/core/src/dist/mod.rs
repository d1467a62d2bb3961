//! The distributed solver — the paper's contribution.
//!
//! * [`partition`] — contiguous block ownership of samples by rank,
//! * [`msg`] — wire encodings for the pivot samples the candidate
//!   allreduce carries (Algorithm 2 lines 3–9) and the ring SV blocks
//!   (Algorithm 3),
//! * [`solver`] — the per-rank training program: Algorithm 2 (*Original*),
//!   Algorithm 4 (single reconstruction) and Algorithm 5 (multiple
//!   reconstruction), selected by the [`crate::shrink::ShrinkPolicy`],
//! * [`convergence`] — online convergence telemetry: KKT-gap slope,
//!   active-set shrink velocity and a warmup/shrinking/plateau/polish
//!   phase classifier, published as epoch series (no communication),
//! * [`recon`] — distributed gradient reconstruction (Algorithm 3),
//! * [`checkpoint`] — multi-generation, checksummed consistent-checkpoint
//!   store for crash recovery, and the snapshot cadence
//!   ([`CheckpointPolicy`]),
//! * [`recovery`] — the degradation ladder: escalating crash-recovery
//!   policy (older generations → fewer ranks → give up), the one place
//!   recovery is configured ([`RecoveryPolicy`]) and reported
//!   ([`RecoverySummary`]),
//! * [`driver`] — [`DistSolver`]: launches a `mpisim` universe, runs the
//!   per-rank program on every rank, merges the outcomes, and recovers
//!   from injected rank crashes via the checkpoint store and the ladder.

pub mod checkpoint;
pub mod convergence;
pub mod driver;
pub mod msg;
pub mod partition;
pub mod recon;
pub mod recovery;
pub mod solver;

pub use checkpoint::{
    Checkpoint, CheckpointPolicy, CheckpointStore, RankSnapshot, RestoreScan,
    DEFAULT_KEEP_GENERATIONS,
};
pub use convergence::{ConvergencePhase, ConvergenceTracker};
pub use driver::{flight_capacity, DistRunResult, DistSolver};
pub use recovery::{LadderAction, RecoveryLadder, RecoveryPolicy, RecoverySummary};
pub use solver::{metrics_epoch, train_rank, DistConfig, DotKind, RankOutput};
