//! The per-rank distributed training program.
//!
//! One function — [`train_rank`] — runs on every rank of a `mpisim`
//! universe and implements, depending on the
//! [`crate::shrink::ShrinkPolicy`]:
//!
//! * **Algorithm 2** (*Original*): no shrinking; every sample's gradient is
//!   updated every iteration.
//! * **Algorithm 4** (*Single*): shrinking with one gradient
//!   reconstruction — converge the active set to `2ε`, reconstruct,
//!   disable shrinking (`δ_c ← ∞`), converge again.
//! * **Algorithm 5** (*Multi*): converge the active set to `20ε`,
//!   reconstruct, then repeat converge-at-`2ε`/reconstruct (shrinking stays
//!   armed) until optimality survives a reconstruction.
//!
//! Determinism: all cross-rank agreement goes through MINLOC/MAXLOC
//! reductions with index tie-breaks — the winners' samples ride the same
//! fused round — and every rank evaluates the same
//! floating-point expressions on the same values — so the iterate
//! trajectory is **bit-identical for every process count** up to the
//! first gradient reconstruction (for *Original*, the entire run), which
//! the integration tests assert. Reconstruction accumulates the ring
//! blocks in rank order, whose floating-point associativity depends on
//! `p`; after it, trajectories may diverge at rounding level while every
//! one still terminates at a `2ε`-optimal solution of the same dual —
//! the paper's "accuracy remains intact" claim.

use std::sync::{Arc, OnceLock};

use shrinksvm_mpisim::{Comm, MaxLoc, MinLoc};
use shrinksvm_obs::MetricsRegistry;
use shrinksvm_sparse::{ops, ColumnMajor, Dataset, RowView};
use shrinksvm_threads::schedule::static_block;

use crate::cache::{KernelCache, Lookup};
use crate::dist::checkpoint::{Checkpoint, CheckpointCtx, RankSnapshot};
use crate::dist::convergence::ConvergenceTracker;
use crate::dist::msg::PairSample;
use crate::dist::partition::Partition;
use crate::dist::recon;
use crate::error::CoreError;
use crate::kernel::KernelKind;
use crate::model::SvmModel;
use crate::params::SvmParams;
use crate::perfmodel::ComputeCharge;
use crate::shrink::{shrinkable, ReconPolicy, ShrinkPolicy, SubsequentPolicy};
use crate::smo::state::{bound_tol, classify, in_low_set, in_up_set, IndexSet};
use crate::smo::update::solve_pair_weighted;
use crate::trace::RankTrace;

/// Default solver telemetry cadence: the KKT gap is sampled into the
/// metrics registry once per this many iterations (an "epoch"), keyed on
/// the iteration counter — never wall time.
pub const METRICS_EPOCH: u64 = 256;

/// Effective telemetry cadence: `SHRINKSVM_METRICS_EPOCH` when set
/// (clamped to ≥ 1), else [`METRICS_EPOCH`]. Read once per process and
/// cached — the cadence must not change mid-run, and every rank must
/// agree on it.
///
/// Panics with a named diagnosis when the override is set to a
/// non-numeric value — a misconfigured knob must not silently fall back
/// to the default.
pub fn metrics_epoch() -> u64 {
    static CACHE: OnceLock<u64> = OnceLock::new();
    *CACHE.get_or_init(
        || match shrinksvm_mpisim::env_u64("SHRINKSVM_METRICS_EPOCH") {
            Ok(Some(v)) => v.max(1),
            Ok(None) => METRICS_EPOCH,
            Err(e) => panic!("{e}"),
        },
    )
}

/// Sparse dot-product implementation used by the gradient-update hot path.
///
/// Both produce **bit-identical** kernel values: the sparse product adds
/// exactly the merge-join's products in the same ascending column order
/// (see [`shrinksvm_sparse::ColumnMajor::dots_into`]), and the post-dot
/// arithmetic is shared through [`KernelKind::eval_from_dot`]. They also
/// charge the modeled clock differently: the merge-join walks
/// `nnz_i + nnz_pivot` entries per row, while `Scatter` is priced as a
/// scatter/gather — one `scatter_setup(nnz_pivot)` per pivot plus λ per
/// stored entry of every row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DotKind {
    /// Two-pointer merge over both rows' column lists (the pre-optimization
    /// path, kept for A/B benchmarking and as the identity reference).
    MergeJoin,
    /// Priced as a scatter of the pivot and a gather per row. The host runs
    /// one sparse product per kernel column over a column-major copy of the
    /// rows ([`ColumnMajor`]), which multiplies only the entries a row
    /// shares with the pivot.
    #[default]
    Scatter,
}

/// One kernel column for [`RankState::fill_pivot_row`]:
/// `out[k] = K(x_{rows[k]}, pivot)`.
pub(crate) struct Column<'p, 'o> {
    pub(crate) pivot: RowView<'p>,
    pub(crate) pivot_sq: f64,
    pub(crate) out: &'o mut [f64],
}

/// A pivot whose kernel row over the active span the sweep needs.
struct PivotRequest<'r> {
    gidx: u64,
    row: RowView<'r>,
    sq: f64,
}

impl<'r> PivotRequest<'r> {
    /// The pivot's row, requested when its coefficient is nonzero.
    fn when_nonzero(coef: f64, gidx: u64, sample: &'r PairSample) -> Option<Self> {
        (coef != 0.0).then(|| PivotRequest {
            gidx,
            row: sample.row(),
            sq: sample.sq_norm,
        })
    }

    fn column<'o>(&self, out: &'o mut [f64]) -> Column<'r, 'o> {
        Column {
            pivot: self.row,
            pivot_sq: self.sq,
            out,
        }
    }
}

/// One acquired pivot row and what acquiring it charged:
/// see [`RankState::acquire_pivot_rows`].
struct PivotRow {
    row: Arc<Vec<f64>>,
    cost: f64,
    evals: u64,
}

/// Distributed-run configuration.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Hyper-parameters (including the shrinking policy). A nonzero
    /// [`SvmParams::cache_bytes`] enables the per-rank kernel row cache.
    pub params: SvmParams,
    /// Compute charges applied to the simulated clocks.
    pub charge: ComputeCharge,
    /// Periodic checkpointing (shared store + cadence); `None` disables.
    pub checkpoint: Option<CheckpointCtx>,
    /// Consistent checkpoint to resume from instead of a cold start.
    pub resume: Option<Arc<Checkpoint>>,
    /// Modeled intra-rank lanes (the paper's hybrid MPI+OpenMP layout):
    /// every kernel-column fill splits its rows into this many static
    /// lanes and charges the slowest one. The lanes run inline on the rank's
    /// own thread, so results are bit-identical at every count; clamped to
    /// ≥ 1.
    pub threads: usize,
    /// Dot-product implementation for the hot path.
    pub dots: DotKind,
}

impl DistConfig {
    /// Config with default compute charges, scatter dots, one intra-rank
    /// lane and no checkpointing.
    pub fn new(params: SvmParams) -> Self {
        DistConfig {
            params,
            charge: ComputeCharge::default(),
            checkpoint: None,
            resume: None,
            threads: 1,
            dots: DotKind::default(),
        }
    }
}

/// What one rank hands back to the driver.
#[derive(Clone, Debug)]
pub struct RankOutput {
    /// The (globally identical) trained model.
    pub model: SvmModel,
    /// Total SMO iterations.
    pub iterations: u64,
    /// Whether optimality was reached within the iteration budget.
    pub converged: bool,
    /// Final `β_low − β_up`.
    pub final_gap: f64,
    /// This rank's trace fragment.
    pub trace: RankTrace,
    /// Simulated seconds spent inside gradient reconstruction.
    pub recon_sim_time: f64,
    /// This rank's solver metrics (global series are recorded on rank 0
    /// only; counters are local and sum to global totals when merged).
    pub metrics: MetricsRegistry,
}

/// How a phase ended.
struct PhaseEnd {
    converged: bool,
    gap: f64,
}

/// Per-rank solver state.
pub(crate) struct RankState<'a> {
    ds: &'a Dataset,
    kind: KernelKind,
    c_pos: f64,
    c_neg: f64,
    tau: f64,
    pub(crate) part: Partition,
    /// First global index owned by this rank.
    pub(crate) lo: usize,
    /// `α` for owned samples (indexed `global − lo`).
    pub(crate) alpha: Vec<f64>,
    /// `γ` for owned samples.
    pub(crate) grad: Vec<f64>,
    /// Active flags for owned samples.
    pub(crate) active: Vec<bool>,
    /// Ascending raw local indices of the active samples — the iteration
    /// space of the candidate scan and the fused sweep, and the span of
    /// every cached kernel row. Kept in lockstep with `active` (rebuilt on
    /// shrink passes, reconstruction and restore).
    active_list: Vec<u32>,
    /// Cached squared norms for owned samples.
    pub(crate) sq: Vec<f64>,
    /// Modeled intra-rank lanes of a kernel-column fill (≥ 1).
    lanes: usize,
    /// Dot-product implementation for pivot-row evaluation.
    dots: DotKind,
    /// Column-major copy of the active rows, in active-list order, that
    /// the sweep's kernel columns multiply (`DotKind::Scatter`; empty under
    /// the merge-join). Rebuilt by [`Self::rebuild_active_columns`]
    /// wherever the active list changes.
    active_cols: ColumnMajor,
    /// LRU cache of pivot kernel rows over the active span, keyed by
    /// global pivot index. `None` when `params.cache_bytes == 0`.
    row_cache: Option<KernelCache>,
    /// Iterations remaining until the next shrink pass (`None` = never).
    shrink_countdown: Option<u64>,
    initial_threshold: Option<u64>,
    subsequent: SubsequentPolicy,
    pub(crate) iterations: u64,
    pub(crate) trace: RankTrace,
    charge: ComputeCharge,
    pub(crate) recon_sim_time: f64,
    max_iter: u64,
    stall_limit: u64,
    /// Last allreduced `(β_up, β_low)`.
    last_betas: (f64, f64),
    /// This rank's id (for checkpoint snapshots).
    rank: usize,
    /// Phase-machine stage for checkpoint keys: 0 = first optimization
    /// phase; 1 = past the (first) reconstruction.
    stage: u32,
    /// Checkpoint handle, if the driver enabled checkpointing.
    ckpt: Option<CheckpointCtx>,
    /// Solver telemetry for this rank.
    pub(crate) metrics: MetricsRegistry,
    /// Convergence-phase tracker, fed at epoch cadence on rank 0 only
    /// (where the global series are recorded). Pure local arithmetic —
    /// no communication, no simulated-time charge.
    convergence: ConvergenceTracker,
}

impl<'a> RankState<'a> {
    fn new(comm: &Comm, ds: &'a Dataset, cfg: &DistConfig) -> Self {
        let part = Partition::new(ds.len(), comm.size());
        let range = part.range(comm.rank());
        let lo = range.start;
        let ln = range.len();
        let alpha = vec![0.0; ln];
        let grad: Vec<f64> = range.clone().map(|i| -ds.y[i]).collect();
        let active = vec![true; ln];
        let sq: Vec<f64> = range.clone().map(|i| ds.x.row(i).squared_norm()).collect();
        let policy: ShrinkPolicy = cfg.params.shrink;
        let initial_threshold = policy.initial_threshold(ds.len());
        debug_assert!(ln <= u32::MAX as usize, "local block exceeds u32 index");
        let mut st = RankState {
            ds,
            kind: cfg.params.kernel,
            c_pos: cfg.params.c_for(1.0),
            c_neg: cfg.params.c_for(-1.0),
            tau: cfg.params.tau,
            part,
            lo,
            alpha,
            grad,
            active,
            active_list: Vec::new(),
            sq,
            lanes: cfg.threads.max(1),
            dots: cfg.dots,
            active_cols: ColumnMajor::default(),
            row_cache: (cfg.params.cache_bytes > 0)
                .then(|| KernelCache::with_byte_budget(cfg.params.cache_bytes, ln.max(1))),
            shrink_countdown: initial_threshold,
            initial_threshold,
            subsequent: policy.subsequent,
            iterations: 0,
            trace: RankTrace::default(),
            charge: cfg.charge,
            recon_sim_time: 0.0,
            max_iter: cfg.params.max_iter,
            stall_limit: cfg.params.stall_limit,
            last_betas: (f64::INFINITY, f64::NEG_INFINITY),
            rank: comm.rank(),
            stage: 0,
            ckpt: cfg.checkpoint.clone(),
            metrics: MetricsRegistry::new(),
            convergence: ConvergenceTracker::new(cfg.params.epsilon),
        };
        if let Some(ck) = &cfg.resume {
            st.restore(ck);
        }
        st.rebuild_active_list();
        st.rebuild_active_columns();
        st
    }

    /// Recompute `active_list` from the `active` flags.
    fn rebuild_active_list(&mut self) {
        self.active_list.clear();
        for (li, &a) in self.active.iter().enumerate() {
            if a {
                self.active_list.push(li as u32);
            }
        }
    }

    /// Rebuild `active_cols` in place from the active list. Called wherever
    /// the list changes: construction (after any restore), the shrink
    /// pass's compaction and [`Self::on_reconstruction`].
    fn rebuild_active_columns(&mut self) {
        let mut cols = std::mem::take(&mut self.active_cols);
        self.copy_columns(&self.active_list, &mut cols);
        self.active_cols = cols;
    }

    /// Make `cols` the column-major copy of local rows `rows`, in list
    /// order, for [`Self::fill_pivot_row`] to multiply. Under
    /// [`DotKind::MergeJoin`] `cols` is left as it is: the reference reads
    /// the rows themselves.
    pub(crate) fn copy_columns(&self, rows: &[u32], cols: &mut ColumnMajor) {
        if self.dots == DotKind::Scatter {
            cols.rebuild(&self.ds.x, rows.iter().map(|&li| self.lo + li as usize));
        }
    }

    /// Drop every cached kernel row. Called wherever the active span is
    /// rebuilt wholesale (reconstruction reactivates every shrunk sample;
    /// a checkpoint restore replaces the active flags), since cached rows
    /// are positional over the active list and would silently misalign.
    fn invalidate_caches(&mut self) {
        if let Some(rc) = &mut self.row_cache {
            rc.clear();
        }
    }

    /// Re-sync the solver after a gradient reconstruction reactivated the
    /// shrunk samples: the active span is the full block again, so cached
    /// rows (spanning the old, shorter active list) must go.
    pub(crate) fn on_reconstruction(&mut self) {
        self.rebuild_active_list();
        self.rebuild_active_columns();
        self.invalidate_caches();
    }

    /// Overwrite the cold-start state with a consistent checkpoint.
    /// Snapshots carry global indices, so this works under a different
    /// partition too (degraded continuation): each rank copies whatever
    /// slices of the old snapshots overlap its new range.
    fn restore(&mut self, ck: &Checkpoint) {
        debug_assert_eq!(ck.n, self.ds.len(), "checkpoint is for another dataset");
        let my_lo = self.lo;
        let my_hi = self.lo + self.local_n();
        // Recovery copy-in; the fault path bills this through the driver's
        // recovery cost, not per-element compute. lint: uncharged
        for s in &ck.ranks {
            let start = my_lo.max(s.lo);
            let end = my_hi.min(s.lo + s.alpha.len());
            // lint: uncharged — same recovery copy-in as above.
            for g in start..end {
                let (li, si) = (g - my_lo, g - s.lo);
                self.alpha[li] = s.alpha[si];
                self.grad[li] = s.grad[si];
                self.active[li] = s.active[si];
            }
        }
        // lockstep: the countdown is identical on every rank at a
        // consistent generation, so any snapshot's copy will do
        if let Some(first) = ck.ranks.first() {
            self.shrink_countdown = first.shrink_countdown;
        }
        self.iterations = ck.iterations;
        self.stage = ck.stage;
        self.last_betas = ck.last_betas;
        // The restored active flags define a new span; cached rows from
        // before the crash (a fresh state has none, but be explicit) are
        // positionally meaningless now.
        self.invalidate_caches();
    }

    /// Post a snapshot when the cadence hits this iteration. Called right
    /// after the β allreduce, where every rank holds identical
    /// `(iterations, stage)` — so the posted keys line up across ranks and
    /// the store can promote a consistent generation.
    fn maybe_checkpoint(&mut self, comm: &mut Comm) {
        let Some(ctx) = &self.ckpt else { return };
        if !self.iterations.is_multiple_of(ctx.every_iters) {
            return;
        }
        comm.trace_mark("checkpoint", "ckpt");
        self.metrics.inc("checkpoints_posted", 1);
        ctx.store.post(
            self.iterations,
            self.stage,
            self.last_betas,
            self.ds.len(),
            comm.clock(),
            RankSnapshot {
                rank: self.rank,
                lo: self.lo,
                alpha: self.alpha.clone(),
                grad: self.grad.clone(),
                active: self.active.clone(),
                shrink_countdown: self.shrink_countdown,
            },
        );
    }

    /// Samples owned by this rank.
    pub(crate) fn local_n(&self) -> usize {
        self.alpha.len()
    }

    /// The largest box constraint across classes (used for bound
    /// tolerances).
    pub(crate) fn c(&self) -> f64 {
        self.c_pos.max(self.c_neg)
    }

    /// Box constraint of local sample `li`.
    #[inline]
    pub(crate) fn c_of(&self, li: usize) -> f64 {
        if self.y(li) > 0.0 {
            self.c_pos
        } else {
            self.c_neg
        }
    }

    /// Charge simulated seconds to the reconstruction bucket.
    pub(crate) fn add_recon_time(&mut self, secs: f64) {
        self.recon_sim_time += secs;
    }

    /// Label of local sample `li`.
    #[inline]
    pub(crate) fn y(&self, li: usize) -> f64 {
        self.ds.y[self.lo + li]
    }

    /// Row of local sample `li`.
    #[inline]
    pub(crate) fn row(&self, li: usize) -> shrinksvm_sparse::RowView<'_> {
        self.ds.x.row(self.lo + li)
    }

    /// Scan active local samples for the worst-violator candidates, with
    /// the usual index tie-breaks.
    fn local_candidates(&self) -> (MinLoc, MaxLoc) {
        let mut up = MinLoc::identity();
        let mut low = MaxLoc::identity();
        // The phase prologue: one read-only scan per phase, never per
        // iteration (the fused sweep folds every later scan), and outside
        // the cost model since the solver's first version. lint: uncharged
        for &li32 in &self.active_list {
            let li = li32 as usize;
            let (y, a, g) = (self.y(li), self.alpha[li], self.grad[li]);
            let ci = self.c_of(li);
            let gidx = (self.lo + li) as u64;
            if in_up_set(y, a, ci) {
                up = MinLoc::combine(
                    up,
                    MinLoc {
                        value: g,
                        index: gidx,
                    },
                );
            }
            if in_low_set(y, a, ci) {
                low = MaxLoc::combine(
                    low,
                    MaxLoc {
                        value: g,
                        index: gidx,
                    },
                );
            }
        }
        (up, low)
    }

    /// Gather a local sample into a wire record.
    fn gather(&self, gidx: usize) -> PairSample {
        let li = gidx - self.lo;
        PairSample::from_parts(
            gidx as u64,
            self.y(li),
            self.alpha[li],
            self.grad[li],
            self.sq[li],
            self.row(li),
        )
    }

    /// Select the global working pair in one round (Algorithm 2 lines
    /// 3–9): each rank offers its local MINLOC/MAXLOC winners with their
    /// samples attached, and the fused allreduce hands every rank the
    /// global winners together with their samples — no routing through
    /// rank 0 and no pivot broadcast. Called right after the prologue scan
    /// and the sweep head, where `α` and `γ` already hold the values the
    /// next iteration's pair solve reads. An empty side (the identity)
    /// carries no sample.
    fn candidate_round(
        &self,
        comm: &mut Comm,
        up: MinLoc,
        low: MaxLoc,
    ) -> ((MinLoc, Vec<u8>), (MaxLoc, Vec<u8>)) {
        let sample = |index: u64| {
            let mut out = Vec::new();
            if index != u64::MAX {
                self.gather(index as usize).encode(&mut out);
            }
            out
        };
        let (up_bytes, low_bytes) = (sample(up.index), sample(low.index));
        comm.allreduce_minloc_maxloc((up, &up_bytes), (low, &low_bytes))
    }

    /// Fill one kernel column over the local rows `rows` — the one
    /// kernel-column routine: the active list spans the sweep's pivot rows,
    /// ω spans Algorithm 3's SV columns. Under [`DotKind::Scatter`], `cols`
    /// is the column-major copy of `rows` ([`Self::copy_columns`]): one
    /// sparse product ([`ColumnMajor::dots_into`]) writes every row's dot
    /// with the pivot into `out`, and the kernels are then evaluated lane by
    /// lane. Under [`DotKind::MergeJoin`] `cols` is unused and every row
    /// merge-joins with the pivot.
    ///
    /// `rows` splits into `lanes` static lanes, run inline in lane order.
    /// Returns the column's charge: its slowest lane under
    /// [`ComputeCharge::lane`], plus the [`ComputeCharge::scatter_setup`] of
    /// its pivot under Scatter. That still prices a scatter/gather (λ per
    /// stored entry of every row), although the product multiplies only
    /// the entries a row shares with the pivot. The column also counts
    /// `rows.len()` kernel evaluations.
    ///
    /// Kernel values are bit-identical across the dot implementations: the
    /// product performs each merge-join's exact f64 sequence, and both feed
    /// [`KernelKind::eval_from_dot`].
    pub(crate) fn fill_pivot_row(
        &self,
        rows: &[u32],
        cols: &ColumnMajor,
        col: Column<'_, '_>,
    ) -> f64 {
        let m = rows.len();
        debug_assert_eq!(m, col.out.len());
        if m == 0 {
            return 0.0;
        }
        let scatter = self.dots == DotKind::Scatter;
        if scatter {
            cols.dots_into(col.pivot, col.out);
        }
        // the merge-join walks the pivot's entries once per row
        let walk = if scatter { 0 } else { col.pivot.nnz() as u64 };
        let (ds, lo, kind, sq) = (self.ds, self.lo, self.kind, &self.sq);
        let t = self.lanes.min(m);
        let mut slowest = 0.0f64;
        for w in 0..t {
            let (start, end) = static_block(0, m, w, t);
            let mut nnz = 0u64;
            for k in start..end {
                let li = rows[k] as usize;
                let row = ds.x.row(lo + li);
                nnz += row.nnz() as u64;
                let dot = if scatter {
                    col.out[k]
                } else {
                    ops::dot(row, col.pivot)
                };
                col.out[k] = kind.eval_from_dot(dot, sq[li], col.pivot_sq);
            }
            let n = (end - start) as u64;
            slowest = slowest.max(self.charge.lane((nnz + n * walk) as f64, n as f64));
        }
        let setup = if scatter {
            self.charge.scatter_setup(col.pivot.nnz() as f64)
        } else {
            0.0
        };
        setup + slowest
    }

    /// Obtain `K(active, up)` and `K(active, low)` over the active span for
    /// the pivots requested — served from the row cache when enabled, else
    /// freshly computed. With the cache on, up is looked up before low, and
    /// both lookups settle before either row is filled
    /// ([`KernelCache::lookup`]), so the LRU trace is the one two fetches in
    /// a row would leave. The missed rows are then filled up first, each by
    /// one [`Self::fill_pivot_row`] over the active copy. Each row's charge:
    ///
    /// * miss / cache off: its column's fill charge;
    /// * hit: [`Self::hit_cost`] — the λ the cache saved is exactly what is
    ///   *not* charged, so simulated time reflects the reuse.
    fn acquire_pivot_rows(
        &mut self,
        pivots: [Option<PivotRequest<'_>>; 2],
    ) -> [Option<PivotRow>; 2] {
        let m = self.active_list.len();
        let hit_cost = self.hit_cost();
        let mut acquired: [Option<PivotRow>; 2] = [None, None];
        // Requested rows to fill, in side order, each with its cache
        // ticket (`None` with the cache off).
        let mut misses = Vec::with_capacity(2);
        let mut cache = self.row_cache.take();
        for (side, p) in pivots.iter().enumerate() {
            let Some(p) = p else { continue };
            match cache.as_mut().map(|c| c.lookup(p.gidx as usize)) {
                Some(Lookup::Hit(row)) => {
                    acquired[side] = Some(PivotRow {
                        row,
                        cost: hit_cost,
                        evals: 0,
                    });
                }
                Some(Lookup::Miss(ticket)) => misses.push((side, p, Some(ticket))),
                None => misses.push((side, p, None)),
            }
        }
        for (side, p, ticket) in misses {
            let mut values = vec![0.0; m];
            let cost =
                self.fill_pivot_row(&self.active_list, &self.active_cols, p.column(&mut values));
            let row = match (ticket, cache.as_mut()) {
                (Some(t), Some(c)) => c.fill(t, values),
                _ => Arc::new(values),
            };
            acquired[side] = Some(PivotRow {
                row,
                cost,
                evals: m as u64,
            });
        }
        self.row_cache = cache;
        acquired
    }

    /// `k_uu, k_ll, k_ul` for the selected pair, evaluated afresh every
    /// iteration (Algorithm 2) and charged as one
    /// [`ComputeCharge::pair_triple`].
    fn pivot_triple(&self, sup: &PairSample, slow: &PairSample) -> [f64; 3] {
        let (rup, rlow) = (sup.row(), slow.row());
        [
            self.kind.eval(rup, rup, sup.sq_norm, sup.sq_norm),
            self.kind.eval(rlow, rlow, slow.sq_norm, slow.sq_norm),
            self.kind.eval(rup, rlow, sup.sq_norm, slow.sq_norm),
        ]
    }

    /// What acquiring one pivot row charges on a cache hit: one
    /// [`ComputeCharge::cache_lookup`] plus the dense fma sweep over the
    /// widest lane (`max_chunk · fma_per_elem`). It is also the row's
    /// charge under an infinitely large, fully warm cache, which feeds the
    /// PerfDoctor `infinite_cache` what-if and never touches the clock.
    fn hit_cost(&self) -> f64 {
        let m = self.active_list.len();
        let max_chunk = m.div_ceil(self.lanes.min(m).max(1));
        self.charge.cache_lookup + max_chunk as f64 * self.charge.fma_per_elem
    }

    /// One optimization phase: iterate until `β_up + 2·phase_eps > β_low`
    /// on the active set (or the iteration cap).
    ///
    /// The fused γ-update/shrink sweep folds the *next* iteration's
    /// worst-violator candidates as it rewrites the gradients (the sweep
    /// **head**), then one fused MINLOC+MAXLOC allreduce selects the
    /// global pair — carrying the winners' samples — before the shrink
    /// bookkeeping and the survivors reduction (the sweep **tail**). The
    /// prologue scan seeds the first pair. Value flow is identical to a
    /// separate scan per iteration — the candidate fold is a total-order
    /// selection, so the fusion cannot change what it returns.
    fn run_phase(
        &mut self,
        comm: &mut Comm,
        phase_eps: f64,
        shrink_enabled: bool,
    ) -> Result<PhaseEnd, CoreError> {
        let mut stall = 0u64;
        let (seed_up, seed_low) = self.local_candidates();
        let mut cand = self.candidate_round(comm, seed_up, seed_low);
        loop {
            let ((up, up_bytes), (low, low_bytes)) = cand;
            self.last_betas = (up.value, low.value);
            self.maybe_checkpoint(comm);
            let gap = low.value - up.value;
            // Epoch telemetry: the global KKT violation, its windowed
            // slope, the convergence phase and the kernel row cache hit
            // rate, sampled on rank 0 so the merged registry carries each
            // series exactly once.
            if comm.rank() == 0 && self.iterations.is_multiple_of(metrics_epoch()) {
                if gap.is_finite() {
                    self.metrics.sample("kkt_gap", self.iterations, gap);
                }
                self.convergence.observe_gap(self.iterations, gap);
                if let Some(slope) = self.convergence.kkt_slope() {
                    self.metrics.sample("kkt_slope", self.iterations, slope);
                }
                self.metrics.sample(
                    "convergence_phase",
                    self.iterations,
                    self.convergence.phase().code(),
                );
                if let Some(rc) = &self.row_cache {
                    self.metrics.sample(
                        "kernel_cache_hit_rate",
                        self.iterations,
                        rc.stats().hit_rate(),
                    );
                }
            }
            // negated form on purpose: ±∞ candidates (empty scan sets) and
            // NaN must all terminate the phase
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(up.value + 2.0 * phase_eps <= low.value) {
                // covers empty scan sets too (±∞ candidates)
                return Ok(PhaseEnd {
                    converged: true,
                    gap,
                });
            }
            if self.iterations >= self.max_iter {
                return Ok(PhaseEnd {
                    converged: false,
                    gap,
                });
            }

            // Solve the two-variable subproblem on every rank identically
            // (Eq. 6/7) from the samples the candidate round delivered; the
            // sweep's shrink test reads the reduced β values.
            let (bup, blow) = (up.value, low.value);
            let (Some(sup), Some(slow)) = (
                PairSample::decode_exact(&up_bytes),
                PairSample::decode_exact(&low_bytes),
            ) else {
                return Err(CoreError::ModelFormat(format!(
                    "bad pivot sample from the candidate round (pair {}, {})",
                    up.index, low.index
                )));
            };
            let [k_uu, k_ll, k_ul] = self.pivot_triple(&sup, &slow);
            let c_up = if sup.y > 0.0 { self.c_pos } else { self.c_neg };
            let c_lo = if slow.y > 0.0 { self.c_pos } else { self.c_neg };
            let sol = solve_pair_weighted(
                sup.y, slow.y, sup.alpha, slow.alpha, sup.gamma, slow.gamma, k_uu, k_ll, k_ul,
                c_up, c_lo, self.tau,
            );
            if sol.is_null() {
                stall += 1;
                if stall > self.stall_limit {
                    return Err(CoreError::Stalled {
                        at_iteration: self.iterations,
                    });
                }
            } else {
                stall = 0;
            }

            // Owners write back the new multipliers before the γ loop, so
            // the in-loop candidate scan sees updated set memberships
            // (Algorithm 2 lines 12–16).
            if self.part.owner(up.index as usize) == comm.rank() {
                self.alpha[up.index as usize - self.lo] = sol.alpha_up;
            }
            if self.part.owner(low.index as usize) == comm.rank() {
                self.alpha[low.index as usize - self.lo] = sol.alpha_low;
            }

            // γ update over the active span (Eq. 2), fused with the shrink
            // pass. Phase A acquires the two pivot kernel rows (cached, or
            // filled over the modeled lanes via the configured dot
            // implementation); phase B sweeps the gradients in active-list
            // order. A zero delta contributes an exact 0.0 and skips its
            // kernel row, and the full `cu·K_up + cl·K_low` expression is
            // applied either way — matching the pre-optimization loop
            // bit-for-bit.
            let cu = sup.y * sol.delta_up;
            let cl = slow.y * sol.delta_low;
            let shrink_pass = shrink_enabled && self.shrink_countdown == Some(0);
            let m = self.active_list.len();
            let sweep_t0 = comm.clock();
            // The triple's infinite-cache alternative is one cache lookup.
            let mut sweep_cost = self.charge.pair_triple();
            let mut sweep_alt = self.charge.cache_lookup;
            let mut evals = 3;
            let hit_cost = self.hit_cost();
            let [row_up, row_low] = self.acquire_pivot_rows([
                PivotRequest::when_nonzero(cu, up.index, &sup),
                PivotRequest::when_nonzero(cl, low.index, &slow),
            ]);
            // up's charge first, then low's, as the rows were once filled
            for r in [&row_up, &row_low].into_iter().flatten() {
                sweep_cost += r.cost;
                sweep_alt += hit_cost;
                evals += r.evals;
            }
            let (row_up, row_low) = (row_up.map(|r| r.row), row_low.map(|r| r.row));

            let mut survivors = 0u64;
            let mut keep: Vec<usize> = Vec::new();
            let mut next_up = MinLoc::identity();
            let mut next_low = MaxLoc::identity();
            for pos in 0..m {
                let li = self.active_list[pos] as usize;
                let k_up = row_up.as_ref().map_or(0.0, |r| r[pos]);
                let k_low = row_low.as_ref().map_or(0.0, |r| r[pos]);
                let g = &mut self.grad[li];
                *g += cu * k_up + cl * k_low;
                let g = *g;
                let (y, a) = (self.ds.y[self.lo + li], self.alpha[li]);
                let ci = if y > 0.0 { self.c_pos } else { self.c_neg };
                if shrink_pass {
                    let set = classify(y, a, ci);
                    let in_up_only = matches!(set, IndexSet::I1 | IndexSet::I2);
                    let in_low_only = matches!(set, IndexSet::I3 | IndexSet::I4);
                    if shrinkable(g, in_up_only, in_low_only, bup, blow) {
                        continue;
                    }
                    survivors += 1;
                    keep.push(pos);
                }
                // Fused candidate fold: this position is in next
                // iteration's scan span (it survived any shrink test
                // above), and `g` is exactly the gradient that scan would
                // read.
                let gidx = (self.lo + li) as u64;
                if in_up_set(y, a, ci) {
                    next_up = MinLoc::combine(
                        next_up,
                        MinLoc {
                            value: g,
                            index: gidx,
                        },
                    );
                }
                if in_low_set(y, a, ci) {
                    next_low = MaxLoc::combine(
                        next_low,
                        MaxLoc {
                            value: g,
                            index: gidx,
                        },
                    );
                }
            }
            self.trace.sum_active_local += m as u128;
            self.trace.kernel_evals += evals;
            // Head charge: pivot triple, kernel rows and the γ-update
            // chunks, with the always-hit alternative riding along for
            // the PerfDoctor infinite-cache projection.
            comm.advance_compute_classed(sweep_cost, "fused_sweep", Some(sweep_alt));
            comm.trace_span("fused_sweep", "solver", sweep_t0, comm.clock());
            // The candidate payload is complete: select next iteration's
            // pair, and ship its samples, in one fused round.
            cand = self.candidate_round(comm, next_up, next_low);

            if shrink_pass {
                // Sweep tail: fold the surviving positions back into the
                // flags, compact the cached rows to the surviving span, and
                // rebuild the active list.
                let mut ki = 0usize;
                for (pos, &li32) in self.active_list.iter().enumerate() {
                    if ki < keep.len() && keep[ki] == pos {
                        ki += 1;
                    } else {
                        self.active[li32 as usize] = false;
                    }
                }
                if keep.len() < m {
                    if let Some(rc) = &mut self.row_cache {
                        rc.resize_rows(&keep);
                    }
                    self.active_list = keep.iter().map(|&p| self.active_list[p]).collect();
                    self.rebuild_active_columns();
                }
                let tail_t0 = comm.clock();
                let tail_cost = (m + keep.len()) as f64 * self.charge.fma_per_elem;
                comm.advance_compute_classed(tail_cost, "sweep_tail", None);
                comm.trace_span("sweep_tail", "solver", tail_t0, comm.clock());
                let global_active = comm.allreduce_u64_sum(survivors);
                self.shrink_countdown = Some(match self.subsequent {
                    SubsequentPolicy::ActiveSetSize => global_active.max(1),
                    SubsequentPolicy::SameAsInitial => self
                        .initial_threshold
                        .expect("shrink pass implies a threshold"),
                });
                self.trace
                    .active_curve
                    .push((self.iterations, global_active));
                // local counter (sums to the global shrink total on merge)
                self.metrics.inc("samples_shrunk", m as u64 - survivors);
                comm.trace_mark("shrink_pass", "solver");
                comm.trace_counter("active_set", global_active as f64);
                if comm.rank() == 0 {
                    self.metrics.inc("shrink_passes", 1);
                    self.metrics
                        .sample("active_set", self.iterations, global_active as f64);
                    self.convergence.observe_active(
                        self.iterations,
                        global_active as f64,
                        m as u64 - survivors,
                    );
                    if let Some(v) = self.convergence.shrink_velocity() {
                        self.metrics
                            .sample("active_shrink_velocity", self.iterations, v);
                    }
                }
            } else if shrink_enabled {
                if let Some(cd) = &mut self.shrink_countdown {
                    *cd = cd.saturating_sub(1);
                }
            }
            self.iterations += 1;
        }
    }

    /// Assemble the global model on every rank: allgather the SV blocks and
    /// agree on the bias.
    fn assemble_model(&self, comm: &mut Comm) -> Result<SvmModel, CoreError> {
        // bias: mean γ over I0, else bracket midpoint (§III).
        let tol = bound_tol(self.c());
        let mut sum = 0.0;
        let mut count = 0u64;
        // One-shot O(n_local) scan after convergence, outside the
        // per-iteration timing the makespan model charges. lint: uncharged
        for li in 0..self.local_n() {
            if classify(self.y(li), self.alpha[li], self.c_of(li)) == IndexSet::I0 {
                sum += self.grad[li];
                count += 1;
            }
        }
        let gsum = comm.allreduce_f64_sum(sum);
        let gcount = comm.allreduce_u64_sum(count);
        let bias = if gcount > 0 {
            gsum / gcount as f64
        } else {
            (self.last_betas.0 + self.last_betas.1) / 2.0
        };

        // SV gather: (global idx, coef, row) per local SV — the SV set is
        // small (ζ ≪ N), so allgatherv here is cheap and *not* the
        // full-dataset allgather the paper rejects for reconstruction.
        let mut block = Vec::new();
        for li in 0..self.local_n() {
            if self.alpha[li] > tol {
                self.gather(self.lo + li).encode(&mut block);
            }
        }
        let pieces = comm.allgatherv(&block);
        let mut b = shrinksvm_sparse::CsrBuilder::new(self.ds.x.ncols());
        let mut coef = Vec::new();
        let mut indices = Vec::new();
        for piece in pieces {
            let mut pos = 0;
            while pos < piece.len() {
                let s = PairSample::decode(&piece, &mut pos)
                    .ok_or_else(|| CoreError::ModelFormat("bad SV gather block".into()))?;
                coef.push(s.alpha * s.y);
                indices.push(s.index as usize);
                b.push_row(&s.cols, &s.vals)?;
            }
        }
        Ok(SvmModel::new(self.kind, b.finish(), coef, bias)?.with_training_indices(indices))
    }
}

/// Run the distributed trainer on this rank. Every rank of the universe
/// must call this with the same `ds` and `cfg`.
pub fn train_rank(
    comm: &mut Comm,
    ds: &Dataset,
    cfg: &DistConfig,
) -> Result<RankOutput, CoreError> {
    cfg.params.validate()?;
    if ds.len() < 2 {
        return Err(CoreError::DegenerateProblem(format!(
            "{} samples",
            ds.len()
        )));
    }
    let (pos, neg) = ds.class_counts();
    if pos == 0 || neg == 0 {
        return Err(CoreError::DegenerateProblem(
            "all samples share one class".into(),
        ));
    }

    let eps = cfg.params.epsilon;
    let policy = cfg.params.shrink;
    let mut st = RankState::new(comm, ds, cfg);

    let end = if policy.is_none() {
        // Algorithm 2.
        st.run_phase(comm, eps, false)?
    } else {
        match policy.recon {
            ReconPolicy::Never => {
                // CA-SVM-style permanent elimination: converge the active
                // set and STOP — shrunk samples are never re-checked, so
                // the result may be inexact (the ablation the paper argues
                // against in §IV).
                st.run_phase(comm, eps, true)?
            }
            ReconPolicy::Single => {
                // Algorithm 4: converge active set, reconstruct once,
                // δ_c ← ∞, converge exactly. A resume at stage 1 is past
                // the reconstruction and re-enters the exact phase
                // directly.
                if st.stage >= 1 {
                    st.run_phase(comm, eps, false)?
                } else {
                    let first = st.run_phase(comm, eps, true)?;
                    if !first.converged {
                        first
                    } else {
                        recon::reconstruct(&mut st, comm)?;
                        st.stage = 1;
                        st.run_phase(comm, eps, false)?
                    }
                }
            }
            ReconPolicy::Multi => {
                // Algorithm 5: 20ε phase, reconstruct, then 2ε/reconstruct
                // rounds until optimality survives a reconstruction. A
                // resume at stage 1 re-enters the reconstruction loop;
                // reconstruction recomputes γ from the (restored) α, so
                // re-running it after a restore is safe.
                let coarse = if st.stage == 0 {
                    Some(st.run_phase(comm, 10.0 * eps, true)?)
                } else {
                    None
                };
                match coarse {
                    Some(c) if !c.converged => c,
                    _ => {
                        st.stage = 1;
                        loop {
                            recon::reconstruct(&mut st, comm)?;
                            let before = st.iterations;
                            let end = st.run_phase(comm, eps, true)?;
                            if !end.converged || st.iterations == before {
                                // either out of budget, or the reconstructed
                                // problem was already optimal — done.
                                break end;
                            }
                        }
                    }
                }
            }
        }
    };

    let model = st.assemble_model(comm)?;
    st.trace.iterations = st.iterations;
    // Hot-path accounting: per-rank cache counters (they sum to global
    // totals on merge).
    if let Some(rc) = &st.row_cache {
        let cs = rc.stats();
        st.metrics.inc("kernel_cache_hits", cs.hits);
        st.metrics.inc("kernel_cache_misses", cs.misses);
        st.metrics.inc("kernel_cache_insertions", cs.insertions);
        st.metrics.inc("kernel_cache_evictions", cs.evictions);
        if comm.rank() == 0 {
            st.metrics
                .set_gauge("kernel_cache_hit_rate_final", cs.hit_rate());
        }
    }
    if comm.rank() == 0 {
        st.metrics.set_gauge("final_gap", end.gap.max(0.0));
        st.metrics.set_gauge("iterations", st.iterations as f64);
    }
    Ok(RankOutput {
        model,
        iterations: st.iterations,
        converged: end.converged,
        final_gap: end.gap.max(0.0),
        trace: st.trace,
        recon_sim_time: st.recon_sim_time,
        metrics: st.metrics,
    })
}
