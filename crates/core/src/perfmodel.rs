//! The Table-I cost model: calibrated compute rates plus the LogGP network
//! parameters, used two ways —
//!
//! 1. **online**, by the distributed solver, to charge simulated clock time
//!    per kernel evaluation while `mpisim` charges the communication; and
//! 2. **offline**, by [`MachineModel::project`], to re-cost a measured
//!    [`Trace`] at an arbitrary process count `p` — how the harness
//!    produces the paper's 512–4096-process points on a single host
//!    (substitution documented in DESIGN.md §4).
//!
//! The projection mirrors the paper's complexity analysis: per iteration,
//! each rank performs `A_t/p` gradient updates of two kernel evaluations
//! each (§III-B2), a three-evaluation α solve, and one fused MINLOC/MAXLOC
//! Allreduce of `Θ((l + r·G)·log p)` whose payload carries the pair's two
//! rows of `r/2` bytes each — the solver's single communication round per
//! iteration, which replaces §III-B1's scalar reductions plus two-row
//! broadcast; each reconstruction costs `(|ω|/p)·|ζ|` evaluations of
//! compute and `Θ(|X−Ȧ|·G)` of ring bandwidth (§IV-B1/B2). Its compute
//! terms call the same [`ComputeCharge`] functions the solver charges.

use std::time::Instant;

use shrinksvm_mpisim::{minloc_maxloc_len, CostParams};
use shrinksvm_sparse::CsrMatrix;

use crate::kernel::{KernelEval, KernelKind};
use crate::trace::Trace;

/// Per-kernel-evaluation compute charges (the paper's `λ`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ComputeCharge {
    /// Seconds per stored entry touched by the sparse merge-join
    /// (an evaluation of rows with `a`/`b` entries touches `a + b`).
    /// The dense-scratch gather dot touches only `a` per evaluation, plus
    /// one scatter/unscatter of `b` per pivot — charged at this same rate.
    pub lambda_per_nnz: f64,
    /// Fixed seconds per evaluation (exp call, loop setup).
    pub kernel_overhead: f64,
    /// Fixed seconds per kernel-cache probe (hash lookup + LRU touch).
    /// Charged on hits in place of the evaluation they avoided.
    pub cache_lookup: f64,
    /// Seconds per dense fused multiply-add, charged when a γ update reads
    /// a cached kernel value instead of evaluating: the sweep still pays
    /// one fma per active sample, just never the sparse dot. Dense
    /// streaming is cheaper than the merge-join's branchy walk, hence a
    /// rate below `lambda_per_nnz`.
    pub fma_per_elem: f64,
}

impl ComputeCharge {
    /// Cost of one kernel evaluation between rows totalling `nnz` stored
    /// entries.
    #[inline]
    pub fn eval_cost(&self, nnz: usize) -> f64 {
        self.kernel_overhead + self.lambda_per_nnz * nnz as f64
    }

    /// One lane of a kernel-column fill: `evals` kernel evaluations that
    /// touch `madds` stored entries in total. A fill is charged its slowest
    /// lane.
    #[inline]
    pub fn lane(&self, madds: f64, evals: f64) -> f64 {
        madds * self.lambda_per_nnz + evals * self.kernel_overhead
    }

    /// Scatter and unscatter of a `nnz`-entry pivot row through the dense
    /// scratch, once per kernel-column fill under the gather dot.
    #[inline]
    pub fn scatter_setup(&self, nnz: f64) -> f64 {
        2.0 * nnz * self.lambda_per_nnz
    }

    /// The `k_uu, k_ll, k_ul` triple of a selected pair.
    #[inline]
    pub fn pair_triple(&self) -> f64 {
        3.0 * self.kernel_overhead
    }
}

impl Default for ComputeCharge {
    fn default() -> Self {
        // Typical single-core figures for the sparse f64 merge-join;
        // `MachineModel::calibrate` replaces these with measurements.
        ComputeCharge {
            lambda_per_nnz: 2.0e-9,
            kernel_overhead: 25.0e-9,
            cache_lookup: 30.0e-9,
            fma_per_elem: 0.5e-9,
        }
    }
}

/// The full machine model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineModel {
    /// Kernel-evaluation charges.
    pub charge: ComputeCharge,
    /// Network parameters (Table I's `l` and `1/G`).
    pub net: CostParams,
}

impl Default for MachineModel {
    fn default() -> Self {
        MachineModel {
            charge: ComputeCharge::default(),
            net: CostParams::fdr(),
        }
    }
}

impl MachineModel {
    /// Measure `λ` on this host by timing kernel evaluations over a sample
    /// of `x`'s rows. Deterministic row choice; ~1 ms of measurement.
    pub fn calibrate(kind: KernelKind, x: &CsrMatrix) -> MachineModel {
        let n = x.nrows();
        let mut model = MachineModel::default();
        if n < 2 {
            return model;
        }
        let ke = KernelEval::new(kind, x);
        // Warm up, then time a deterministic pseudo-random pair sweep.
        let pairs: Vec<(usize, usize)> = (0..4096usize)
            .map(|k| {
                let a = (k.wrapping_mul(2654435761)) % n;
                let b = (k.wrapping_mul(40503) + 7) % n;
                (a, b)
            })
            .collect();
        let mut sink = 0.0f64;
        for &(a, b) in pairs.iter().take(256) {
            sink += ke.k(a, b);
        }
        let mut nnz_touched = 0usize;
        #[allow(clippy::disallowed_methods)]
        // allow-wall-clock: calibrating real kernel throughput on the host
        let start = Instant::now();
        for &(a, b) in &pairs {
            sink += ke.k(a, b);
            nnz_touched += x.row_nnz(a) + x.row_nnz(b);
        }
        let elapsed = start.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        if nnz_touched > 0 && elapsed > 0.0 {
            let per_eval_fixed = model.charge.kernel_overhead * pairs.len() as f64;
            let var = (elapsed - per_eval_fixed).max(elapsed * 0.2);
            model.charge.lambda_per_nnz = var / nnz_touched as f64;
        }
        model
    }

    /// Critical-path time of a `log p`-round scalar collective.
    pub fn allreduce_time(&self, p: usize, bytes: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = (p as f64).log2().ceil();
        rounds * (self.net.send_overhead + self.net.wire_time(bytes))
    }

    /// Project a measured trace to `p` processes.
    ///
    /// `row_bytes` is the serialized size of one sample (for the candidate
    /// round's payload and the ring volumes). Compute is priced by the
    /// [`ComputeCharge`] functions the solver charges, at its defaults (the
    /// gather dot, one lane, no kernel cache) and with every row at the
    /// trace's mean nnz.
    pub fn project(&self, trace: &Trace, p: usize, row_bytes: f64) -> Projection {
        assert!(p >= 1);
        let pf = p as f64;
        let nnz = trace.mean_row_nnz;
        let iters = trace.iterations as f64;
        let c = &self.charge;
        // `count` kernel columns spanning `rows` local rows in all: each
        // scatters its pivot, then every row gathers against it.
        let column =
            |count: f64, rows: f64| count * c.scatter_setup(nnz) + c.lane(rows * nnz, rows);

        // γ updates: two pivot columns per iteration over the rank's active
        // rows, Σ_t ceil(A_t / p) ≤ Σ A_t / p + iters of them per column.
        let gamma_compute = 2.0 * column(iters, trace.sum_active as f64 / pf + iters);
        // α solve: the pair's kernel triple.
        let alpha_compute = iters * c.pair_triple();
        // Pair agreement: one fused MINLOC/MAXLOC allreduce whose payload
        // carries both winners' samples, sized as the solver sends it.
        let sample = row_bytes.round() as usize;
        let pair_comm = iters * self.allreduce_time(p, minloc_maxloc_len(sample, sample));

        // Reconstructions: one column per SV over the rank's ceil(|ω|/p)
        // shrunk rows; the ring moves the SV block through p hops —
        // Θ(|ζ|·row_bytes·G) + p latencies (§IV-B2).
        let mut recon_compute = 0.0;
        let mut recon_comm = 0.0;
        for ev in &trace.recon_events {
            let sv = ev.sv_count as f64;
            recon_compute += column(sv, sv * (ev.reactivated as f64 / pf).ceil());
            if p > 1 {
                recon_comm += ev.sv_bytes as f64 * self.net.gap_per_byte
                    + pf * (self.net.latency + self.net.send_overhead);
            }
        }

        Projection {
            p,
            gamma_compute,
            alpha_compute,
            pair_comm,
            recon_compute,
            recon_comm,
        }
    }

    /// Modeled time of the multicore baseline at `threads` threads given a
    /// measured single-thread time and its kernel-evaluation fraction
    /// (Amdahl on the parallelized part — the paper's OpenMP enhancement
    /// parallelizes kernel rows and γ updates).
    pub fn baseline_threads(t_single: f64, kernel_fraction: f64, threads: usize) -> f64 {
        let kf = kernel_fraction.clamp(0.0, 1.0);
        t_single * (kf / threads.max(1) as f64 + (1.0 - kf))
    }
}

/// Modeled per-rank time breakdown at a given process count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Projection {
    /// Process count this projection is for.
    pub p: usize,
    /// γ-update compute seconds.
    pub gamma_compute: f64,
    /// α-solve compute seconds.
    pub alpha_compute: f64,
    /// Pair-agreement communication seconds (the fused candidate
    /// allreduce, which also ships the pair's samples).
    pub pair_comm: f64,
    /// Reconstruction compute seconds.
    pub recon_compute: f64,
    /// Reconstruction communication seconds.
    pub recon_comm: f64,
}

impl Projection {
    /// Total modeled seconds.
    pub fn total(&self) -> f64 {
        self.gamma_compute
            + self.alpha_compute
            + self.pair_comm
            + self.recon_compute
            + self.recon_comm
    }

    /// Fraction of total time spent in gradient reconstruction (Figure 8's
    /// metric).
    pub fn recon_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            (self.recon_compute + self.recon_comm) / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ReconEvent;

    fn toy_trace() -> Trace {
        Trace {
            n: 10_000,
            mean_row_nnz: 30.0,
            iterations: 1_000,
            sum_active: 5_000_000, // mean 5000 active
            recon_events: vec![ReconEvent {
                at_iteration: 800,
                reactivated: 6_000,
                sv_count: 500,
                sv_bytes: 500 * 400,
            }],
            active_curve: vec![],
            converged: true,
            final_gap: 0.0,
        }
    }

    #[test]
    fn compute_shrinks_with_p() {
        let m = MachineModel::default();
        let t = toy_trace();
        let p1 = m.project(&t, 1, 400.0);
        let p16 = m.project(&t, 16, 400.0);
        let p256 = m.project(&t, 256, 400.0);
        assert!(p16.gamma_compute < p1.gamma_compute / 8.0);
        assert!(p256.gamma_compute < p16.gamma_compute);
        assert!(p256.recon_compute <= p16.recon_compute);
    }

    #[test]
    fn comm_grows_with_p() {
        let m = MachineModel::default();
        let t = toy_trace();
        let p2 = m.project(&t, 2, 400.0);
        let p256 = m.project(&t, 256, 400.0);
        assert!(p256.pair_comm > p2.pair_comm);
        // single-process run has no communication at all
        let p1 = m.project(&t, 1, 400.0);
        assert_eq!(p1.pair_comm, 0.0);
        assert_eq!(p1.recon_comm, 0.0);
    }

    #[test]
    fn speedup_saturates_like_the_paper() {
        // strong scaling must be near-linear at small p and sublinear at
        // very large p (communication floor) — the shape of Figs. 3–7.
        // HIGGS-scale trace: 2.6M samples, ~1M mean active.
        let big = Trace {
            n: 2_600_000,
            mean_row_nnz: 28.0,
            iterations: 100_000,
            sum_active: 100_000u128 * 1_000_000u128,
            recon_events: vec![],
            active_curve: vec![],
            converged: true,
            final_gap: 0.0,
        };
        let m = MachineModel::default();
        let t1 = m.project(&big, 1, 400.0).total();
        let s64 = t1 / m.project(&big, 64, 400.0).total();
        let s4096 = t1 / m.project(&big, 4096, 400.0).total();
        assert!(s64 > 40.0, "s64 = {s64}");
        assert!(s4096 > s64, "a HIGGS-sized problem still gains at 4096");
        assert!(s4096 < 4096.0 * 0.8, "efficiency must drop at 4096");

        // A small problem stops scaling long before 4096 — the paper's
        // "overall efficiency reduces with scale" lesson (§V-D3/D5): its
        // speedup peaks well inside the paper's grid and has fallen by 4096.
        let small = toy_trace();
        let st1 = m.project(&small, 1, 400.0).total();
        let curve: Vec<(usize, f64)> = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
            .iter()
            .map(|&p| (p, st1 / m.project(&small, p, 400.0).total()))
            .collect();
        let (peak_p, peak) =
            curve
                .iter()
                .copied()
                .fold((0, 0.0), |best, pt| if pt.1 > best.1 { pt } else { best });
        let s4096s = curve[curve.len() - 1].1;
        assert!(
            peak_p <= 1024 && s4096s < peak,
            "small problems must saturate: {curve:?}"
        );
    }

    #[test]
    fn recon_fraction_decreases_with_scale() {
        // §V-D6: the recon share of total time falls as p grows.
        let m = MachineModel::default();
        let t = toy_trace();
        let f64_ = m.project(&t, 64, 400.0).recon_fraction();
        let f1024 = m.project(&t, 1024, 400.0).recon_fraction();
        assert!(f1024 < f64_, "recon fraction must fall: {f64_} -> {f1024}");
    }

    #[test]
    fn allreduce_time_is_logarithmic() {
        let m = MachineModel::default();
        assert_eq!(m.allreduce_time(1, 8), 0.0);
        let t4 = m.allreduce_time(4, 8);
        let t16 = m.allreduce_time(16, 8);
        assert!((t16 / t4 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn baseline_threads_amdahl() {
        let t16 = MachineModel::baseline_threads(100.0, 0.9, 16);
        assert!((t16 - (100.0 * (0.9 / 16.0 + 0.1))).abs() < 1e-12);
        assert_eq!(MachineModel::baseline_threads(100.0, 0.9, 1), 100.0);
    }

    #[test]
    fn calibration_produces_positive_lambda() {
        let x = CsrMatrix::from_dense(
            &(0..64)
                .map(|i| (0..16).map(|j| ((i * j) % 7) as f64).collect())
                .collect::<Vec<_>>(),
            16,
        )
        .unwrap();
        let m = MachineModel::calibrate(KernelKind::Rbf { gamma: 0.1 }, &x);
        assert!(m.charge.lambda_per_nnz > 0.0);
        assert!(
            m.charge.lambda_per_nnz < 1e-5,
            "implausibly slow calibration"
        );
    }

    #[test]
    fn eval_cost_scales_with_nnz() {
        let c = ComputeCharge::default();
        assert!(c.eval_cost(100) > c.eval_cost(10));
        assert!(c.eval_cost(0) >= c.kernel_overhead);
    }
}
