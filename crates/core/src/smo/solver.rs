//! The sequential / multicore SMO solver (the libsvm baseline of §V-A).
//!
//! Maximal-violating-pair working-set selection (Keerthi et al.), an LRU
//! kernel-row cache sized by [`crate::params::SvmParams::cache_bytes`]
//! (the paper grants libsvm the node's entire memory as cache), and — the
//! paper's "libsvm-enhanced" contribution — OpenMP-style parallel kernel-row
//! computation and gradient updates through a
//! [`shrinksvm_threads::ThreadPool`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use shrinksvm_obs::MetricsRegistry;
use shrinksvm_sparse::Dataset;
use shrinksvm_threads::ThreadPool;

use crate::cache::{CacheStats, KernelCache, Lookup};
use crate::dist::solver::metrics_epoch;
use crate::error::CoreError;
use crate::kernel::{check_finite_rows, KernelEval};
use crate::model::SvmModel;
use crate::params::{SvmParams, WssKind};
use crate::smo::state::{bound_tol, classify, in_low_set, in_up_set, IndexSet};
use crate::smo::update::solve_pair_weighted;

/// Everything a training run produced.
#[derive(Clone, Debug)]
pub struct TrainOutput {
    /// The trained classifier.
    pub model: SvmModel,
    /// SMO iterations executed.
    pub iterations: u64,
    /// Whether the `β_up + 2ε ≥ β_low` condition was reached (false ⇒ the
    /// iteration cap stopped training first).
    pub converged: bool,
    /// Kernel evaluations actually computed (cache misses × n).
    pub kernel_evals: u64,
    /// Kernel-cache counters.
    pub cache_stats: CacheStats,
    /// Wall-clock training time.
    pub wall_time: Duration,
    /// Final optimality gap `β_low − β_up`.
    pub final_gap: f64,
    /// Solver telemetry: a `cache_hit_rate` series sampled every
    /// [`metrics_epoch`] iterations, plus final-state gauges.
    pub metrics: MetricsRegistry,
}

/// Sequential / multicore SMO trainer.
pub struct SmoSolver<'a> {
    ds: &'a Dataset,
    params: SvmParams,
    pool: Option<&'a ThreadPool>,
}

impl<'a> SmoSolver<'a> {
    /// A solver for `ds` with `params`.
    pub fn new(ds: &'a Dataset, params: SvmParams) -> Self {
        SmoSolver {
            ds,
            params,
            pool: None,
        }
    }

    /// Attach a thread pool — the "libsvm-enhanced with OpenMP"
    /// configuration. Kernel rows and gradient updates are then computed in
    /// parallel; everything else stays identical, so results match the
    /// sequential solver exactly.
    pub fn with_pool(mut self, pool: &'a ThreadPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Train, consuming the solver. A training row whose squared norm is
    /// not finite is a [`CoreError::NonFiniteRow`].
    pub fn train(self) -> Result<TrainOutput, CoreError> {
        self.params.validate()?;
        let n = self.ds.len();
        if n < 2 {
            return Err(CoreError::DegenerateProblem(format!("{n} samples")));
        }
        let (pos, neg) = self.ds.class_counts();
        if pos == 0 || neg == 0 {
            return Err(CoreError::DegenerateProblem(
                "all samples share one class".into(),
            ));
        }
        check_finite_rows(&self.ds.x)?;

        #[allow(clippy::disallowed_methods)]
        // allow-wall-clock: host-side metric (reported solve time), not simulated time
        let start = Instant::now();
        let c_pos = self.params.c_for(1.0);
        let c_neg = self.params.c_for(-1.0);
        let eps = self.params.epsilon;
        let y = &self.ds.y;
        let ke = KernelEval::new(self.params.kernel, &self.ds.x);
        let mut cache = KernelCache::with_byte_budget(self.params.cache_bytes, n);
        // kernel diagonal, needed by second-order selection's gain formula
        let diag: Vec<f64> = if self.params.wss == WssKind::SecondOrder {
            (0..n).map(|i| ke.k(i, i)).collect()
        } else {
            Vec::new()
        };

        let mut alpha = vec![0.0f64; n];
        let mut grad: Vec<f64> = y.iter().map(|yi| -yi).collect();

        let mut iterations = 0u64;
        let mut converged = false;
        let mut stall = 0u64;
        let mut metrics = MetricsRegistry::new();
        #[allow(unused_assignments)]
        let mut final_gap = f64::INFINITY;

        loop {
            if iterations > 0 && iterations.is_multiple_of(metrics_epoch()) {
                let s = cache.stats();
                let lookups = s.hits + s.misses;
                if lookups > 0 {
                    metrics.sample("cache_hit_rate", iterations, s.hits as f64 / lookups as f64);
                }
            }
            // Working-set selection: the maximal violating pair.
            let Some((i_up, g_up, mvp_low, g_low)) =
                select_pair_weighted(y, &alpha, &grad, c_pos, c_neg)
            else {
                // one scan set went empty — optimal by convention
                converged = true;
                final_gap = 0.0;
                break;
            };
            final_gap = g_low - g_up;
            if g_up + 2.0 * eps > g_low {
                converged = true;
                break;
            }
            if iterations >= self.params.max_iter {
                break;
            }

            let row_up = self.kernel_row(&ke, &mut cache, i_up, n);
            // Second-order selection (libsvm's WSS): maximize the
            // guaranteed decrease (γ_up − γ_j)²/η among violators.
            let i_low = match self.params.wss {
                WssKind::MaxViolatingPair => mvp_low,
                WssKind::SecondOrder => {
                    let mut best = mvp_low;
                    let mut best_gain = f64::NEG_INFINITY;
                    for j in 0..n {
                        let cj = if y[j] > 0.0 { c_pos } else { c_neg };
                        if !in_low_set(y[j], alpha[j], cj) {
                            continue;
                        }
                        let b = grad[j] - g_up;
                        if b <= 0.0 {
                            continue; // not a violator against i_up
                        }
                        let eta = (row_up[i_up] + diag[j] - 2.0 * row_up[j]).max(self.params.tau);
                        let gain = b * b / eta;
                        if gain > best_gain {
                            best_gain = gain;
                            best = j;
                        }
                    }
                    best
                }
            };
            let row_low = self.kernel_row(&ke, &mut cache, i_low, n);
            let sol = solve_pair_weighted(
                y[i_up],
                y[i_low],
                alpha[i_up],
                alpha[i_low],
                g_up,
                grad[i_low],
                row_up[i_up],
                row_low[i_low],
                row_up[i_low],
                if y[i_up] > 0.0 { c_pos } else { c_neg },
                if y[i_low] > 0.0 { c_pos } else { c_neg },
                self.params.tau,
            );
            if sol.is_null() {
                stall += 1;
                if stall > self.params.stall_limit {
                    return Err(CoreError::Stalled {
                        at_iteration: iterations,
                    });
                }
            } else {
                stall = 0;
            }
            alpha[i_up] = sol.alpha_up;
            alpha[i_low] = sol.alpha_low;

            // Gradient update (Eq. 2) — the hot loop the paper's OpenMP
            // enhancement parallelizes.
            let cu = y[i_up] * sol.delta_up;
            let cl = y[i_low] * sol.delta_low;
            if cu != 0.0 || cl != 0.0 {
                let ru = &row_up;
                let rl = &row_low;
                match self.pool {
                    Some(pool) => pool.parallel_for_slices(&mut grad, |off, chunk| {
                        for (k, g) in chunk.iter_mut().enumerate() {
                            let j = off + k;
                            *g += cu * ru[j] + cl * rl[j];
                        }
                    }),
                    None => {
                        for (j, g) in grad.iter_mut().enumerate() {
                            *g += cu * ru[j] + cl * rl[j];
                        }
                    }
                }
            }
            iterations += 1;
        }

        let bias = compute_bias_weighted(y, &alpha, &grad, c_pos, c_neg);
        let model = SvmModel::from_training(
            self.params.kernel,
            &self.ds.x,
            y,
            &alpha,
            bias,
            c_pos.max(c_neg),
        )?;
        let cache_stats = cache.stats();
        let lookups = cache_stats.hits + cache_stats.misses;
        if lookups > 0 {
            metrics.set_gauge("cache_hit_rate", cache_stats.hits as f64 / lookups as f64);
        }
        metrics.set_gauge("iterations", iterations as f64);
        Ok(TrainOutput {
            model,
            iterations,
            converged,
            kernel_evals: cache_stats.misses * n as u64,
            cache_stats,
            wall_time: start.elapsed(),
            final_gap,
            metrics,
        })
    }

    /// Look up the full kernel row for sample `i`, computing it on a miss
    /// (in parallel when a pool is attached).
    fn kernel_row(
        &self,
        ke: &KernelEval<'_>,
        cache: &mut KernelCache,
        i: usize,
        n: usize,
    ) -> Arc<Vec<f64>> {
        let ticket = match cache.lookup(i) {
            Lookup::Hit(row) => return row,
            Lookup::Miss(ticket) => ticket,
        };
        let mut row = vec![0.0f64; n];
        match self.pool {
            Some(pool) => {
                let x = ke.matrix();
                let ri = x.row(i);
                let sqi = ke.sq_norm(i);
                let kind = ke.kind();
                pool.parallel_for_slices(&mut row, |off, chunk| {
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        let j = off + k;
                        *slot = kind.eval(ri, x.row(j), sqi, ke.sq_norm(j));
                    }
                });
            }
            None => ke.fill_row(i, &mut row),
        }
        cache.fill(ticket, row)
    }
}

/// Scan for the maximal violating pair over all samples. Returns
/// `(i_up, γ_up, i_low, γ_low)`, or `None` if either scan set is empty.
pub fn select_pair(
    y: &[f64],
    alpha: &[f64],
    grad: &[f64],
    c: f64,
) -> Option<(usize, f64, usize, f64)> {
    select_pair_weighted(y, alpha, grad, c, c)
}

/// [`select_pair`] with per-class bounds.
pub fn select_pair_weighted(
    y: &[f64],
    alpha: &[f64],
    grad: &[f64],
    c_pos: f64,
    c_neg: f64,
) -> Option<(usize, f64, usize, f64)> {
    let mut i_up = usize::MAX;
    let mut g_up = f64::INFINITY;
    let mut i_low = usize::MAX;
    let mut g_low = f64::NEG_INFINITY;
    for i in 0..y.len() {
        let g = grad[i];
        let ci = if y[i] > 0.0 { c_pos } else { c_neg };
        if in_up_set(y[i], alpha[i], ci) && g < g_up {
            g_up = g;
            i_up = i;
        }
        if in_low_set(y[i], alpha[i], ci) && g > g_low {
            g_low = g;
            i_low = i;
        }
    }
    if i_up == usize::MAX || i_low == usize::MAX {
        None
    } else {
        Some((i_up, g_up, i_low, g_low))
    }
}

/// Hyperplane threshold `β` (§III): the mean gradient over `I0`, or the
/// bracket midpoint when no free vectors exist.
pub fn compute_bias(y: &[f64], alpha: &[f64], grad: &[f64], c: f64) -> f64 {
    compute_bias_weighted(y, alpha, grad, c, c)
}

/// [`compute_bias`] with per-class bounds.
pub fn compute_bias_weighted(
    y: &[f64],
    alpha: &[f64],
    grad: &[f64],
    c_pos: f64,
    c_neg: f64,
) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    let mut b_up = f64::INFINITY;
    let mut b_low = f64::NEG_INFINITY;
    for i in 0..y.len() {
        let c = if y[i] > 0.0 { c_pos } else { c_neg };
        if classify(y[i], alpha[i], c) == IndexSet::I0 {
            sum += grad[i];
            count += 1;
        }
        if in_up_set(y[i], alpha[i], c) {
            b_up = b_up.min(grad[i]);
        }
        if in_low_set(y[i], alpha[i], c) {
            b_low = b_low.max(grad[i]);
        }
    }
    if count > 0 {
        sum / count as f64
    } else {
        (b_low + b_up) / 2.0
    }
}

/// Indices with `α` meaningfully above zero (the support vectors).
pub fn support_indices(alpha: &[f64], c: f64) -> Vec<usize> {
    let tol = bound_tol(c);
    (0..alpha.len()).filter(|&i| alpha[i] > tol).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelKind;
    use crate::smo::dual_objective;
    use shrinksvm_datagen::gaussian;
    use shrinksvm_datagen::planted::PlantedConfig;
    use shrinksvm_sparse::{CsrBuilder, CsrMatrix};

    fn params(c: f64, sigma_sq: f64) -> SvmParams {
        SvmParams::new(c, KernelKind::rbf_from_sigma_sq(sigma_sq)).with_epsilon(1e-3)
    }

    #[test]
    fn trains_separable_blobs_to_high_accuracy() {
        let ds = gaussian::two_blobs(200, 4, 6.0, 1);
        let out = SmoSolver::new(&ds, params(1.0, 2.0)).train().unwrap();
        assert!(out.converged);
        let correct = (0..ds.len())
            .filter(|&i| out.model.predict(ds.x.row(i)) == ds.y[i])
            .count();
        assert!(correct >= 198, "train accuracy {correct}/200");
        // separable blobs → few SVs
        assert!(out.model.n_sv() < 100, "{} SVs", out.model.n_sv());
    }

    #[test]
    fn solves_xor_with_rbf() {
        let ds = gaussian::xor(160, 0.15, 2);
        let out = SmoSolver::new(&ds, params(10.0, 0.5)).train().unwrap();
        assert!(out.converged);
        let correct = (0..ds.len())
            .filter(|&i| out.model.predict(ds.x.row(i)) == ds.y[i])
            .count();
        assert!(correct as f64 / 160.0 > 0.97, "xor accuracy {correct}/160");
    }

    #[test]
    fn linear_kernel_on_planted_data() {
        let ds = PlantedConfig::small_demo(3).generate();
        let p = SvmParams::new(10.0, KernelKind::Linear).with_epsilon(1e-3);
        let out = SmoSolver::new(&ds, p).train().unwrap();
        assert!(out.converged);
        let correct = (0..ds.len())
            .filter(|&i| out.model.predict(ds.x.row(i)) == ds.y[i])
            .count();
        assert_eq!(correct, ds.len(), "clean planted data is separable");
    }

    #[test]
    fn pool_and_sequential_agree_exactly() {
        let ds = gaussian::rings(120, 1.0, 0.05, 4);
        let seq = SmoSolver::new(&ds, params(4.0, 0.5)).train().unwrap();
        let pool = ThreadPool::new(3);
        let par = SmoSolver::new(&ds, params(4.0, 0.5))
            .with_pool(&pool)
            .train()
            .unwrap();
        assert_eq!(seq.iterations, par.iterations);
        assert_eq!(seq.model.bias(), par.model.bias());
        assert_eq!(seq.model.n_sv(), par.model.n_sv());
    }

    #[test]
    fn cache_reduces_kernel_evals() {
        let ds = gaussian::two_blobs(150, 4, 3.0, 5);
        let no_cache = SmoSolver::new(&ds, params(1.0, 2.0)).train().unwrap();
        let cached = SmoSolver::new(&ds, params(1.0, 2.0).with_cache_bytes(64 << 20))
            .train()
            .unwrap();
        assert_eq!(no_cache.iterations, cached.iterations);
        assert!(cached.kernel_evals < no_cache.kernel_evals);
        assert!(cached.cache_stats.hits > 0);
    }

    #[test]
    fn max_iter_caps_and_reports_unconverged() {
        let ds = gaussian::two_blobs(100, 4, 1.0, 6);
        let out = SmoSolver::new(&ds, params(1.0, 2.0).with_max_iter(3))
            .train()
            .unwrap();
        assert!(!out.converged);
        assert_eq!(out.iterations, 3);
        assert!(out.final_gap > 0.0);
    }

    #[test]
    fn rejects_degenerate_problems() {
        let x = CsrMatrix::from_dense(&[vec![1.0], vec![2.0]], 1).unwrap();
        let one_class = Dataset::new(x, vec![1.0, 1.0]).unwrap();
        assert!(matches!(
            SmoSolver::new(&one_class, params(1.0, 1.0)).train(),
            Err(CoreError::DegenerateProblem(_))
        ));
    }

    #[test]
    fn rejects_rows_whose_squared_norm_is_not_finite() {
        type Row<'r> = (&'r [u32], &'r [f64]);
        let train = |rows: [Row<'_>; 4]| {
            let mut b = CsrBuilder::new(3);
            for (idx, val) in rows {
                b.push_row(idx, val).unwrap();
            }
            let ds = Dataset::new(b.finish(), vec![1.0, -1.0, 1.0, -1.0]).unwrap();
            SmoSolver::new(&ds, params(1.0, 1.0)).train().map(|_| ())
        };
        let ok1: Row<'_> = (&[1, 2], &[0.25, -1.0]);
        let ok2: Row<'_> = (&[1, 2], &[1.0, -0.5]);
        let nan: Row<'_> = (&[0, 1], &[1.0, f64::NAN]);
        // the first bad row is named, with its first non-finite column
        assert!(matches!(
            train([(&[0, 2], &[f64::INFINITY, 1.0]), ok1, nan, ok2]),
            Err(CoreError::NonFiniteRow {
                row: 0,
                column: Some(0)
            })
        ));
        assert!(matches!(
            train([ok2, ok1, nan, (&[2], &[f64::NEG_INFINITY])]),
            Err(CoreError::NonFiniteRow {
                row: 2,
                column: Some(1)
            })
        ));
        // finite values whose squares overflow name no column
        assert!(matches!(
            train([ok2, (&[0, 2], &[1e308, 1e308]), ok1, ok2]),
            Err(CoreError::NonFiniteRow {
                row: 1,
                column: None
            })
        ));
        assert!(train([(&[0, 2], &[1e150, 1.0]), ok1, ok2, ok1]).is_ok());
    }

    #[test]
    fn feasibility_invariants_hold_after_training() {
        let ds = gaussian::two_blobs(120, 3, 2.0, 7);
        let c = 2.0;
        // re-run the internal loop manually to inspect alpha
        let p = params(c, 1.0);
        let out = SmoSolver::new(&ds, p).train().unwrap();
        // reconstruct alpha from the model: Σ coef·y consistency
        // coef = α y, so Σ coef = Σ α y must be ~0.
        let sum: f64 = out.model.coefficients().iter().sum();
        assert!(sum.abs() < 1e-9, "Σ α y = {sum}");
        for &coef in out.model.coefficients() {
            assert!(coef.abs() <= c + 1e-9, "|coef| {coef} exceeds C");
        }
    }

    #[test]
    fn objective_decreases_across_run() {
        // train twice with different iteration caps; the longer run must
        // reach a lower (better) dual objective.
        let ds = gaussian::two_blobs(80, 3, 1.5, 8);
        let ke = KernelEval::new(KernelKind::rbf_from_sigma_sq(1.0), &ds.x);
        let alpha_after = |iters: u64| {
            let out = SmoSolver::new(&ds, params(1.0, 1.0).with_max_iter(iters))
                .train()
                .unwrap();
            // rebuild a full alpha vector from the model SV list
            let mut alpha = vec![0.0; ds.len()];
            for (k, &idx) in out.model.training_indices().iter().enumerate() {
                alpha[idx] = out.model.coefficients()[k] * ds.y[idx];
            }
            alpha
        };
        let a_short = alpha_after(5);
        let a_long = alpha_after(200);
        let o_short = dual_objective(&ke, &ds.y, &a_short);
        let o_long = dual_objective(&ke, &ds.y, &a_long);
        assert!(
            o_long <= o_short + 1e-12,
            "objective must not increase: {o_short} -> {o_long}"
        );
    }

    #[test]
    fn select_pair_finds_worst_violators() {
        let y = [1.0, -1.0, 1.0, -1.0];
        let alpha = [0.0, 0.0, 0.0, 0.0];
        let grad = [-1.0, 1.0, -3.0, 2.0];
        // up-set: I1 = {0, 2}; low-set: I4 = {1, 3}
        let (iu, gu, il, gl) = select_pair(&y, &alpha, &grad, 1.0).unwrap();
        assert_eq!((iu, il), (2, 3));
        assert_eq!((gu, gl), (-3.0, 2.0));
    }

    #[test]
    fn bias_midpoint_when_no_free_vectors() {
        let y = [1.0, -1.0];
        let alpha = [0.0, 0.0];
        let grad = [-1.0, 1.0];
        let b = compute_bias(&y, &alpha, &grad, 1.0);
        assert_eq!(b, 0.0);
    }

    #[test]
    fn second_order_wss_reaches_the_same_model_faster_or_equal() {
        use crate::params::WssKind;
        let ds = gaussian::two_blobs(200, 6, 2.0, 21);
        let base = params(4.0, 2.0);
        let mvp = SmoSolver::new(&ds, base.clone()).train().unwrap();
        let so = SmoSolver::new(&ds, base.with_wss(WssKind::SecondOrder))
            .train()
            .unwrap();
        assert!(so.converged);
        // same classifier quality
        let agree = (0..ds.len())
            .filter(|&i| mvp.model.predict(ds.x.row(i)) == so.model.predict(ds.x.row(i)))
            .count();
        assert!(
            agree as f64 / ds.len() as f64 > 0.99,
            "{agree}/{}",
            ds.len()
        );
        // second-order selection should not need wildly more iterations
        assert!(
            so.iterations <= mvp.iterations * 2,
            "so {} vs mvp {}",
            so.iterations,
            mvp.iterations
        );
    }

    #[test]
    fn class_weights_shift_the_boundary_toward_the_heavy_class() {
        // strongly imbalanced penalty: the positive class becomes much more
        // expensive to misclassify, so positive recall rises.
        let ds = gaussian::two_blobs(300, 3, 1.2, 22); // overlapping blobs
        let plain = SmoSolver::new(&ds, params(1.0, 1.0)).train().unwrap();
        let weighted = SmoSolver::new(&ds, params(1.0, 1.0).with_class_weights(10.0, 1.0))
            .train()
            .unwrap();
        let recall = |m: &crate::model::SvmModel| {
            let mut tp = 0;
            let mut pos = 0;
            for i in 0..ds.len() {
                if ds.y[i] > 0.0 {
                    pos += 1;
                    if m.predict(ds.x.row(i)) > 0.0 {
                        tp += 1;
                    }
                }
            }
            tp as f64 / pos as f64
        };
        assert!(
            recall(&weighted.model) >= recall(&plain.model),
            "weighting the positive class must not reduce its recall"
        );
        // feasibility under per-class caps
        for (k, &idx) in weighted.model.training_indices().iter().enumerate() {
            let coef = weighted.model.coefficients()[k];
            let cap = if ds.y[idx] > 0.0 { 10.0 } else { 1.0 };
            assert!(coef.abs() <= cap + 1e-9, "coef {coef} exceeds cap {cap}");
        }
    }

    #[test]
    fn invalid_class_weights_rejected() {
        let ds = gaussian::two_blobs(20, 2, 3.0, 23);
        let p = params(1.0, 1.0).with_class_weights(0.0, 1.0);
        assert!(SmoSolver::new(&ds, p).train().is_err());
    }
}
