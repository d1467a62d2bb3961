//! Training hyper-parameters.

use crate::error::CoreError;
use crate::kernel::KernelKind;
use crate::shrink::ShrinkPolicy;

/// All knobs of a training run.
///
/// `epsilon` is the paper's user-specified tolerance `ε`: optimization stops
/// when `β_up + 2ε ≥ β_low` (Eq. 5). `tau` is the positive-semidefinite
/// floor used when the pair curvature `η = K_uu + K_ll − 2K_ul` degenerates
/// (Platt's fallback case, §III).
#[derive(Clone, Debug)]
pub struct SvmParams {
    /// Box constraint `C` (Table III).
    pub c: f64,
    /// Kernel function.
    pub kernel: KernelKind,
    /// Convergence tolerance `ε`.
    pub epsilon: f64,
    /// Safety cap on iterations; training reports `converged = false` when
    /// hit.
    pub max_iter: u64,
    /// Shrinking configuration (Table II); `ShrinkPolicy::none()` recovers
    /// the *Original* algorithm.
    pub shrink: ShrinkPolicy,
    /// Kernel-cache budget in bytes (`0` disables). The
    /// sequential/multicore baseline caches full kernel rows; the
    /// distributed solver uses the same budget per rank for a
    /// shrink-aware pivot-row cache over its active span.
    pub cache_bytes: usize,
    /// Degenerate-curvature floor.
    pub tau: f64,
    /// Consecutive zero-progress iterations tolerated before declaring a
    /// numerical stall.
    pub stall_limit: u64,
    /// Per-class multipliers `(w₊, w₋)` of the box constraint:
    /// `Cᵢ = C · w_{yᵢ}` (libsvm's `-w` option, for class imbalance).
    pub class_weights: (f64, f64),
    /// Working-set selection strategy for the *sequential* solver (the
    /// distributed algorithm always uses the maximal violating pair, as
    /// the paper's Algorithm 2 does).
    pub wss: WssKind,
}

/// Working-set selection strategy (Keerthi et al., cited in §II-A2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WssKind {
    /// First-order: the maximal violating pair `(argmin γ, argmax γ)` —
    /// what the paper's distributed algorithm uses.
    #[default]
    MaxViolatingPair,
    /// Second-order (libsvm's default): `i = argmin γ` over the up set,
    /// then `j` maximizing the guaranteed objective decrease
    /// `(γᵢ − γⱼ)²/ηᵢⱼ` among violating low-set members.
    SecondOrder,
}

impl SvmParams {
    /// Parameters with the paper's defaults: `ε = 1e-3`, no shrinking,
    /// no cache.
    pub fn new(c: f64, kernel: KernelKind) -> Self {
        SvmParams {
            c,
            kernel,
            epsilon: 1e-3,
            max_iter: 50_000_000,
            shrink: ShrinkPolicy::none(),
            cache_bytes: 0,
            tau: 1e-12,
            stall_limit: 1_000,
            class_weights: (1.0, 1.0),
            wss: WssKind::MaxViolatingPair,
        }
    }

    /// Set per-class weights `(w₊, w₋)`.
    pub fn with_class_weights(mut self, pos: f64, neg: f64) -> Self {
        self.class_weights = (pos, neg);
        self
    }

    /// Set the sequential solver's working-set selection strategy.
    pub fn with_wss(mut self, wss: WssKind) -> Self {
        self.wss = wss;
        self
    }

    /// Effective box constraint for a sample with label `y`.
    #[inline]
    pub fn c_for(&self, y: f64) -> f64 {
        self.c
            * if y > 0.0 {
                self.class_weights.0
            } else {
                self.class_weights.1
            }
    }

    /// Set the tolerance `ε`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Set the iteration cap.
    pub fn with_max_iter(mut self, max_iter: u64) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Set the shrinking policy.
    pub fn with_shrink(mut self, shrink: ShrinkPolicy) -> Self {
        self.shrink = shrink;
        self
    }

    /// Set the baseline solver's kernel-cache budget.
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Validate ranges; called by the solvers before training. C, ε, τ and
    /// both class weights must be finite and positive: an infinite C leaves
    /// no multiplier inside the bound tolerance, and an infinite ε stops
    /// training before the first iteration.
    pub fn validate(&self) -> Result<(), CoreError> {
        let (w_pos, w_neg) = self.class_weights;
        for (name, v) in [
            ("C", self.c),
            ("epsilon", self.epsilon),
            ("tau", self.tau),
            ("class weight w+", w_pos),
            ("class weight w-", w_neg),
        ] {
            if !finite_positive(v) {
                return Err(CoreError::BadParams(format!(
                    "{name} must be finite and positive, got {v}"
                )));
            }
        }
        self.kernel.validate()
    }
}

/// `v` is finite and above zero (NaN is neither).
pub(crate) fn finite_positive(v: f64) -> bool {
    v.is_finite() && v > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain_sets_fields() {
        let p = SvmParams::new(10.0, KernelKind::Linear)
            .with_epsilon(1e-4)
            .with_max_iter(5)
            .with_cache_bytes(1 << 20);
        assert_eq!(p.c, 10.0);
        assert_eq!(p.epsilon, 1e-4);
        assert_eq!(p.max_iter, 5);
        assert_eq!(p.cache_bytes, 1 << 20);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        assert!(SvmParams::new(0.0, KernelKind::Linear).validate().is_err());
        assert!(SvmParams::new(-1.0, KernelKind::Linear).validate().is_err());
        assert!(SvmParams::new(1.0, KernelKind::Linear)
            .with_epsilon(0.0)
            .validate()
            .is_err());
        assert!(SvmParams::new(1.0, KernelKind::Rbf { gamma: -1.0 })
            .validate()
            .is_err());
        // every parameter, at ±∞ and NaN; the error names it
        let base = SvmParams::new(1.0, KernelKind::Rbf { gamma: 0.5 });
        assert!(base.validate().is_ok());
        let poly = |gamma, coef0| KernelKind::Poly {
            gamma,
            coef0,
            degree: 3,
        };
        let sigmoid = |gamma, coef0| KernelKind::Sigmoid { gamma, coef0 };
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let bad: [(&str, SvmParams); 11] = [
                (
                    "C",
                    SvmParams {
                        c: v,
                        ..base.clone()
                    },
                ),
                ("epsilon", base.clone().with_epsilon(v)),
                (
                    "tau",
                    SvmParams {
                        tau: v,
                        ..base.clone()
                    },
                ),
                ("w+", base.clone().with_class_weights(v, 1.0)),
                ("w-", base.clone().with_class_weights(1.0, v)),
                ("gamma", SvmParams::new(1.0, KernelKind::Rbf { gamma: v })),
                ("gamma", SvmParams::new(1.0, poly(v, 0.0))),
                ("gamma", SvmParams::new(1.0, sigmoid(v, 0.0))),
                ("coef0", SvmParams::new(1.0, poly(1.0, v))),
                ("coef0", SvmParams::new(1.0, sigmoid(1.0, v))),
                (
                    "gamma",
                    SvmParams::new(1.0, KernelKind::rbf_from_sigma_sq(0.0)),
                ),
            ];
            for (name, p) in bad {
                match p.validate() {
                    Err(CoreError::BadParams(msg)) => assert!(msg.contains(name), "{v}: {msg}"),
                    other => panic!("{name} = {v} accepted: {other:?}"),
                }
            }
        }
        // a finite negative coef0 is legal
        assert!(SvmParams::new(1.0, poly(1.0, -2.0)).validate().is_ok());
    }
}
