//! Kernel functions.
//!
//! The paper evaluates with the Gaussian kernel
//! `Φ(x, y) = exp(−γ‖x − y‖²)` and notes the infrastructure "allows us to
//! plugin other kernels (such as linear, polynomial)" (§V-C); all four
//! libsvm kernels are provided. Table III reports the kernel width `σ²`,
//! mapped to `γ = 1/(2σ²)` (the conventional reading of "width").
//!
//! [`KernelEval`] binds a kernel to a dataset and precomputes the per-row
//! squared norms so an RBF evaluation costs exactly one sparse dot product
//! — this is the paper's `λ` (Table I).

use crate::error::CoreError;
use crate::params::finite_positive;
use shrinksvm_sparse::{ops, CsrMatrix, RowView};

/// Kernel family and parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KernelKind {
    /// `exp(−γ‖x−y‖²)` — the paper's evaluation kernel.
    Rbf {
        /// Width parameter `γ`.
        gamma: f64,
    },
    /// `⟨x, y⟩`.
    Linear,
    /// `(γ⟨x,y⟩ + coef0)^degree`.
    Poly {
        /// Scale applied to the inner product.
        gamma: f64,
        /// Additive constant.
        coef0: f64,
        /// Polynomial degree.
        degree: u32,
    },
    /// `tanh(γ⟨x,y⟩ + coef0)`.
    Sigmoid {
        /// Scale applied to the inner product.
        gamma: f64,
        /// Additive constant.
        coef0: f64,
    },
}

impl KernelKind {
    /// Gaussian kernel from the paper's `σ²` convention: `γ = 1/(2σ²)`.
    pub fn rbf_from_sigma_sq(sigma_sq: f64) -> Self {
        KernelKind::Rbf {
            gamma: 1.0 / (2.0 * sigma_sq),
        }
    }

    /// Check parameter ranges: γ finite and positive, `coef0` finite and
    /// the polynomial degree at least 1.
    pub fn validate(&self) -> Result<(), CoreError> {
        let (gamma, coef0, degree) = match *self {
            KernelKind::Rbf { gamma } => (gamma, 0.0, 1),
            KernelKind::Linear => return Ok(()),
            KernelKind::Poly {
                gamma,
                coef0,
                degree,
            } => (gamma, coef0, degree),
            KernelKind::Sigmoid { gamma, coef0 } => (gamma, coef0, 1),
        };
        let bad = if !finite_positive(gamma) {
            format!("gamma must be finite and positive, got {gamma}")
        } else if !coef0.is_finite() {
            format!("coef0 must be finite, got {coef0}")
        } else if degree < 1 {
            "degree must be at least 1".into()
        } else {
            return Ok(());
        };
        Err(CoreError::BadParams(format!(
            "invalid kernel parameters {self:?}: {bad}"
        )))
    }

    /// Evaluate on two rows given their squared norms (norms are only used
    /// by the RBF branch).
    #[inline]
    pub fn eval(&self, a: RowView<'_>, b: RowView<'_>, a_sq: f64, b_sq: f64) -> f64 {
        self.eval_from_dot(ops::dot(a, b), a_sq, b_sq)
    }

    /// Evaluate from an already-computed inner product `⟨a, b⟩`.
    ///
    /// Every kernel family is a function of the dot product (plus the
    /// squared norms, for RBF), so [`eval`](Self::eval) is this applied to
    /// the merge-join dot. The distributed solver's kernel-column fills and
    /// [`SvmModel::decision`](crate::model::SvmModel::decision) obtain the
    /// dot from the sparse product of a [`shrinksvm_sparse::ColumnMajor`]
    /// copy instead, which is bit-identical to the merge-join, so their
    /// kernel values are bit-identical too: the post-dot arithmetic is this
    /// one function either way. The merge-join stays in
    /// [`eval`](Self::eval) on purpose: it is the reference
    /// `DotKind::MergeJoin` is compared against and the dot of the
    /// sequential libsvm analogs ([`KernelEval`]).
    #[inline]
    pub fn eval_from_dot(&self, dot_ab: f64, a_sq: f64, b_sq: f64) -> f64 {
        match *self {
            KernelKind::Rbf { gamma } => {
                let d2 = ops::squared_distance_from_dot(dot_ab, a_sq, b_sq);
                (-gamma * d2).exp()
            }
            KernelKind::Linear => dot_ab,
            KernelKind::Poly {
                gamma,
                coef0,
                degree,
            } => (gamma * dot_ab + coef0).powi(degree as i32),
            KernelKind::Sigmoid { gamma, coef0 } => (gamma * dot_ab + coef0).tanh(),
        }
    }

    /// Evaluate without cached norms (computes them on the fly).
    pub fn eval_direct(&self, a: RowView<'_>, b: RowView<'_>) -> f64 {
        self.eval(a, b, a.squared_norm(), b.squared_norm())
    }

    /// Short display name used by model files and reports.
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Rbf { .. } => "rbf",
            KernelKind::Linear => "linear",
            KernelKind::Poly { .. } => "poly",
            KernelKind::Sigmoid { .. } => "sigmoid",
        }
    }
}

/// A kernel bound to one dataset, with cached row norms.
pub struct KernelEval<'a> {
    kind: KernelKind,
    x: &'a CsrMatrix,
    sq_norms: Vec<f64>,
}

impl<'a> KernelEval<'a> {
    /// Bind `kind` to `x`, computing the per-row squared norms once.
    pub fn new(kind: KernelKind, x: &'a CsrMatrix) -> Self {
        KernelEval {
            kind,
            x,
            sq_norms: x.row_squared_norms(),
        }
    }

    /// The bound kernel.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// The bound matrix.
    pub fn matrix(&self) -> &'a CsrMatrix {
        self.x
    }

    /// Cached squared norm of row `i`.
    #[inline]
    pub fn sq_norm(&self, i: usize) -> f64 {
        self.sq_norms[i]
    }

    /// `K(x_i, x_j)` between two bound rows.
    #[inline]
    pub fn k(&self, i: usize, j: usize) -> f64 {
        self.kind.eval(
            self.x.row(i),
            self.x.row(j),
            self.sq_norms[i],
            self.sq_norms[j],
        )
    }

    /// `K(x_i, v)` between a bound row and a foreign vector with known
    /// squared norm (how the distributed solver evaluates received rows).
    #[inline]
    pub fn k_vs(&self, i: usize, v: RowView<'_>, v_sq: f64) -> f64 {
        self.kind.eval(self.x.row(i), v, self.sq_norms[i], v_sq)
    }

    /// Fill `out[j] = K(x_i, x_j)` for all bound rows (a full kernel row —
    /// what the baseline's cache stores).
    pub fn fill_row(&self, i: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.x.nrows());
        let ri = self.x.row(i);
        let sqi = self.sq_norms[i];
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = self.kind.eval(ri, self.x.row(j), sqi, self.sq_norms[j]);
        }
    }
}

/// Check that every row of a training matrix has a finite squared norm.
///
/// The kernels evaluate `‖a − b‖²` as `‖a‖² + ‖b‖² − 2⟨a,b⟩` and the
/// diagonal as `⟨a,a⟩`, so an infinite or NaN norm makes every kernel value
/// that touches the row NaN, and training would end in a model with a NaN
/// bias. A row fails when it holds ±inf or NaN, or when its finite values
/// square past `f64::MAX`. Returns [`CoreError::NonFiniteRow`] for the
/// first such row. Prediction takes any row: a test row only touches its
/// own decision.
pub(crate) fn check_finite_rows(x: &CsrMatrix) -> Result<(), CoreError> {
    for i in 0..x.nrows() {
        let row = x.row(i);
        if !row.squared_norm().is_finite() {
            let column = row.iter().find(|(_, v)| !v.is_finite()).map(|(c, _)| c);
            return Err(CoreError::NonFiniteRow { row: i, column });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> CsrMatrix {
        CsrMatrix::from_dense(
            &[
                vec![1.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 1.0],
                vec![0.5, -0.5],
            ],
            2,
        )
        .unwrap()
    }

    #[test]
    fn rbf_self_is_one_and_bounded() {
        let x = matrix();
        let ke = KernelEval::new(KernelKind::Rbf { gamma: 0.5 }, &x);
        for i in 0..4 {
            assert!((ke.k(i, i) - 1.0).abs() < 1e-15);
            for j in 0..4 {
                let v = ke.k(i, j);
                assert!(v > 0.0 && v <= 1.0, "rbf out of (0,1]: {v}");
                assert!((v - ke.k(j, i)).abs() < 1e-15, "symmetry");
            }
        }
    }

    #[test]
    fn rbf_matches_closed_form() {
        let x = matrix();
        let ke = KernelEval::new(KernelKind::Rbf { gamma: 2.0 }, &x);
        // ||x0 - x1||^2 = 2
        assert!((ke.k(0, 1) - (-4.0f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn sigma_sq_convention() {
        let k = KernelKind::rbf_from_sigma_sq(4.0);
        match k {
            KernelKind::Rbf { gamma } => assert!((gamma - 0.125).abs() < 1e-15),
            _ => unreachable!(),
        }
    }

    #[test]
    fn linear_is_dot() {
        let x = matrix();
        let ke = KernelEval::new(KernelKind::Linear, &x);
        assert_eq!(ke.k(0, 2), 1.0);
        assert_eq!(ke.k(2, 3), 0.0);
    }

    #[test]
    fn poly_matches_manual() {
        let x = matrix();
        let ke = KernelEval::new(
            KernelKind::Poly {
                gamma: 1.0,
                coef0: 1.0,
                degree: 2,
            },
            &x,
        );
        // (⟨x0,x2⟩ + 1)^2 = (1+1)^2 = 4
        assert_eq!(ke.k(0, 2), 4.0);
    }

    #[test]
    fn sigmoid_is_tanh() {
        let x = matrix();
        let ke = KernelEval::new(
            KernelKind::Sigmoid {
                gamma: 1.0,
                coef0: 0.0,
            },
            &x,
        );
        assert!((ke.k(0, 2) - 1.0f64.tanh()).abs() < 1e-15);
    }

    #[test]
    fn foreign_row_eval_matches_bound() {
        let x = matrix();
        let ke = KernelEval::new(KernelKind::Rbf { gamma: 1.0 }, &x);
        let foreign = x.row(3);
        let fsq = foreign.squared_norm();
        for i in 0..4 {
            assert!((ke.k_vs(i, foreign, fsq) - ke.k(i, 3)).abs() < 1e-15);
        }
    }

    #[test]
    fn fill_row_matches_pointwise() {
        let x = matrix();
        let ke = KernelEval::new(KernelKind::Rbf { gamma: 0.7 }, &x);
        let mut row = vec![0.0; 4];
        ke.fill_row(2, &mut row);
        for (j, v) in row.iter().enumerate() {
            assert_eq!(*v, ke.k(2, j));
        }
    }

    #[test]
    fn eval_from_dot_bitwise_matches_eval() {
        let x = matrix();
        let kinds = [
            KernelKind::Rbf { gamma: 0.7 },
            KernelKind::Linear,
            KernelKind::Poly {
                gamma: 0.5,
                coef0: 1.0,
                degree: 3,
            },
            KernelKind::Sigmoid {
                gamma: 0.5,
                coef0: -0.5,
            },
        ];
        for kind in kinds {
            let ke = KernelEval::new(kind, &x);
            for i in 0..4 {
                for j in 0..4 {
                    let d = shrinksvm_sparse::ops::dot(x.row(i), x.row(j));
                    let via = kind.eval_from_dot(d, ke.sq_norm(i), ke.sq_norm(j));
                    assert_eq!(via.to_bits(), ke.k(i, j).to_bits(), "{kind:?} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn eval_direct_matches_cached() {
        let x = matrix();
        let ke = KernelEval::new(KernelKind::Rbf { gamma: 0.3 }, &x);
        let v = KernelKind::Rbf { gamma: 0.3 }.eval_direct(x.row(0), x.row(1));
        assert!((v - ke.k(0, 1)).abs() < 1e-15);
    }

    #[test]
    fn names() {
        assert_eq!(KernelKind::Linear.name(), "linear");
        assert_eq!(KernelKind::Rbf { gamma: 1.0 }.name(), "rbf");
    }
}
