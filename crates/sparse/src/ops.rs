//! Sparse vector arithmetic — the inner loop of every kernel evaluation.
//!
//! The paper's time-complexity symbol `λ` (Table I) is the average cost of
//! one inner product `⟨x_i, x_j⟩`; these functions are exactly what `λ`
//! measures in our reproduction (see `shrinksvm-core::perfmodel`).

use crate::rowview::RowView;

/// Merge-join dot product of two sparse rows. `O(nnz_a + nnz_b)`.
#[inline]
pub fn dot(a: RowView<'_>, b: RowView<'_>) -> f64 {
    let (ai, av) = (a.indices, a.values);
    let (bi, bv) = (b.indices, b.values);
    let mut i = 0usize;
    let mut j = 0usize;
    let mut acc = 0.0;
    while i < ai.len() && j < bi.len() {
        let ca = ai[i];
        let cb = bi[j];
        if ca == cb {
            acc += av[i] * bv[j];
            i += 1;
            j += 1;
        } else if ca < cb {
            i += 1;
        } else {
            j += 1;
        }
    }
    acc
}

/// Dot product of a sparse row against a dense vector (gather form).
/// `O(nnz_a)` — used when one operand has been scattered to dense, the
/// classic trick for repeated products against the same row.
#[inline]
pub fn dot_dense(a: RowView<'_>, dense: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (c, v) in a.iter() {
        acc += v * dense[c as usize];
    }
    acc
}

/// Gather-form dot product against a *scattered* row, restricted to an
/// occupancy mask. `O(nnz_a)`.
///
/// `dense`/`occupied` describe a sparse row `b` that has been scattered into
/// a dense scratch buffer (see [`crate::scratch::ScratchPad`]): `occupied[c]`
/// is true exactly at `b`'s stored columns. Every stored entry of `a` adds
/// `av[i] * dense[c]` in ascending column order, with the product's bits
/// ANDed to zero where `occupied[c]` is false. The result is bit-identical
/// to the merge-join: `dot_scatter(a, …).to_bits() == dot(a, b).to_bits()`.
///
/// * At an occupied column the mask is all ones, so the gather adds the
///   product the merge-join adds, in the same order.
/// * At any other column it adds `+0.0`. The accumulator starts at `+0.0`,
///   and under round-to-nearest a sum that starts at `+0.0` never becomes
///   `-0.0`; adding `+0.0` to any other value (±inf and NaN included)
///   leaves it unchanged.
/// * The AND also drops the `inf * 0.0 = NaN` product that `a` would make
///   at a column `b` does not store, which is what the mask is for.
///
/// The mask is applied as a bit-select rather than a branch: sparse rows
/// overlap at unpredictable columns, and a mispredicted branch per stored
/// entry cost more than the multiply it skipped.
#[inline]
pub fn dot_scatter(a: RowView<'_>, dense: &[f64], occupied: &[bool]) -> f64 {
    let mut acc = 0.0;
    for (c, v) in a.iter() {
        let c = c as usize;
        let keep = 0u64.wrapping_sub(u64::from(occupied[c]));
        acc += f64::from_bits((v * dense[c]).to_bits() & keep);
    }
    acc
}

/// Two gather-form dot products in one pass over `a`, against two rows
/// scattered side by side (see [`crate::scratch::PairPad`]). `O(nnz_a)`.
///
/// `slots[c]` is `[b0 bits, b1 bits, mask0, mask1]`: the two rows' values
/// at column `c`, and a mask of all ones where that row stores `c`, zero
/// elsewhere. Each sum adds `av[i] * b_s[c]` with the product's bits ANDed
/// with the row's mask, in ascending column order, exactly as
/// [`dot_scatter`] does. So each is bit-identical to its merge-join:
/// `dot_scatter_pair(a, …)[s].to_bits() == dot(a, b_s).to_bits()`,
/// non-finite values included, by the argument on [`dot_scatter`].
#[inline]
pub fn dot_scatter_pair(a: RowView<'_>, slots: &[[u64; 4]]) -> [f64; 2] {
    let (mut acc0, mut acc1) = (0.0, 0.0);
    for (c, v) in a.iter() {
        let [b0, b1, mask0, mask1] = slots[c as usize];
        acc0 += f64::from_bits((v * f64::from_bits(b0)).to_bits() & mask0);
        acc1 += f64::from_bits((v * f64::from_bits(b1)).to_bits() & mask1);
    }
    [acc0, acc1]
}

/// Scatter `a` into `dense` (which must be zeroed and long enough), returning
/// a guard list of touched columns so the caller can cheaply un-scatter.
pub fn scatter(a: RowView<'_>, dense: &mut [f64]) {
    for (c, v) in a.iter() {
        dense[c as usize] = v;
    }
}

/// Undo a previous [`scatter`] of `a`.
pub fn unscatter(a: RowView<'_>, dense: &mut [f64]) {
    for (c, _) in a.iter() {
        dense[c as usize] = 0.0;
    }
}

/// Squared Euclidean distance using precomputed squared norms:
/// `||a − b||² = ||a||² + ||b||² − 2⟨a,b⟩`, clamped at 0 against rounding.
#[inline]
pub fn squared_distance(a: RowView<'_>, b: RowView<'_>, a_sq: f64, b_sq: f64) -> f64 {
    squared_distance_from_dot(dot(a, b), a_sq, b_sq)
}

/// Squared-norm identity applied to an already-computed dot product.
///
/// Split out of [`squared_distance`] so callers that obtain `⟨a,b⟩` through
/// a different (bit-identical) path — e.g. [`dot_scatter`] against a
/// [`crate::scratch::ScratchPad`] — reuse the same clamp and the same f64
/// expression, keeping kernel values bit-for-bit equal across dot
/// implementations.
#[inline]
pub fn squared_distance_from_dot(dot_ab: f64, a_sq: f64, b_sq: f64) -> f64 {
    let d = a_sq + b_sq - 2.0 * dot_ab;
    if d < 0.0 {
        0.0
    } else {
        d
    }
}

/// Squared Euclidean distance computed directly (no cached norms).
pub fn squared_distance_direct(a: RowView<'_>, b: RowView<'_>) -> f64 {
    squared_distance(a, b, a.squared_norm(), b.squared_norm())
}

/// `y += alpha * a` with `y` dense.
pub fn axpy_into(alpha: f64, a: RowView<'_>, y: &mut [f64]) {
    for (c, v) in a.iter() {
        y[c as usize] += alpha * v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowview::RowView;

    const A_IDX: &[u32] = &[0, 2, 5];
    const A_VAL: &[f64] = &[1.0, 2.0, 3.0];
    const B_IDX: &[u32] = &[2, 3, 5];
    const B_VAL: &[f64] = &[4.0, 9.0, -1.0];

    fn a() -> RowView<'static> {
        RowView {
            indices: A_IDX,
            values: A_VAL,
        }
    }
    fn b() -> RowView<'static> {
        RowView {
            indices: B_IDX,
            values: B_VAL,
        }
    }

    #[test]
    fn dot_overlapping() {
        // overlap at cols 2 and 5: 2*4 + 3*(-1) = 5
        assert_eq!(dot(a(), b()), 5.0);
        assert_eq!(dot(b(), a()), 5.0); // symmetry
    }

    #[test]
    fn dot_disjoint_is_zero() {
        let c = RowView {
            indices: &[1, 4],
            values: &[7.0, 7.0],
        };
        assert_eq!(dot(a(), c), 0.0);
    }

    #[test]
    fn dot_with_empty() {
        assert_eq!(dot(a(), RowView::EMPTY), 0.0);
    }

    #[test]
    fn dense_dot_matches_sparse() {
        let bd = b().to_dense(6);
        assert_eq!(dot_dense(a(), &bd), dot(a(), b()));
    }

    /// Scatter `b` by hand (dense values + occupancy mask) for the gather dot.
    fn scattered_b(dim: usize) -> (Vec<f64>, Vec<bool>) {
        let mut dense = vec![0.0; dim];
        let mut occ = vec![false; dim];
        for (c, v) in b().iter() {
            dense[c as usize] = v;
            occ[c as usize] = true;
        }
        (dense, occ)
    }

    #[test]
    fn scatter_dot_bitwise_matches_merge_join() {
        let (dense, occ) = scattered_b(6);
        assert_eq!(
            dot_scatter(a(), &dense, &occ).to_bits(),
            dot(a(), b()).to_bits()
        );
    }

    #[test]
    fn scatter_dot_masks_nonfinite_outside_overlap() {
        // `a` has an infinite value at a column `b` does not store; the naive
        // unmasked gather would add `inf * 0.0 = NaN`. The mask must skip it.
        let weird = RowView {
            indices: &[1, 2],
            values: &[f64::INFINITY, 0.5],
        };
        let (dense, occ) = scattered_b(6);
        let got = dot_scatter(weird, &dense, &occ);
        assert_eq!(got.to_bits(), dot(weird, b()).to_bits());
        assert_eq!(got, 0.5 * 4.0);
    }

    #[test]
    fn pair_gather_matches_both_merge_joins_bitwise() {
        // slot 0 holds `b`, slot 1 holds `a`; `weird` puts inf where `b`
        // stores nothing and -0.0 on an overlap.
        let weird = RowView {
            indices: &[1, 2, 5],
            values: &[f64::INFINITY, -0.0, 0.5],
        };
        let mut slots = vec![[0u64; 4]; 6];
        for (s, row) in [b(), a()].into_iter().enumerate() {
            for (c, v) in row.iter() {
                slots[c as usize][s] = v.to_bits();
                slots[c as usize][2 + s] = u64::MAX;
            }
        }
        for probe in [a(), b(), weird] {
            let [d0, d1] = dot_scatter_pair(probe, &slots);
            assert_eq!(d0.to_bits(), dot(probe, b()).to_bits());
            assert_eq!(d1.to_bits(), dot(probe, a()).to_bits());
        }
    }

    #[test]
    fn scatter_dot_preserves_signed_zero_products() {
        // Overlap whose single product is -0.0: both paths must return the
        // same zero bit pattern.
        let neg = RowView {
            indices: &[2],
            values: &[-0.0],
        };
        let (dense, occ) = scattered_b(6);
        assert_eq!(
            dot_scatter(neg, &dense, &occ).to_bits(),
            dot(neg, b()).to_bits()
        );
    }

    #[test]
    fn distance_from_dot_matches_fused() {
        let d = dot(a(), b());
        let a_sq = a().squared_norm();
        let b_sq = b().squared_norm();
        assert_eq!(
            squared_distance_from_dot(d, a_sq, b_sq).to_bits(),
            squared_distance(a(), b(), a_sq, b_sq).to_bits()
        );
    }

    #[test]
    fn scatter_unscatter_restores_zeros() {
        let mut d = vec![0.0; 6];
        scatter(a(), &mut d);
        assert_eq!(d[2], 2.0);
        unscatter(a(), &mut d);
        assert!(d.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn distance_identity() {
        let direct: f64 = {
            let ad = a().to_dense(6);
            let bd = b().to_dense(6);
            ad.iter().zip(&bd).map(|(x, y)| (x - y) * (x - y)).sum()
        };
        let via_norms = squared_distance_direct(a(), b());
        assert!((direct - via_norms).abs() < 1e-12);
    }

    #[test]
    fn distance_self_is_zero() {
        assert_eq!(squared_distance_direct(a(), a()), 0.0);
    }

    #[test]
    fn distance_never_negative() {
        // engineered rounding: nearly identical vectors
        let v1 = RowView {
            indices: &[0],
            values: &[1.000_000_000_000_1],
        };
        let v2 = RowView {
            indices: &[0],
            values: &[1.0],
        };
        assert!(squared_distance_direct(v1, v2) >= 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![0.0; 6];
        axpy_into(2.0, a(), &mut y);
        axpy_into(1.0, b(), &mut y);
        assert_eq!(y[2], 2.0 * 2.0 + 4.0);
        assert_eq!(y[5], 2.0 * 3.0 - 1.0);
        assert_eq!(y[3], 9.0);
    }
}
