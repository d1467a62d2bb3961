//! A dense scratch buffer for repeated sparse dots against a pinned row.
//!
//! A merge-join dot pays `O(nnz_i + nnz_pivot)` per row; scattering the
//! pivot once into a dense buffer and gathering at each row's stored
//! columns pays `O(nnz_pivot)` once plus `O(nnz_i)` per row — the classic
//! libsvm/BLAS-style trick.
//!
//! [`ScratchPad`] packages the trick with the hygiene a reused buffer
//! needs:
//!
//! * the buffer records every touched column in a side list, and [`clear`]
//!   zeroes **exactly** those entries (`O(nnz_pivot)`, never `O(dim)`), so a
//!   pad can be reused across millions of dots at no amortized cost;
//! * [`load`] debug-asserts the buffer is all-zero on entry, catching any
//!   caller that forgot to clear — a stale value would silently corrupt
//!   every subsequent dot;
//! * a one-byte occupancy mask distinguishes "column stored by the pivot"
//!   from "column zero"; [`ops::dot_scatter`] bit-selects each product
//!   through it, which keeps the gather bit-identical to the merge-join
//!   [`ops::dot`] without a branch per stored entry (see its docs).
//!
//! No solver or prediction path runs this gather: kernel columns come from
//! one sparse product over a [`ColumnMajor`] copy, which multiplies only
//! the overlapping entries. The pad is the gather the benchmark's
//! `sparse.dot_scatter_ns_per_nnz` probe times, and a second bit-identity
//! reference in the tests.
//!
//! The workspace lint (`cargo xtask lint`, scratch-hygiene rule) bans raw
//! `ops::dot_scatter` calls outside this crate, so any reused dense scratch
//! goes through this type.
//!
//! [`clear`]: ScratchPad::clear
//! [`load`]: ScratchPad::load
//! [`ColumnMajor`]: crate::ColumnMajor
//! [`ops::dot_scatter`]: crate::ops::dot_scatter
//! [`ops::dot`]: crate::ops::dot

use crate::ops;
use crate::rowview::RowView;

/// A reusable dense scratch buffer holding one scattered sparse row.
///
/// Lifecycle: [`load`](Self::load) a row, take any number of
/// [`dot`](Self::dot)s against it, then [`clear`](Self::clear) before the
/// next `load`. Loading twice without clearing is a bug and panics in debug
/// builds.
///
/// Memory is `dim` f64 values plus `dim` one-byte occupancy flags. Only
/// the benchmark's gather probe and the tests use it; the solvers and
/// prediction fill kernel columns through a [`ColumnMajor`] product.
///
/// [`ColumnMajor`]: crate::ColumnMajor
#[derive(Debug)]
pub struct ScratchPad {
    dense: Vec<f64>,
    occupied: Vec<bool>,
    touched: Vec<u32>,
}

impl ScratchPad {
    /// An empty pad able to hold rows with columns `< dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            dense: vec![0.0; dim],
            occupied: vec![false; dim],
            touched: Vec::new(),
        }
    }

    /// Column capacity of the pad.
    pub fn dim(&self) -> usize {
        self.dense.len()
    }

    /// Grow the pad so rows with columns `< dim` fit. Never shrinks.
    pub fn ensure_dim(&mut self, dim: usize) {
        if dim > self.dense.len() {
            self.dense.resize(dim, 0.0);
            self.occupied.resize(dim, false);
        }
    }

    /// Whether a row is currently loaded (any column occupied).
    pub fn is_loaded(&self) -> bool {
        !self.touched.is_empty()
    }

    /// Scatter `row` into the pad, recording touched columns.
    ///
    /// Debug builds assert the pad is pristine on entry — all dense entries
    /// zero, all occupancy bits down — so a missing [`clear`](Self::clear)
    /// fails loudly instead of corrupting later dots.
    pub fn load(&mut self, row: RowView<'_>) {
        debug_assert!(
            self.touched.is_empty(),
            "ScratchPad::load on a loaded pad — call clear() first"
        );
        debug_assert!(
            self.dense.iter().all(|v| v.to_bits() == 0) && !self.occupied.iter().any(|o| *o),
            "ScratchPad dense buffer not all-zero on entry to load()"
        );
        for (c, v) in row.iter() {
            let ci = c as usize;
            self.dense[ci] = v;
            self.occupied[ci] = true;
            self.touched.push(c);
        }
    }

    /// Gather dot of `a` against the loaded row; bit-identical to
    /// [`ops::dot`] of `a` with that row.
    #[inline]
    pub fn dot(&self, a: RowView<'_>) -> f64 {
        ops::dot_scatter(a, &self.dense, &self.occupied)
    }

    /// Zero the pad via the touched-index list — `O(nnz)` of the loaded row,
    /// independent of `dim`.
    pub fn clear(&mut self) {
        for &c in &self.touched {
            let ci = c as usize;
            self.dense[ci] = 0.0;
            self.occupied[ci] = false;
        }
        self.touched.clear();
    }

    /// Number of stored entries of the loaded row.
    pub fn nnz(&self) -> usize {
        self.touched.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(indices: &'static [u32], values: &'static [f64]) -> RowView<'static> {
        RowView { indices, values }
    }

    const P_IDX: &[u32] = &[1, 3, 7];
    const P_VAL: &[f64] = &[2.0, -1.5, 4.0];

    #[test]
    fn load_dot_matches_merge_join_bitwise() {
        let pivot = row(P_IDX, P_VAL);
        let probe = row(&[0, 3, 7, 9], &[5.0, 2.0, 0.25, -3.0]);
        let mut pad = ScratchPad::new(10);
        pad.load(pivot);
        assert_eq!(pad.dot(probe).to_bits(), ops::dot(probe, pivot).to_bits());
        assert_eq!(pad.nnz(), 3);
    }

    #[test]
    fn clear_restores_pristine_state_for_reuse() {
        let mut pad = ScratchPad::new(10);
        pad.load(row(P_IDX, P_VAL));
        pad.clear();
        assert!(!pad.is_loaded());
        // Reload with a different row; debug assertions verify all-zero.
        let other = row(&[0, 7], &[9.0, 9.0]);
        pad.load(other);
        let probe = row(&[7], &[1.0]);
        assert_eq!(pad.dot(probe), 9.0);
    }

    #[test]
    #[should_panic(expected = "call clear() first")]
    #[cfg(debug_assertions)]
    fn double_load_panics_in_debug() {
        let mut pad = ScratchPad::new(10);
        pad.load(row(P_IDX, P_VAL));
        pad.load(row(P_IDX, P_VAL));
    }

    #[test]
    fn ensure_dim_grows_only() {
        let mut pad = ScratchPad::new(4);
        pad.ensure_dim(16);
        assert_eq!(pad.dim(), 16);
        pad.ensure_dim(2);
        assert_eq!(pad.dim(), 16);
        pad.load(row(&[15], &[1.0]));
        assert_eq!(pad.dot(row(&[15], &[3.0])), 3.0);
    }

    #[test]
    fn empty_pad_dots_to_zero() {
        let pad = ScratchPad::new(8);
        assert_eq!(pad.dot(row(&[1, 2], &[1.0, 2.0])), 0.0);
    }
}
