//! Dense scratch buffers for repeated sparse dots against a pinned row.
//!
//! The distributed solver evaluates `⟨x_i, x_up⟩` and `⟨x_i, x_low⟩` for
//! every active row `i`, every iteration, and prediction evaluates
//! `⟨sv_j, x⟩` for every support vector `j` of a model. A merge-join dot
//! pays `O(nnz_i + nnz_pivot)` per row; scattering the pivot once into a
//! dense buffer and gathering at each row's stored columns pays
//! `O(nnz_pivot)` once plus `O(nnz_i)` per row — the classic
//! libsvm/BLAS-style trick.
//!
//! [`ScratchPad`] packages the trick with the hygiene the determinism suite
//! depends on:
//!
//! * the buffer records every touched column in a side list, and [`clear`]
//!   zeroes **exactly** those entries (`O(nnz_pivot)`, never `O(dim)`), so a
//!   pad can be reused across millions of iterations at no amortized cost;
//! * [`load`] debug-asserts the buffer is all-zero on entry, catching any
//!   caller that forgot to clear — a stale value would silently corrupt
//!   every subsequent dot;
//! * a one-byte occupancy mask distinguishes "column stored by the pivot"
//!   from "column zero"; [`ops::dot_scatter`] bit-selects each product
//!   through it, which keeps the gather bit-identical to the merge-join
//!   [`ops::dot`] without a branch per stored entry (see its docs).
//!
//! [`PairPad`] holds two rows side by side, so one gather pass over a row
//! returns its dots with both ([`ops::dot_scatter_pair`]): the solver's
//! sweep needs `K(x_i, x_up)` and `K(x_i, x_low)` for the same rows, and
//! reconstruction needs one column per support vector. Each slot loads and
//! clears through its own touched list, with the same hygiene.
//!
//! The workspace lint (`cargo xtask lint`, scratch-hygiene rule) bans raw
//! `ops::dot_scatter` and `ops::dot_scatter_pair` calls outside this crate
//! so every reused dense scratch in the solvers goes through these types.
//!
//! [`clear`]: ScratchPad::clear
//! [`load`]: ScratchPad::load
//! [`ops::dot_scatter`]: crate::ops::dot_scatter
//! [`ops::dot_scatter_pair`]: crate::ops::dot_scatter_pair
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
/// Memory is `dim` f64 values plus `dim` one-byte occupancy flags. The
/// distributed solver's one-column fills gather through a per-rank pad
/// (its default dot; two columns at once go through a [`PairPad`]), and
/// prediction gathers through a per-thread one.
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

/// A reusable dense scratch holding two scattered sparse rows side by side,
/// in slots 0 and 1.
///
/// Each column is 32 bytes: both rows' value bits, then both rows' u64
/// occupancy masks (all ones where the row stores the column). One
/// [`dots`](Self::dots) pass over a row reads one slot per stored entry
/// and returns both sums, each bit-identical to [`ops::dot`] with its row.
///
/// Lifecycle per slot: [`load`](Self::load), any number of `dots`, then
/// [`clear`](Self::clear) before that slot's next `load`. Each slot clears
/// through its own touched list, so `O(nnz)` of its row. A slot that is not
/// loaded dots to zero.
///
/// Memory is `32 · dim` bytes, allocated zeroed. Pages of columns that no
/// row ever touches are never written, so they need not become resident.
/// With one row loaded the wider slot gains nothing over a [`ScratchPad`]
/// (on the sparse URL analog it read slower); use this pad when both slots
/// are filled.
#[derive(Debug)]
pub struct PairPad {
    slots: Vec<[u64; 4]>,
    touched: [Vec<u32>; 2],
}

impl PairPad {
    /// An empty pad able to hold rows with columns `< dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            slots: vec![[0u64; 4]; dim],
            touched: [Vec::new(), Vec::new()],
        }
    }

    /// Whether `slot` holds a row (any column occupied).
    pub fn is_loaded(&self, slot: usize) -> bool {
        !self.touched[slot].is_empty()
    }

    /// Scatter `row` into `slot` (0 or 1), recording touched columns.
    ///
    /// Debug builds assert the slot is pristine on entry, as
    /// [`ScratchPad::load`] does.
    pub fn load(&mut self, slot: usize, row: RowView<'_>) {
        debug_assert!(
            self.touched[slot].is_empty(),
            "PairPad::load on a loaded slot — call clear() first"
        );
        debug_assert!(
            self.slots.iter().all(|s| s[slot] == 0 && s[2 + slot] == 0),
            "PairPad slot not all-zero on entry to load()"
        );
        for (c, v) in row.iter() {
            let s = &mut self.slots[c as usize];
            s[slot] = v.to_bits();
            s[2 + slot] = u64::MAX;
            self.touched[slot].push(c);
        }
    }

    /// Gather dots of `a` against both slots in one pass; element `s` is
    /// bit-identical to [`ops::dot`] of `a` with slot `s`'s row.
    #[inline]
    pub fn dots(&self, a: RowView<'_>) -> [f64; 2] {
        ops::dot_scatter_pair(a, &self.slots)
    }

    /// Zero `slot` via its touched list — `O(nnz)` of its row, independent
    /// of `dim`; the other slot is left as it is.
    pub fn clear(&mut self, slot: usize) {
        for &c in &self.touched[slot] {
            let s = &mut self.slots[c as usize];
            s[slot] = 0;
            s[2 + slot] = 0;
        }
        self.touched[slot].clear();
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

    #[test]
    fn pair_pad_slots_load_and_clear_independently() {
        let (p, q) = (row(P_IDX, P_VAL), row(&[0, 3], &[9.0, 2.0]));
        let probe = row(&[0, 3, 7, 9], &[5.0, 2.0, 0.25, -3.0]);
        let mut pad = PairPad::new(10);
        pad.load(0, p);
        pad.load(1, q);
        let [d0, d1] = pad.dots(probe);
        assert_eq!(d0.to_bits(), ops::dot(probe, p).to_bits());
        assert_eq!(d1.to_bits(), ops::dot(probe, q).to_bits());
        // clearing slot 0 leaves slot 1's row, and column 3 they share
        pad.clear(0);
        assert!(!pad.is_loaded(0) && pad.is_loaded(1));
        assert_eq!(pad.dots(probe), [0.0, d1]);
        // slot 0 reloads with the other row (debug builds check it is zero)
        pad.load(0, q);
        assert_eq!(pad.dots(probe), [d1, d1]);
        pad.clear(0);
        pad.clear(1);
        assert!(!pad.is_loaded(0) && !pad.is_loaded(1));
        // the far edge of the pad
        pad.load(1, row(&[9], &[1.0]));
        assert_eq!(pad.dots(row(&[9], &[3.0])), [0.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "call clear() first")]
    #[cfg(debug_assertions)]
    fn pair_pad_double_load_panics_in_debug() {
        let mut pad = PairPad::new(10);
        pad.load(1, row(P_IDX, P_VAL));
        pad.load(1, row(P_IDX, P_VAL));
    }
}
