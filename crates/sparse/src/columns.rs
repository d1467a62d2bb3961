//! A column-major copy of a list of sparse rows, for kernel columns.
//!
//! The solvers need whole kernel columns: `⟨x_k, p⟩` for every row `x_k`
//! of a fixed list against one pivot `p` at a time (the SMO sweep's two
//! pivots, reconstruction's support vectors, a test row against a model's
//! support vectors). Row by row, each dot reads every stored entry of
//! `x_k`, although only the columns `p` also stores contribute.
//! [`ColumnMajor`] stores the same rows by column, so one sparse
//! matrix × sparse vector product walks `p`'s stored columns and touches
//! only the overlapping entries.

use crate::csr::CsrMatrix;
use crate::rowview::RowView;

/// The rows of a [`CsrMatrix`], in a given list order, stored by column.
///
/// Entry `(k, c)` is row `k` of the list at column `c`. Column `c`'s
/// entries sit in `ptr[c]..ptr[c + 1]`, in ascending `k`. The width is the
/// largest stored column + 1, whatever the matrix declares, so memory is
/// `8 · width` bytes of pointers plus 12 bytes per stored entry.
///
/// Build with [`from_matrix`](Self::from_matrix), or
/// [`rebuild`](Self::rebuild) a copy in place from a list of rows (a
/// counting sort, `O(nnz + width)`, reusing the buffers). [`dots_into`](Self::dots_into) then returns every row's dot
/// with a sparse vector, each bit-identical to [`ops::dot`].
///
/// [`ops::dot`]: crate::ops::dot
#[derive(Clone, Debug, Default)]
pub struct ColumnMajor {
    ptr: Vec<usize>,
    rows: Vec<u32>,
    vals: Vec<f64>,
    nrows: usize,
}

impl ColumnMajor {
    /// Every row of `x`, in order.
    pub fn from_matrix(x: &CsrMatrix) -> Self {
        let mut copy = Self::default();
        copy.rebuild(x, 0..x.nrows());
        copy
    }

    /// Make this the copy of rows `rows` of `x`, in list order (entry `k`
    /// of the list is row `k` of the copy), reusing the buffers. A counting sort: one pass for the width, one to count
    /// each column's entries, one to place them, so `O(nnz + width)`.
    ///
    /// Panics if the list holds more than 2³² rows.
    pub fn rebuild<I>(&mut self, x: &CsrMatrix, rows: I)
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: Clone,
    {
        let rows = rows.into_iter();
        let (mut nrows, mut width) = (0usize, 0usize);
        for i in rows.clone() {
            nrows += 1;
            if let Some(&c) = x.row(i).indices.last() {
                width = width.max(c as usize + 1);
            }
        }
        assert!(
            nrows as u64 <= u64::from(u32::MAX) + 1,
            "a column-major copy holds at most 2^32 rows"
        );
        self.nrows = nrows;
        // count column c's entries into ptr[c + 1], then prefix-sum so
        // ptr[c] is where column c starts
        self.ptr.clear();
        self.ptr.resize(width + 1, 0);
        for i in rows.clone() {
            for &c in x.row(i).indices {
                self.ptr[c as usize + 1] += 1;
            }
        }
        for c in 0..width {
            self.ptr[c + 1] += self.ptr[c];
        }
        let nnz = self.ptr[width];
        self.rows.clear();
        self.rows.resize(nnz, 0);
        self.vals.clear();
        self.vals.resize(nnz, 0.0);
        // place in list order, using ptr[c] as column c's cursor; each
        // cursor ends where the next column starts, so shift back by one
        for (k, i) in rows.enumerate() {
            for (c, v) in x.row(i).iter() {
                let slot = &mut self.ptr[c as usize];
                self.rows[*slot] = k as u32;
                self.vals[*slot] = v;
                *slot += 1;
            }
        }
        self.ptr.copy_within(0..width, 1);
        self.ptr[0] = 0;
    }

    /// Number of rows in the copy.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// The largest stored column + 1 (0 when nothing is stored).
    pub fn width(&self) -> usize {
        self.ptr.len().saturating_sub(1)
    }

    /// `out[k] = ⟨row_k, x⟩` for every row `k`, each bit-identical to
    /// [`ops::dot`]`(row_k, x)`. `out` must hold [`nrows`](Self::nrows)
    /// values.
    ///
    /// Every `out[k]` starts at `+0.0`. The product walks `x`'s stored
    /// columns in ascending order, and at each column `c` below the width
    /// adds `row_k[c] · x[c]` (row value × x value) into the dot of every
    /// row that stores `c`. So each dot adds exactly the merge-join's
    /// products — those at columns both rows store, with the same operand
    /// order — in the same ascending column order, from the same `+0.0`.
    /// Under round-to-nearest that is the same f64 sequence, so the bits
    /// agree, ±inf, signed zeros and subnormals included. Columns of `x`
    /// past the width overlap no row and are skipped.
    ///
    /// NaN needs one more step. When both operands of an addition are NaN,
    /// which one's sign and payload the sum carries depends on the operand
    /// order the compiler picks: the merge-join keeps its accumulator's
    /// NaN, while an addition into memory may keep the product's. So when
    /// any dot comes out NaN, the product is run again with every NaN dot
    /// left as it is, which is what the merge-join's accumulator does.
    /// (Two NaN operands of one multiplication are not reordered; inputs
    /// parsed from text carry one NaN pattern.)
    ///
    /// A column every row stores holds one entry per row, in row order, and
    /// takes a contiguous loop; consecutive such columns of `x` share one
    /// pass over the dots, up to four at a time, each dot adding their
    /// products in column order. Any other column scatters through its row
    /// ids. Which loop runs is read from the data.
    ///
    /// [`ops::dot`]: crate::ops::dot
    pub fn dots_into(&self, x: RowView<'_>, out: &mut [f64]) {
        assert_eq!(out.len(), self.nrows, "one dot per row of the copy");
        self.product(x, out, |dot, p| *dot += p);
        if out.iter().fold(false, |nan, d| nan | d.is_nan()) {
            self.product(x, out, |dot, p| {
                if !dot.is_nan() {
                    *dot += p;
                }
            });
        }
    }

    /// The sparse product behind [`dots_into`](Self::dots_into), with
    /// `add(dot, product)` folding each product into its row's dot.
    #[inline(always)]
    fn product(&self, x: RowView<'_>, out: &mut [f64], add: impl Fn(&mut f64, f64)) {
        out.fill(0.0);
        let n = out.len();
        // x's columns past the width overlap no row
        let end = x.indices.partition_point(|&c| (c as usize) < self.width());
        let span = |j: usize| {
            let c = x.indices[j] as usize;
            self.ptr[c]..self.ptr[c + 1]
        };
        let full = |j: usize| j < end && span(j).len() == n;
        let mut j = 0;
        while j < end {
            if !full(j) {
                let s = span(j);
                let xv = x.values[j];
                for (&k, &v) in self.rows[s.clone()].iter().zip(&self.vals[s]) {
                    add(&mut out[k as usize], v * xv);
                }
                j += 1;
            } else if full(j + 1) && full(j + 2) && full(j + 3) {
                self.fold_full::<4>(x, j, out, &add);
                j += 4;
            } else if full(j + 1) {
                self.fold_full::<2>(x, j, out, &add);
                j += 2;
            } else {
                self.fold_full::<1>(x, j, out, &add);
                j += 1;
            }
        }
    }

    /// Fold `B` columns that every row stores — `x`'s entries `j..j + B` —
    /// into the dots in one contiguous pass: such a column holds one entry
    /// per row, in row order.
    #[inline(always)]
    fn fold_full<const B: usize>(
        &self,
        x: RowView<'_>,
        j: usize,
        out: &mut [f64],
        add: &impl Fn(&mut f64, f64),
    ) {
        let n = out.len();
        let cols: [&[f64]; B] = std::array::from_fn(|b| {
            let start = self.ptr[x.indices[j + b] as usize];
            &self.vals[start..start + n]
        });
        let xs: [f64; B] = std::array::from_fn(|b| x.values[j + b]);
        for (k, dot) in out.iter_mut().enumerate() {
            for b in 0..B {
                add(dot, cols[b][k] * xs[b]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    /// Rows 0..4 over 6 declared columns; column 2 is stored by every row.
    fn matrix() -> CsrMatrix {
        CsrMatrix::from_dense(
            &[
                vec![1.0, 0.0, 2.0, 0.0],
                vec![0.0, -3.0, 0.5, 4.0],
                vec![0.0, 0.0, -1.0, 0.0],
                vec![7.0, 0.0, 0.25, 0.0],
            ],
            6,
        )
        .unwrap()
    }

    fn dots(copy: &ColumnMajor, x: RowView<'_>) -> Vec<f64> {
        let mut out = vec![f64::NAN; copy.nrows()];
        copy.dots_into(x, &mut out);
        out
    }

    #[test]
    fn width_is_the_largest_stored_column_not_the_declared_one() {
        let m = matrix();
        let copy = ColumnMajor::from_matrix(&m);
        assert_eq!(
            (copy.nrows(), copy.width(), copy.vals.len()),
            (4, 4, m.nnz())
        );
        let mut empty = ColumnMajor::default();
        empty.rebuild(&m, std::iter::empty());
        assert_eq!((empty.nrows(), empty.width(), empty.vals.len()), (0, 0, 0));
    }

    #[test]
    fn dots_match_the_merge_join_in_list_order() {
        let m = matrix();
        let x = RowView {
            indices: &[0, 2, 3, 5, 1 << 30],
            values: &[2.0, -0.5, 1.5, 9.0, 8.0],
        };
        let list = [3usize, 1, 1, 0];
        let mut copy = ColumnMajor::default();
        copy.rebuild(&m, list);
        for (k, got) in dots(&copy, x).into_iter().enumerate() {
            assert_eq!(got.to_bits(), ops::dot(m.row(list[k]), x).to_bits());
        }
        // an empty pivot, and a pivot wholly past the width, dot to +0.0
        for x in [
            RowView::EMPTY,
            RowView {
                indices: &[4, 5],
                values: &[1.0, 1.0],
            },
        ] {
            assert!(dots(&copy, x).iter().all(|d| d.to_bits() == 0));
        }
    }

    #[test]
    fn rebuild_in_place_matches_a_fresh_copy() {
        let m = matrix();
        let mut copy = ColumnMajor::from_matrix(&m);
        copy.rebuild(&m, [2usize, 0]);
        let mut fresh = ColumnMajor::default();
        fresh.rebuild(&m, [2usize, 0]);
        assert_eq!(copy.ptr, fresh.ptr);
        assert_eq!(copy.rows, fresh.rows);
        assert_eq!(copy.vals, fresh.vals);
        assert_eq!(copy.nrows(), 2);
        assert_eq!(copy.width(), 3);
    }
}
