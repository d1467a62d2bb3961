//! Borrowed view of a single CSR row (one training sample).

/// A borrowed sparse vector: parallel slices of strictly increasing column
/// indices and their values. This is the type every kernel evaluation
/// consumes; it is `Copy` so it can be passed around freely in hot loops.
#[derive(Clone, Copy, Debug)]
pub struct RowView<'a> {
    /// Strictly increasing column indices.
    pub indices: &'a [u32],
    /// Values matching `indices` element-for-element.
    pub values: &'a [f64],
}

impl<'a> RowView<'a> {
    /// An empty row.
    pub const EMPTY: RowView<'static> = RowView {
        indices: &[],
        values: &[],
    };

    /// Number of stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// True if the row stores no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterate `(column, value)` pairs in increasing column order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + 'a {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Value at `col`, or 0.0 when the entry is not stored.
    pub fn get(&self, col: u32) -> f64 {
        match self.indices.binary_search(&col) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Squared Euclidean norm of the row.
    #[inline]
    pub fn squared_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Materialize into a dense vector of length `ncols`.
    pub fn to_dense(&self, ncols: usize) -> Vec<f64> {
        let mut out = vec![0.0; ncols];
        for (c, v) in self.iter() {
            out[c as usize] = v;
        }
        out
    }

    /// Serialize into `(u32 index, f64 value)` little-endian byte pairs.
    ///
    /// This is the wire format `mpisim` messages use when samples travel
    /// between ranks (pivot rows in Algorithm 2's candidate round, ring
    /// exchange in Algorithm 3).
    pub fn to_bytes(&self, out: &mut Vec<u8>) {
        out.reserve(self.nnz() * 12);
        for (c, v) in self.iter() {
            out.extend_from_slice(&c.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Parse the wire format produced by [`RowView::to_bytes`] into owned
    /// index/value vectors. Returns `None` if `bytes` is not a whole number
    /// of 12-byte records.
    pub fn from_bytes(bytes: &[u8]) -> Option<(Vec<u32>, Vec<f64>)> {
        if !bytes.len().is_multiple_of(12) {
            return None;
        }
        let n = bytes.len() / 12;
        let mut idx = Vec::with_capacity(n);
        let mut val = Vec::with_capacity(n);
        for rec in bytes.chunks_exact(12) {
            idx.push(u32::from_le_bytes(rec[0..4].try_into().unwrap()));
            val.push(f64::from_le_bytes(rec[4..12].try_into().unwrap()));
        }
        Some((idx, val))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RowView<'static> {
        RowView {
            indices: &[0, 3, 7],
            values: &[1.0, -2.0, 0.5],
        }
    }

    #[test]
    fn get_present_and_absent() {
        let r = sample();
        assert_eq!(r.get(3), -2.0);
        assert_eq!(r.get(4), 0.0);
        assert_eq!(r.get(7), 0.5);
    }

    #[test]
    fn squared_norm_matches_manual() {
        let r = sample();
        assert!((r.squared_norm() - (1.0 + 4.0 + 0.25)).abs() < 1e-15);
    }

    #[test]
    fn dense_roundtrip() {
        let r = sample();
        let d = r.to_dense(9);
        assert_eq!(d.len(), 9);
        assert_eq!(d[0], 1.0);
        assert_eq!(d[3], -2.0);
        assert_eq!(d[7], 0.5);
        assert_eq!(d.iter().filter(|v| **v != 0.0).count(), 3);
    }

    #[test]
    fn bytes_roundtrip() {
        let r = sample();
        let mut buf = Vec::new();
        r.to_bytes(&mut buf);
        assert_eq!(buf.len(), 36);
        let (idx, val) = RowView::from_bytes(&buf).unwrap();
        assert_eq!(idx, r.indices);
        assert_eq!(val, r.values);
    }

    #[test]
    fn bytes_rejects_ragged_input() {
        assert!(RowView::from_bytes(&[0u8; 13]).is_none());
        assert!(RowView::from_bytes(&[]).map(|(i, _)| i.is_empty()).unwrap());
    }

    #[test]
    fn empty_row_behaves() {
        let r = RowView::EMPTY;
        assert!(r.is_empty());
        assert_eq!(r.nnz(), 0);
        assert_eq!(r.squared_norm(), 0.0);
        assert_eq!(r.get(0), 0.0);
    }
}
