//! Wire encodings for the distributed solver's messages.
//!
//! Two message families exist:
//!
//! * [`PairSample`] — one working-set candidate (row + scalars). Each rank
//!   attaches its local MINLOC and MAXLOC winners' samples to the fused
//!   candidate allreduce, which hands every rank the global winners'
//!   samples in the same round that selects them (Algorithm 2 lines 3–9);
//!   the assembled model's support vectors use the same record;
//! * [`SvEntry`] blocks — a rank's `α > 0` samples, streamed around the ring
//!   during gradient reconstruction (Algorithm 3).
//!
//! Encodings are little-endian and self-delimiting; decoders validate
//! lengths and return `None` on malformed input (a malformed message is a
//! bug, which callers surface as [`crate::CoreError::ModelFormat`]).

use shrinksvm_sparse::RowView;

/// Bytes of an encoded [`PairSample`] ahead of its row: the index, `y`,
/// `α`, `γ`, the squared norm and the entry count.
pub const SAMPLE_HEADER_BYTES: usize = 8 * 5 + 4;

/// Encoded bytes per stored row entry (a `u32` column and an `f64` value).
pub const ENTRY_BYTES: usize = 12;

/// A working-set sample as shipped between ranks.
#[derive(Clone, Debug, PartialEq)]
pub struct PairSample {
    /// Global sample index.
    pub index: u64,
    /// Label.
    pub y: f64,
    /// Current multiplier `α`.
    pub alpha: f64,
    /// Current gradient `γ`.
    pub gamma: f64,
    /// Squared norm of the row (so receivers skip recomputing it).
    pub sq_norm: f64,
    /// Column indices.
    pub cols: Vec<u32>,
    /// Values.
    pub vals: Vec<f64>,
}

impl PairSample {
    /// Gather from local state.
    pub fn from_parts(
        index: u64,
        y: f64,
        alpha: f64,
        gamma: f64,
        sq_norm: f64,
        row: RowView<'_>,
    ) -> Self {
        PairSample {
            index,
            y,
            alpha,
            gamma,
            sq_norm,
            cols: row.indices.to_vec(),
            vals: row.values.to_vec(),
        }
    }

    /// Borrow the row.
    pub fn row(&self) -> RowView<'_> {
        RowView {
            indices: &self.cols,
            values: &self.vals,
        }
    }

    /// Append the encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.index.to_le_bytes());
        out.extend_from_slice(&self.y.to_le_bytes());
        out.extend_from_slice(&self.alpha.to_le_bytes());
        out.extend_from_slice(&self.gamma.to_le_bytes());
        out.extend_from_slice(&self.sq_norm.to_le_bytes());
        out.extend_from_slice(&(self.cols.len() as u32).to_le_bytes());
        self.row().to_bytes(out);
    }

    /// Decode one sample from `bytes` starting at `*pos`, advancing it.
    pub fn decode(bytes: &[u8], pos: &mut usize) -> Option<Self> {
        if bytes.len() < *pos + SAMPLE_HEADER_BYTES {
            return None;
        }
        let take8 = |p: &mut usize| {
            let v = u64::from_le_bytes(bytes[*p..*p + 8].try_into().unwrap());
            *p += 8;
            v
        };
        let index = take8(pos);
        let y = f64::from_bits(take8(pos));
        let alpha = f64::from_bits(take8(pos));
        let gamma = f64::from_bits(take8(pos));
        let sq_norm = f64::from_bits(take8(pos));
        let nnz = u32::from_le_bytes(bytes[*pos..*pos + 4].try_into().unwrap()) as usize;
        *pos += 4;
        let row_bytes = nnz * ENTRY_BYTES;
        if bytes.len() < *pos + row_bytes {
            return None;
        }
        let (cols, vals) = RowView::from_bytes(&bytes[*pos..*pos + row_bytes])?;
        *pos += row_bytes;
        Some(PairSample {
            index,
            y,
            alpha,
            gamma,
            sq_norm,
            cols,
            vals,
        })
    }

    /// Decode a buffer holding exactly one sample: truncation and trailing
    /// bytes are both malformed.
    pub fn decode_exact(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0;
        let sample = Self::decode(bytes, &mut pos)?;
        (pos == bytes.len()).then_some(sample)
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        SAMPLE_HEADER_BYTES + self.cols.len() * ENTRY_BYTES
    }
}

/// One support-vector candidate inside a ring block: its coefficient
/// `α·y`, cached squared norm, and row.
#[derive(Clone, Debug, PartialEq)]
pub struct SvEntry {
    /// `α·y` of the sample.
    pub coef: f64,
    /// Squared norm of the row.
    pub sq_norm: f64,
    /// Column indices.
    pub cols: Vec<u32>,
    /// Values.
    pub vals: Vec<f64>,
}

impl SvEntry {
    /// Borrow the row.
    pub fn row(&self) -> RowView<'_> {
        RowView {
            indices: &self.cols,
            values: &self.vals,
        }
    }
}

/// Encode a rank's SV block (entry count, then entries).
pub fn encode_sv_block(entries: &[SvEntry]) -> Vec<u8> {
    let payload: usize = entries.iter().map(|e| 8 + 8 + 4 + e.cols.len() * 12).sum();
    let mut out = Vec::with_capacity(4 + payload);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&e.coef.to_le_bytes());
        out.extend_from_slice(&e.sq_norm.to_le_bytes());
        out.extend_from_slice(&(e.cols.len() as u32).to_le_bytes());
        e.row().to_bytes(&mut out);
    }
    out
}

/// Decode a ring SV block.
pub fn decode_sv_block(bytes: &[u8]) -> Option<Vec<SvEntry>> {
    if bytes.len() < 4 {
        return None;
    }
    let count = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let mut pos = 4;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if bytes.len() < pos + 20 {
            return None;
        }
        let coef = f64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        pos += 8;
        let sq_norm = f64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        pos += 8;
        let nnz = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if bytes.len() < pos + nnz * 12 {
            return None;
        }
        let (cols, vals) = RowView::from_bytes(&bytes[pos..pos + nnz * 12])?;
        pos += nnz * 12;
        out.push(SvEntry {
            coef,
            sq_norm,
            cols,
            vals,
        });
    }
    if pos != bytes.len() {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> PairSample {
        PairSample {
            index: i,
            y: 1.0,
            alpha: 0.5,
            gamma: -0.25,
            sq_norm: 5.0,
            cols: vec![0, 3, 9],
            vals: vec![1.0, -2.0, 0.5],
        }
    }

    fn encode(s: &PairSample) -> Vec<u8> {
        let mut out = Vec::new();
        s.encode(&mut out);
        out
    }

    #[test]
    fn pair_roundtrip() {
        // the up and low winners' records, back to back and one by one
        let up = sample(7);
        let low = PairSample {
            index: 9,
            y: -1.0,
            cols: vec![],
            vals: vec![],
            ..sample(9)
        };
        let mut both = encode(&up);
        low.encode(&mut both);
        let mut pos = 0;
        assert_eq!(PairSample::decode(&both, &mut pos).unwrap(), up);
        assert_eq!(PairSample::decode(&both, &mut pos).unwrap(), low);
        assert_eq!(pos, both.len());
        assert_eq!(PairSample::decode_exact(&encode(&low)).unwrap(), low);
    }

    #[test]
    fn encoded_len_is_exact() {
        let s = sample(1);
        assert_eq!(encode(&s).len(), s.encoded_len());
    }

    #[test]
    fn pair_decode_rejects_truncation_and_trailing() {
        let bytes = encode(&sample(1));
        for cut in 0..bytes.len() {
            assert!(PairSample::decode_exact(&bytes[..cut]).is_none(), "{cut}");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(PairSample::decode_exact(&extra).is_none());
    }

    #[test]
    fn special_floats_survive() {
        let mut s = sample(3);
        s.gamma = f64::NEG_INFINITY;
        s.alpha = -0.0;
        let back = PairSample::decode_exact(&encode(&s)).unwrap();
        assert_eq!(back.gamma, f64::NEG_INFINITY);
        assert_eq!(back.alpha.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn sv_block_roundtrip() {
        let entries = vec![
            SvEntry {
                coef: 1.5,
                sq_norm: 2.0,
                cols: vec![1, 5],
                vals: vec![0.5, -0.5],
            },
            SvEntry {
                coef: -3.0,
                sq_norm: 0.0,
                cols: vec![],
                vals: vec![],
            },
        ];
        let bytes = encode_sv_block(&entries);
        let back = decode_sv_block(&bytes).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn empty_sv_block_roundtrip() {
        let bytes = encode_sv_block(&[]);
        assert_eq!(decode_sv_block(&bytes).unwrap(), vec![]);
    }

    #[test]
    fn sv_block_rejects_malformed() {
        assert!(decode_sv_block(&[1, 0]).is_none()); // truncated count
        let mut bytes = encode_sv_block(&[SvEntry {
            coef: 1.0,
            sq_norm: 1.0,
            cols: vec![2],
            vals: vec![2.0],
        }]);
        bytes.truncate(bytes.len() - 3);
        assert!(decode_sv_block(&bytes).is_none());
    }
}
