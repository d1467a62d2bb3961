//! The trained classifier.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use shrinksvm_sparse::{ColumnMajor, CsrBuilder, CsrMatrix, RowView};

use crate::error::CoreError;
use crate::kernel::KernelKind;
use crate::smo::solver::support_indices;

/// A trained SVM: the support vectors, their coefficients `αᵢyᵢ`, the bias
/// `β` and the kernel. The decision function is
/// `D(x) = Σᵢ coefᵢ·K(svᵢ, x) − β`, predicting `sign(D(x))`.
#[derive(Clone, Debug)]
pub struct SvmModel {
    kernel: KernelKind,
    sv: CsrMatrix,
    /// The SVs stored by column, for [`Self::decision`]'s sparse product.
    sv_cols: ColumnMajor,
    sv_sq_norms: Vec<f64>,
    coef: Vec<f64>,
    bias: f64,
    /// Row indices of the SVs in the training set (empty after load-from-file).
    training_indices: Vec<usize>,
}

impl SvmModel {
    /// Assemble from raw parts (support vectors + coefficients + bias).
    pub fn new(
        kernel: KernelKind,
        sv: CsrMatrix,
        coef: Vec<f64>,
        bias: f64,
    ) -> Result<Self, CoreError> {
        if sv.nrows() != coef.len() {
            return Err(CoreError::ModelFormat(format!(
                "{} SVs but {} coefficients",
                sv.nrows(),
                coef.len()
            )));
        }
        let sv_sq_norms = sv.row_squared_norms();
        let sv_cols = ColumnMajor::from_matrix(&sv);
        Ok(SvmModel {
            kernel,
            sv,
            sv_cols,
            sv_sq_norms,
            coef,
            bias,
            training_indices: Vec::new(),
        })
    }

    /// Extract the model from a finished training state: keeps rows with
    /// `α > 0` and records their training indices.
    pub fn from_training(
        kernel: KernelKind,
        x: &CsrMatrix,
        y: &[f64],
        alpha: &[f64],
        bias: f64,
        c: f64,
    ) -> Result<Self, CoreError> {
        let idx = support_indices(alpha, c);
        let sv = x.select_rows(&idx)?;
        let coef: Vec<f64> = idx.iter().map(|&i| alpha[i] * y[i]).collect();
        Ok(SvmModel::new(kernel, sv, coef, bias)?.with_training_indices(idx))
    }

    /// Record the training-set row index of each SV, parallel to the SV
    /// rows. The file format does not store them.
    pub(crate) fn with_training_indices(mut self, idx: Vec<usize>) -> Self {
        debug_assert_eq!(idx.len(), self.coef.len(), "one index per SV");
        self.training_indices = idx;
        self
    }

    /// Number of support vectors.
    pub fn n_sv(&self) -> usize {
        self.coef.len()
    }

    /// The bias `β`.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// The kernel.
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// Coefficients `αᵢyᵢ`, parallel to the SV rows.
    pub fn coefficients(&self) -> &[f64] {
        &self.coef
    }

    /// The support vectors.
    pub fn support_vectors(&self) -> &CsrMatrix {
        &self.sv
    }

    /// Training-set row indices of the SVs (empty for deserialized models).
    pub fn training_indices(&self) -> &[usize] {
        &self.training_indices
    }

    /// Decision value `D(x)`.
    ///
    /// One sparse product over the column-major copy of the SVs
    /// ([`ColumnMajor::dots_into`]) yields every `⟨sv_j, x⟩` at once, each
    /// bit-identical to `ops::dot(sv_j, x)`; the kernels are then summed in
    /// SV order. So `D(x)` is bit-identical to
    /// `Σ_j coef_j · kernel.eval(sv_j, x, ‖sv_j‖², ‖x‖²) − β`. The product
    /// reads only `x`'s columns that some SV stores, so memory follows the
    /// model, never the width of `x` or the model's declared column count.
    pub fn decision(&self, x: RowView<'_>) -> f64 {
        let x_sq = x.squared_norm();
        let mut dots = vec![0.0; self.n_sv()];
        self.sv_cols.dots_into(x, &mut dots);
        let mut acc = 0.0;
        for ((&cj, &dot), &sv_sq) in self.coef.iter().zip(&dots).zip(&self.sv_sq_norms) {
            acc += cj * self.kernel.eval_from_dot(dot, sv_sq, x_sq);
        }
        acc - self.bias
    }

    /// Predicted label (`+1.0` / `-1.0`; ties go positive).
    pub fn predict(&self, x: RowView<'_>) -> f64 {
        if self.decision(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    // ------------------------------------------------------------- storage

    /// Serialize to the crate's text format.
    pub fn write_to<W: Write>(&self, writer: W) -> Result<(), CoreError> {
        let mut w = BufWriter::new(writer);
        writeln!(w, "shrinksvm-model v1")?;
        match self.kernel {
            KernelKind::Rbf { gamma } => writeln!(w, "kernel rbf {gamma:e}")?,
            KernelKind::Linear => writeln!(w, "kernel linear")?,
            KernelKind::Poly {
                gamma,
                coef0,
                degree,
            } => {
                writeln!(w, "kernel poly {gamma:e} {coef0:e} {degree}")?;
            }
            KernelKind::Sigmoid { gamma, coef0 } => {
                writeln!(w, "kernel sigmoid {gamma:e} {coef0:e}")?;
            }
        }
        writeln!(w, "bias {:e}", self.bias)?;
        writeln!(w, "nsv {} ncols {}", self.n_sv(), self.sv.ncols())?;
        for (j, &cj) in self.coef.iter().enumerate() {
            write!(w, "{cj:e}")?;
            for (c, v) in self.sv.row(j).iter() {
                write!(w, " {}:{v:e}", c + 1)?;
            }
            writeln!(w)?;
        }
        w.flush()?;
        Ok(())
    }

    /// Serialize to a file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), CoreError> {
        self.write_to(std::fs::File::create(path)?)
    }

    /// Deserialize from the crate's text format.
    pub fn read_from<R: Read>(reader: R) -> Result<Self, CoreError> {
        let mut lines = BufReader::new(reader).lines();
        let mut next = |what: &str| -> Result<String, CoreError> {
            lines
                .next()
                .ok_or_else(|| CoreError::ModelFormat(format!("missing {what}")))?
                .map_err(CoreError::Io)
        };
        let magic = next("header")?;
        if magic.trim() != "shrinksvm-model v1" {
            return Err(CoreError::ModelFormat(format!("bad header '{magic}'")));
        }
        let kline = next("kernel line")?;
        let ktoks: Vec<&str> = kline.split_whitespace().collect();
        let parse = |s: &str| -> Result<f64, CoreError> {
            s.parse()
                .map_err(|_| CoreError::ModelFormat(format!("bad float '{s}'")))
        };
        let kernel = match ktoks.as_slice() {
            ["kernel", "rbf", g] => KernelKind::Rbf { gamma: parse(g)? },
            ["kernel", "linear"] => KernelKind::Linear,
            ["kernel", "poly", g, c0, d] => KernelKind::Poly {
                gamma: parse(g)?,
                coef0: parse(c0)?,
                degree: d
                    .parse()
                    .map_err(|_| CoreError::ModelFormat(format!("bad degree '{d}'")))?,
            },
            ["kernel", "sigmoid", g, c0] => KernelKind::Sigmoid {
                gamma: parse(g)?,
                coef0: parse(c0)?,
            },
            _ => return Err(CoreError::ModelFormat(format!("bad kernel line '{kline}'"))),
        };
        let bline = next("bias line")?;
        let bias = match bline.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["bias", b] => parse(b)?,
            _ => return Err(CoreError::ModelFormat(format!("bad bias line '{bline}'"))),
        };
        let nline = next("nsv line")?;
        let (nsv, ncols) = match nline.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["nsv", k, "ncols", d] => (
                k.parse::<usize>()
                    .map_err(|_| CoreError::ModelFormat("bad nsv".into()))?,
                d.parse::<usize>()
                    .map_err(|_| CoreError::ModelFormat("bad ncols".into()))?,
            ),
            _ => return Err(CoreError::ModelFormat(format!("bad nsv line '{nline}'"))),
        };
        let mut b = CsrBuilder::new(ncols);
        // `nsv` is untrusted input: preallocate only a sane amount and let
        // the vector grow if a (valid) giant model really has more rows —
        // a garbled count must not force a huge allocation up front.
        let mut coef = Vec::with_capacity(nsv.min(1 << 20));
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for k in 0..nsv {
            let line = next(&format!("sv row {k}"))?;
            let mut toks = line.split_whitespace();
            let c = toks
                .next()
                .ok_or_else(|| CoreError::ModelFormat(format!("empty sv row {k}")))?;
            coef.push(parse(c)?);
            idx.clear();
            val.clear();
            for t in toks {
                let (ci, vi) = t
                    .split_once(':')
                    .ok_or_else(|| CoreError::ModelFormat(format!("bad entry '{t}'")))?;
                let ci: u64 = ci
                    .parse()
                    .map_err(|_| CoreError::ModelFormat(format!("bad column '{ci}'")))?;
                if ci == 0 {
                    return Err(CoreError::ModelFormat("columns are 1-based".into()));
                }
                let ci = u32::try_from(ci - 1).map_err(|_| {
                    CoreError::ModelFormat(format!("sv row {k}: column {ci} is past 4294967296"))
                })?;
                idx.push(ci);
                val.push(parse(vi)?);
            }
            b.push_row(&idx, &val)
                .map_err(|e| CoreError::ModelFormat(e.to_string()))?;
        }
        SvmModel::new(kernel, b.finish(), coef, bias)
    }

    /// Deserialize from a file.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, CoreError> {
        SvmModel::read_from(std::fs::File::open(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> SvmModel {
        // two SVs on the axes, coefficients ±1, linear kernel, bias 0:
        // D(x) = x0 − x1
        let sv = CsrMatrix::from_dense(&[vec![1.0, 0.0], vec![0.0, 1.0]], 2).unwrap();
        SvmModel::new(KernelKind::Linear, sv, vec![1.0, -1.0], 0.0).unwrap()
    }

    #[test]
    fn decision_matches_manual_linear_form() {
        let m = toy_model();
        let x = CsrMatrix::from_dense(&[vec![3.0, 1.0]], 2).unwrap();
        assert!((m.decision(x.row(0)) - 2.0).abs() < 1e-15);
        assert_eq!(m.predict(x.row(0)), 1.0);
        let x = CsrMatrix::from_dense(&[vec![0.0, 2.0]], 2).unwrap();
        assert_eq!(m.predict(x.row(0)), -1.0);
    }

    #[test]
    fn tie_goes_positive() {
        let m = toy_model();
        let x = CsrMatrix::from_dense(&[vec![1.0, 1.0]], 2).unwrap();
        assert_eq!(m.predict(x.row(0)), 1.0);
    }

    #[test]
    fn bias_shifts_decision() {
        let sv = CsrMatrix::from_dense(&[vec![1.0, 0.0]], 2).unwrap();
        let m = SvmModel::new(KernelKind::Linear, sv, vec![1.0], 0.5).unwrap();
        let x = CsrMatrix::from_dense(&[vec![1.0, 0.0]], 2).unwrap();
        assert!((m.decision(x.row(0)) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn mismatched_coef_count_rejected() {
        let sv = CsrMatrix::from_dense(&[vec![1.0]], 1).unwrap();
        assert!(SvmModel::new(KernelKind::Linear, sv, vec![1.0, 2.0], 0.0).is_err());
    }

    #[test]
    fn roundtrip_through_text_format() {
        let sv = CsrMatrix::from_dense(&[vec![0.25, 0.0, -1.5], vec![0.0, 2.0, 0.0]], 3).unwrap();
        let m =
            SvmModel::new(KernelKind::Rbf { gamma: 0.125 }, sv, vec![1.5, -0.75], -0.3).unwrap();
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        let back = SvmModel::read_from(&buf[..]).unwrap();
        assert_eq!(back.kernel(), m.kernel());
        assert_eq!(back.bias(), m.bias());
        assert_eq!(back.coefficients(), m.coefficients());
        assert_eq!(back.support_vectors(), m.support_vectors());
        // predictions identical
        let x = CsrMatrix::from_dense(&[vec![0.2, 1.0, -0.5]], 3).unwrap();
        assert_eq!(back.decision(x.row(0)), m.decision(x.row(0)));
    }

    #[test]
    fn roundtrip_all_kernel_kinds() {
        let sv = CsrMatrix::from_dense(&[vec![1.0]], 1).unwrap();
        for kind in [
            KernelKind::Linear,
            KernelKind::Rbf { gamma: 2.0 },
            KernelKind::Poly {
                gamma: 0.5,
                coef0: 1.0,
                degree: 3,
            },
            KernelKind::Sigmoid {
                gamma: 0.1,
                coef0: -0.2,
            },
        ] {
            let m = SvmModel::new(kind, sv.clone(), vec![1.0], 0.0).unwrap();
            let mut buf = Vec::new();
            m.write_to(&mut buf).unwrap();
            let back = SvmModel::read_from(&buf[..]).unwrap();
            assert_eq!(back.kernel(), kind);
        }
    }

    #[test]
    fn read_rejects_garbage() {
        assert!(SvmModel::read_from("not a model".as_bytes()).is_err());
        assert!(SvmModel::read_from("shrinksvm-model v1\nkernel warp 1\n".as_bytes()).is_err());
        let truncated = "shrinksvm-model v1\nkernel linear\nbias 0\nnsv 2 ncols 1\n1 1:1\n";
        assert!(SvmModel::read_from(truncated.as_bytes()).is_err());
    }

    #[test]
    fn read_survives_every_truncation_without_panicking() {
        let sv = CsrMatrix::from_dense(&[vec![0.25, 0.0, -1.5], vec![0.0, 2.0, 0.0]], 3).unwrap();
        let m =
            SvmModel::new(KernelKind::Rbf { gamma: 0.125 }, sv, vec![1.5, -0.75], -0.3).unwrap();
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let body_start = text.find("nsv").expect("nsv line present");
        for cut in 0..text.len() {
            // must never panic; header/metadata truncations must error
            let r = SvmModel::read_from(&text.as_bytes()[..cut]);
            if cut <= body_start {
                assert!(r.is_err(), "{cut}-byte prefix parsed as a model");
            }
        }
    }

    #[test]
    fn read_caps_preallocation_for_hostile_counts() {
        // claims an absurd SV count with no rows: must fail with a typed
        // error quickly instead of preallocating by the header's say-so
        let evil = "shrinksvm-model v1\nkernel linear\nbias 0\nnsv 99999999999 ncols 2\n";
        assert!(matches!(
            SvmModel::read_from(evil.as_bytes()),
            Err(CoreError::ModelFormat(_))
        ));
    }

    #[test]
    fn read_rejects_columns_past_u32() {
        // 4294967297 would wrap to column 0 if cast to u32
        let text = "shrinksvm-model v1\nkernel linear\nbias 0\nnsv 1 ncols 8589934592\n\
                    1 4294967297:2\n";
        assert!(matches!(
            SvmModel::read_from(text.as_bytes()),
            Err(CoreError::ModelFormat(msg)) if msg.contains("4294967297")
        ));
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let sv = CsrMatrix::from_dense(
            &[
                vec![0.25, 0.0, -1.5e-7],
                vec![0.0, 2.0, 0.0],
                vec![1e300, -1e-300, 3.5],
            ],
            3,
        )
        .unwrap();
        let m = SvmModel::new(
            KernelKind::Poly {
                gamma: 0.5,
                coef0: -1.25,
                degree: 4,
            },
            sv,
            vec![1.5, -0.75, 1e-17],
            -0.3,
        )
        .unwrap();
        let mut first = Vec::new();
        m.write_to(&mut first).unwrap();
        let back = SvmModel::read_from(&first[..]).unwrap();
        let mut second = Vec::new();
        back.write_to(&mut second).unwrap();
        assert_eq!(first, second, "save→load→save must be byte-identical");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("shrinksvm-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.model");
        let m = toy_model();
        m.save(&path).unwrap();
        let back = SvmModel::load(&path).unwrap();
        assert_eq!(back.n_sv(), 2);
        std::fs::remove_file(&path).ok();
    }
}
