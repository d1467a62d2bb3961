//! Sparse linear-algebra substrate for shrinksvm.
//!
//! The paper ("Fast and Accurate Support Vector Machines on Large Scale
//! Systems", CLUSTER 2015, §III-A1) stores the training set in *compressed
//! sparse row* (CSR) form and co-locates the per-sample solver state with the
//! samples. This crate provides that representation plus everything around
//! it that the solvers and the benchmark harness need:
//!
//! * [`CsrMatrix`] — an immutable CSR matrix with cached row norms available
//!   through [`ops`],
//! * [`CsrBuilder`] — incremental row-by-row construction,
//! * [`RowView`] — a borrowed view of one sample used by the kernel
//!   functions,
//! * [`ops`] — merge-join sparse dot products, norms and squared Euclidean
//!   distances (the inner loop of every kernel evaluation),
//! * [`io`] — reader/writer for the standard libsvm text format,
//! * [`scale`] — per-feature min/max scaling (the usual libsvm preprocessing),
//! * [`Dataset`] — a labeled CSR matrix with split/shuffle/fold helpers.
//!
//! Everything is `f64`; indices are `u32` column ids (the paper's largest
//! dataset has 3.2M features, well within range) with `usize` row pointers.

pub mod builder;
pub mod csr;
pub mod dataset;
pub mod error;
pub mod io;
pub mod ops;
pub mod rowview;
pub mod scale;
pub mod scratch;

pub use builder::CsrBuilder;
pub use csr::CsrMatrix;
pub use dataset::Dataset;
pub use error::SparseError;
pub use rowview::RowView;
pub use scratch::{PairPad, ScratchPad};
