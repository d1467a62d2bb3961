//! Error type for the solver crate.

use std::fmt;

/// Errors surfaced by training and evaluation.
#[derive(Debug)]
pub enum CoreError {
    /// Training data had no samples or only one class.
    DegenerateProblem(String),
    /// A training row's squared norm is not finite, so every kernel value
    /// that touches the row would be NaN. Both solvers check before they
    /// train; prediction takes any row.
    NonFiniteRow {
        /// The row's index in the training set (0-based).
        row: usize,
        /// The row's first column (0-based) holding ±inf or NaN; `None`
        /// when every value is finite and the squared norm overflows.
        column: Option<u32>,
    },
    /// Invalid hyper-parameters.
    BadParams(String),
    /// The optimizer made no progress for an implausible number of
    /// consecutive iterations (numerical stall guard).
    Stalled {
        /// Iteration at which the stall was declared.
        at_iteration: u64,
    },
    /// Propagated sparse-layer failure.
    Sparse(shrinksvm_sparse::SparseError),
    /// Model (de)serialization failure.
    ModelFormat(String),
    /// Checkpoint (de)serialization failure.
    CheckpointFormat(String),
    /// A rank died (injected crash) and the recovery budget — or the lack
    /// of a checkpoint policy — left no way to continue.
    RankLost {
        /// Rank that died.
        rank: usize,
        /// Simulated time of death.
        sim_time: f64,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DegenerateProblem(m) => write!(f, "degenerate problem: {m}"),
            CoreError::NonFiniteRow {
                row,
                column: Some(c),
            } => write!(
                f,
                "training row {row} (0-based) holds a non-finite value in column {c} (0-based)"
            ),
            CoreError::NonFiniteRow { row, column: None } => write!(
                f,
                "training row {row} (0-based) has a squared norm that overflows f64"
            ),
            CoreError::BadParams(m) => write!(f, "bad parameters: {m}"),
            CoreError::Stalled { at_iteration } => {
                write!(f, "optimizer stalled at iteration {at_iteration}")
            }
            CoreError::Sparse(e) => write!(f, "sparse layer: {e}"),
            CoreError::ModelFormat(m) => write!(f, "model format: {m}"),
            CoreError::CheckpointFormat(m) => write!(f, "checkpoint format: {m}"),
            CoreError::RankLost { rank, sim_time } => write!(
                f,
                "rank {rank} lost at simulated time {sim_time:.6}s with no recovery path"
            ),
            CoreError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Sparse(e) => Some(e),
            CoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<shrinksvm_sparse::SparseError> for CoreError {
    fn from(e: shrinksvm_sparse::SparseError) -> Self {
        CoreError::Sparse(e)
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        let e = CoreError::Stalled { at_iteration: 42 };
        assert!(e.to_string().contains("42"));
        let e = CoreError::BadParams("C must be positive".into());
        assert!(e.to_string().contains("C must be positive"));
        let e = CoreError::NonFiniteRow {
            row: 3,
            column: Some(7),
        };
        assert!(e.to_string().contains("row 3 ") && e.to_string().contains("column 7 "));
        let e = CoreError::NonFiniteRow {
            row: 5,
            column: None,
        };
        assert!(e.to_string().contains("row 5 ") && e.to_string().contains("overflows"));
    }
}
