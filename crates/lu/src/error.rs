//! Errors produced by the sparse LU engine.

use std::fmt;

/// Errors from symbolic/numeric factorization, solves and Bennett updates.
#[derive(Debug, Clone, PartialEq)]
pub enum LuError {
    /// A pivot became zero (or non-finite), so the factorization cannot
    /// proceed without pivoting.
    SingularPivot {
        /// Index (in the reordered numbering) of the offending pivot.
        index: usize,
        /// The offending pivot value.
        value: f64,
    },
    /// The input matrix has an entry at a position the static structure does
    /// not cover.  For CLUDE this indicates the matrix is not a member of the
    /// cluster whose universal pattern built the structure.
    EntryOutsideStructure {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
    /// A Bennett update tried to create a non-zero at a position outside the
    /// static structure.
    FillOutsideStructure {
        /// Row of the would-be fill-in.
        row: usize,
        /// Column of the would-be fill-in.
        col: usize,
        /// Magnitude of the value that could not be stored.
        magnitude: f64,
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Number of rows.
        n_rows: usize,
        /// Number of columns.
        n_cols: usize,
    },
    /// Vector/matrix dimensions do not agree.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        actual: usize,
    },
    /// An iterative solve (e.g. a sharded coupling combination) did not
    /// reach its tolerance within the iteration budget.
    ConvergenceFailure {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Last observed iterate change (∞-norm).
        last_diff: f64,
    },
    /// A solver was configured with a parameter outside its domain (e.g. a
    /// clustering threshold `α ∉ [0, 1]` or NaN).
    InvalidParameter {
        /// The parameter's name.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for LuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LuError::SingularPivot { index, value } => {
                write!(f, "singular pivot at index {index} (value {value:e})")
            }
            LuError::EntryOutsideStructure { row, col } => {
                write!(f, "matrix entry ({row}, {col}) lies outside the LU structure")
            }
            LuError::FillOutsideStructure { row, col, magnitude } => write!(
                f,
                "update would create fill of magnitude {magnitude:e} at ({row}, {col}) outside the structure"
            ),
            LuError::NotSquare { n_rows, n_cols } => {
                write!(f, "LU decomposition requires a square matrix, got {n_rows}x{n_cols}")
            }
            LuError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            LuError::ConvergenceFailure {
                iterations,
                last_diff,
            } => write!(
                f,
                "iterative solve did not converge within {iterations} iterations (last change {last_diff:e})"
            ),
            LuError::InvalidParameter { name, value } => {
                write!(f, "parameter {name} = {value} is outside its domain")
            }
        }
    }
}

impl std::error::Error for LuError {}

/// Result alias for LU operations.
pub type LuResult<T> = Result<T, LuError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_facts() {
        assert!(LuError::SingularPivot {
            index: 3,
            value: 0.0
        }
        .to_string()
        .contains("index 3"));
        assert!(LuError::EntryOutsideStructure { row: 1, col: 2 }
            .to_string()
            .contains("(1, 2)"));
        assert!(LuError::FillOutsideStructure {
            row: 1,
            col: 2,
            magnitude: 0.5
        }
        .to_string()
        .contains("outside"));
        assert!(LuError::NotSquare {
            n_rows: 2,
            n_cols: 3
        }
        .to_string()
        .contains("2x3"));
        assert!(LuError::DimensionMismatch {
            expected: 5,
            actual: 4
        }
        .to_string()
        .contains("expected 5"));
        assert!(LuError::ConvergenceFailure {
            iterations: 512,
            last_diff: 1e-3
        }
        .to_string()
        .contains("512 iterations"));
        assert!(LuError::InvalidParameter {
            name: "alpha",
            value: 1.5
        }
        .to_string()
        .contains("alpha = 1.5"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&LuError::NotSquare {
            n_rows: 1,
            n_cols: 2,
        });
    }
}
