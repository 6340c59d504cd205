//! Error type shared by the linear-algebra routines.

use std::fmt;

/// Errors produced by the factorizations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the offending operation.
        context: String,
    },
    /// A matrix that must be square is not.
    NotSquare {
        /// Observed number of rows.
        nrows: usize,
        /// Observed number of columns.
        ncols: usize,
    },
    /// An iterative method did not converge within its iteration budget.
    NoConvergence {
        /// Name of the algorithm.
        algorithm: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// The caller supplied an invalid parameter (e.g. a zero truncation rank).
    InvalidArgument {
        /// Human-readable description.
        context: String,
    },
    /// A NaN or infinity was detected where finite data is required.
    NonFinite {
        /// Where the non-finite value was detected.
        context: String,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            LinalgError::NotSquare { nrows, ncols } => {
                write!(f, "matrix must be square, got {nrows}x{ncols}")
            }
            LinalgError::NoConvergence { algorithm, iterations } => {
                write!(f, "{algorithm} did not converge after {iterations} iterations")
            }
            LinalgError::InvalidArgument { context } => {
                write!(f, "invalid argument: {context}")
            }
            LinalgError::NonFinite { context } => {
                write!(f, "non-finite value detected: {context}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

impl From<LinalgError> for koala_error::KoalaError {
    fn from(e: LinalgError) -> Self {
        use koala_error::ErrorKind;
        let kind = match &e {
            LinalgError::DimensionMismatch { .. } | LinalgError::NotSquare { .. } => {
                ErrorKind::Shape
            }
            LinalgError::NoConvergence { .. } => ErrorKind::NoConvergence,
            LinalgError::InvalidArgument { .. } => ErrorKind::InvalidArgument,
            LinalgError::NonFinite { .. } => ErrorKind::NonFinite,
        };
        koala_error::KoalaError::new(kind, e.to_string())
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Build a [`LinalgError::DimensionMismatch`] from format arguments.
#[macro_export]
macro_rules! dim_mismatch {
    ($($arg:tt)*) => {
        $crate::error::LinalgError::DimensionMismatch { context: format!($($arg)*) }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = LinalgError::NotSquare { nrows: 3, ncols: 4 };
        assert!(e.to_string().contains("3x4"));
        let e = LinalgError::NoConvergence { algorithm: "jacobi-svd", iterations: 42 };
        assert!(e.to_string().contains("jacobi-svd"));
        assert!(e.to_string().contains("42"));
        let e = dim_mismatch!("gemm {}x{} * {}x{}", 2, 3, 4, 5);
        assert!(e.to_string().contains("2x3"));
    }
}
