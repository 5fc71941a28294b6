//! Error type for query construction and evaluation.

use std::fmt;

/// Errors raised by the C-PNN query machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A probability substrate error (invalid pdf, region, ...).
    Pdf(cpnn_pdf::PdfError),
    /// Threshold outside `(0, 1]`.
    InvalidThreshold(f64),
    /// Tolerance outside `[0, 1]`.
    InvalidTolerance(f64),
    /// A query point or region centre has a non-finite coordinate (the
    /// payload is the coordinate that failed).
    InvalidQueryPoint(f64),
    /// A 2-D rectangle is empty, inverted or non-finite on `axis`.
    InvalidRectangle {
        /// The first axis that failed (0 = x, 1 = y).
        axis: usize,
        /// Lower end on that axis.
        lo: f64,
        /// Upper end on that axis.
        hi: f64,
    },
    /// A duplicate object id was inserted into the database.
    DuplicateObjectId(u64),
    /// A durable-storage failure: the write-ahead journal or checkpoint
    /// could not be written (the message carries the backend detail), or
    /// a recovered layout failed validation. Writes that fail here are
    /// **not** published — durability errors never leave the in-memory
    /// and on-disk states disagreeing silently.
    Storage(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Pdf(e) => write!(f, "pdf error: {e}"),
            CoreError::InvalidThreshold(p) => {
                write!(f, "threshold P must be in (0, 1], got {p}")
            }
            CoreError::InvalidTolerance(d) => {
                write!(f, "tolerance Δ must be in [0, 1], got {d}")
            }
            CoreError::InvalidQueryPoint(q) => write!(f, "query point must be finite, got {q}"),
            CoreError::InvalidRectangle { axis, lo, hi } => {
                write!(f, "invalid rectangle on axis {axis}: [{lo}, {hi}]")
            }
            CoreError::DuplicateObjectId(id) => write!(f, "duplicate object id {id}"),
            CoreError::Storage(msg) => write!(f, "storage error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Pdf(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cpnn_pdf::PdfError> for CoreError {
    fn from(e: cpnn_pdf::PdfError) -> Self {
        CoreError::Pdf(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
