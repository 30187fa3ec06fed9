//! Error type for tensor and layout operations.

use std::fmt;

/// Errors produced by tensor construction, indexing, and layout transforms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The element count implied by a shape does not match the buffer length.
    LengthMismatch {
        /// Elements the shape requires.
        expected: usize,
        /// Elements actually provided.
        actual: usize,
    },
    /// A channel (or other) dimension is not divisible by the requested
    /// blocking factor.
    NotDivisible {
        /// Human-readable name of the dimension (e.g. `"in_channel"`).
        dim: &'static str,
        /// Size of the dimension.
        size: usize,
        /// Requested block factor.
        block: usize,
    },
    /// The operation expected a tensor of a particular rank.
    RankMismatch {
        /// Required rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
    },
    /// A dtype string could not be parsed.
    ParseDType(String),
    /// Two tensors that must agree in shape do not.
    ShapeMismatch(String),
    /// The operation expected a tensor of one element type but got another.
    DTypeMismatch {
        /// DType the operation requires.
        expected: crate::DType,
        /// DType the tensor actually has.
        actual: crate::DType,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LengthMismatch { expected, actual } => {
                write!(f, "buffer length {actual} does not match shape ({expected} elements)")
            }
            Self::NotDivisible { dim, size, block } => {
                write!(f, "dimension {dim} of size {size} is not divisible by block {block}")
            }
            Self::RankMismatch { expected, actual } => {
                write!(f, "expected rank {expected}, got {actual}")
            }
            Self::ParseDType(s) => write!(f, "cannot parse dtype string {s:?}"),
            Self::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            Self::DTypeMismatch { expected, actual } => {
                write!(f, "expected dtype {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for TensorError {}
