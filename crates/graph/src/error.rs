//! Error type for graph construction, inference, and passes.

use std::fmt;

use neocpu_kernels::KernelError;
use neocpu_tensor::TensorError;

/// Errors produced while building, validating, or transforming graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node references a node id that does not precede it (the IR keeps
    /// nodes in topological id order) or does not exist.
    BadNodeRef {
        /// The referring node.
        node: usize,
        /// The offending input id.
        input: usize,
    },
    /// A node has the wrong number of inputs for its operator.
    BadArity {
        /// The node in question.
        node: usize,
        /// Required input count.
        expected: usize,
        /// Actual input count.
        actual: usize,
    },
    /// A node references a parameter id that is out of range.
    BadParamRef {
        /// The referring node.
        node: usize,
        /// The offending parameter id.
        param: usize,
    },
    /// Shape inference failed at a node.
    Shape {
        /// The node at which inference failed.
        node: usize,
        /// Explanation.
        msg: String,
    },
    /// Layout inference or planning failed at a node.
    Layout {
        /// The node at which the failure occurred.
        node: usize,
        /// Explanation.
        msg: String,
    },
    /// An underlying tensor error.
    Tensor(TensorError),
    /// An underlying kernel error.
    Kernel(KernelError),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadNodeRef { node, input } => {
                write!(f, "node {node} references invalid input node {input}")
            }
            Self::BadArity { node, expected, actual } => {
                write!(f, "node {node} expects {expected} inputs, has {actual}")
            }
            Self::BadParamRef { node, param } => {
                write!(f, "node {node} references invalid parameter {param}")
            }
            Self::Shape { node, msg } => write!(f, "shape error at node {node}: {msg}"),
            Self::Layout { node, msg } => write!(f, "layout error at node {node}: {msg}"),
            Self::Tensor(e) => write!(f, "tensor error: {e}"),
            Self::Kernel(e) => write!(f, "kernel error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<TensorError> for GraphError {
    fn from(e: TensorError) -> Self {
        Self::Tensor(e)
    }
}

impl From<KernelError> for GraphError {
    fn from(e: KernelError) -> Self {
        Self::Kernel(e)
    }
}
