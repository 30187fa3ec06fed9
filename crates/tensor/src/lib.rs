//! Tensor substrate for the NeoCPU reproduction.
//!
//! This crate provides the data-plane foundation the rest of the stack is
//! built on: 64-byte aligned dense `f32` buffers, logical shapes with
//! row-major stride math, the blocked data layouts the paper's optimization
//! revolves around (`NCHW`, `NCHW[x]c`, `OIHW`, `OIHW[x]i[y]o`), and
//! the layout-transformation routines whose *elimination* at the graph level
//! is NeoCPU's section 3.2 contribution.
//!
//! Layout transforms here are honest: they move every element and therefore
//! cost real time proportional to the tensor size, which is exactly the
//! overhead the graph-level passes try to avoid paying.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod aligned;
mod arena;
mod dtype;
mod error;
mod layout;
mod shape;
mod tensor;
pub mod transform;

pub use aligned::AlignedBuf;
pub use arena::Arena;
pub use dtype::DType;
pub use error::TensorError;
pub use layout::Layout;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
