//! Computation-graph IR and graph-level optimization passes (NeoCPU §3.2).
//!
//! A CNN model is a DAG of operator nodes plus constant parameter tensors.
//! This crate defines that IR, a builder used by the model zoo, shape and
//! layout inference, and the optimization passes the paper describes. Each
//! per-operator rule is written once, in `infer.rs`: one shape rule, which
//! both [`infer_shapes`] and [`GraphBuilder`] apply, and one §3.2 contract
//! (the layout and element type an operator needs on each input and the
//! ones it produces), which both [`passes::insert_layout_transforms`] and
//! [`infer_layouts`] apply. The passes:
//!
//! * **inference simplification** — dropout elision and BatchNorm folding
//!   (into the adjacent convolution's weights, or into a per-channel
//!   scale/shift otherwise), inherited from the original TVM stack;
//! * **operation fusion** — ReLU / element-wise-add epilogues merged into
//!   convolutions and dense layers to raise arithmetic intensity;
//! * **layout planning** — assigning an `NCHW[x]c` schedule to every
//!   convolution (uniform `x` for §3.2, per-CONV factors from the global
//!   search for §3.3) and then inserting the *minimal* set of
//!   `LayoutTransform` nodes: the optimized layout flows untouched through
//!   layout-oblivious and layout-tolerant operators and is only converted at
//!   the graph boundary and before layout-dependent operators.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod builder;
mod error;
mod infer;
mod ir;
pub mod passes;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use infer::{infer_layouts, infer_shapes};
pub use ir::{Graph, Node, NodeId, Op, ParamId, QuantInfo};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
