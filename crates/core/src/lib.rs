//! NeoCPU reproduction — end-to-end CNN inference optimization on CPUs.
//!
//! This crate is the user-facing assembly of the stack: describe a CPU
//! target, pick an optimization level, [`compile`] a model graph into an
//! executable [`Module`], and run inferences.
//!
//! ```
//! use neocpu::{compile, CompileOptions, CpuTarget, OptLevel};
//! use neocpu_graph::GraphBuilder;
//! use neocpu_tensor::{Layout, Tensor};
//!
//! // A tiny two-layer CNN.
//! let mut b = GraphBuilder::new(7);
//! let x = b.input([1, 16, 16, 16]);
//! let c1 = b.conv_bn_relu(x, 32, 3, 1, 1);
//! let c2 = b.conv_bn_relu(c1, 32, 3, 1, 1);
//! let g = b.finish(vec![c2]);
//!
//! let target = CpuTarget::host();
//! let module = compile(&g, &target, &CompileOptions::level(OptLevel::O2)).unwrap();
//! let input = Tensor::random([1, 16, 16, 16], Layout::Nchw, 1, 1.0).unwrap();
//! let out = module.run(&[input]).unwrap();
//! assert_eq!(out[0].shape().dims(), &[1, 32, 16, 16]);
//! ```
//!
//! The optimization ladder matches Table 3 of the paper:
//!
//! * [`OptLevel::O0`] — plain NCHW direct convolution (the normalized
//!   baseline row);
//! * [`OptLevel::O1`] — blocked `NCHW[x]c` CONVs, but each wrapped in its
//!   own layout transforms ("Layout Opt.");
//! * [`OptLevel::O2`] — graph-level transform elimination with a uniform
//!   block ("Transform Elim.");
//! * [`OptLevel::O3`] — per-CONV schemes from the global search
//!   ("Global Search").

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod compile;
mod error;
mod executor;
pub mod faults;
pub mod memory;
mod quantize;
pub mod serve;
pub mod shard;
mod target;

pub use compile::{
    compile, compile_with_db, compile_with_report, load_scheme_db, CompileOptions, CompileReport,
    DroppedScheme, OptLevel, PoolChoice, ScheduleFallback, SearchStrategy,
};
pub use error::NeoError;
pub use executor::{Module, OpProfile, RunContext};
pub use quantize::{
    compile_quantized, compile_quantized_with_db, QuantizeOptions, QuantizeReport,
    StandaloneQuantize,
    DEFAULT_INT8_ERROR_BUDGET,
};
pub use memory::MemoryReport;
pub use serve::{EngineHealth, LatencyClass, Request, ServeEngine, ServeOptions, ServeReport};
pub use shard::{ShardReport, ShardedEngine};
pub use target::{CpuTarget, IsaKind};

pub use neocpu_threadpool::affinity::CoreSet;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NeoError>;
