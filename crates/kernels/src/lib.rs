//! Templated CNN operator kernels (NeoCPU §3.1).
//!
//! The crate's centerpiece is the direct-convolution template of Algorithm 1:
//! data lives in the blocked `NCHW[x]c` layout, weights in `OIHW[x]i[y]o`,
//! the output width is split by a register-blocking factor `reg_n`, and the
//! innermost loops broadcast one vector of kernel values against `reg_n`
//! accumulator vectors held in SIMD registers. The template is configured by
//! a [`ConvSchedule`] tuple `(ic_bn, oc_bn, reg_n)` plus a strip dataflow —
//! the knobs the paper's local search explores, less its kernel-loop unroll
//! flag: every strip runs the one flattened `(kh, kw)` tap loop — and
//! dispatches to an AVX-512, AVX2, or portable-scalar microkernel at runtime.
//!
//! Reference kernels in plain `NCHW` serve both as the correctness
//! oracle for every optimized path and as the "framework default layout"
//! baselines in the evaluation harness.
//!
//! All remaining CNN operators the evaluated models need (pooling, batch
//! norm, dense, softmax, concat, element-wise ops) live here too, each
//! implemented for the layouts its §3.2 class requires: layout-oblivious
//! ops work on flat slices, layout-tolerant ops handle both `NCHW` and
//! `NCHW[x]c`, and layout-dependent ops demand plain `NCHW`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Kernel-code idioms the default lint set dislikes: explicit index loops
// mirror the register tiling they implement, pointer re-binds force
// by-value capture into parallel closures, and kernel entry points take
// the full operand set as arguments.
#![allow(clippy::needless_range_loop, clippy::redundant_locals, clippy::too_many_arguments)]

pub mod conv;
pub mod dense;
pub mod elementwise;
pub mod pool2d;
pub mod quantize;
pub mod softmax;

mod epilogue;
mod error;
mod util;

pub use conv::{
    conv2d_nchw_direct, conv2d_nchwc, conv2d_nchwc_u8, padded_input_len,
    Conv2dParams, ConvQuant, ConvSchedule, Epilogue,
};
pub use error::KernelError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, KernelError>;
