//! Graph-level optimization passes.
//!
//! Each pass is a pure `&Graph → Graph` rewrite; the compiler driver in
//! `neocpu` chains them according to the optimization level:
//!
//! | Table 3 row        | Pipeline                                             |
//! |--------------------|------------------------------------------------------|
//! | Baseline (`O0`)    | `simplify_inference` → `fuse_ops`                     |
//! | Layout Opt. (`O1`) | … → `wrap_convs_with_transforms`                      |
//! | Transform Elim. (`O2`) | … → `plan_uniform` (which calls `insert_layout_transforms`) |
//! | Global Search (`O3`)   | … → `plan_assigned` (searched schedules, then `insert_layout_transforms`) |
//!
//! plus `precompute_weights`, which applies every weight-side
//! `LayoutTransform` at compile time (Figure 2's pre-transformed kernel).
//!
//! A pass's output shares its input's parameter handles (see `Graph`), so
//! a chain of passes holds each weight once; only
//! `precompute_weights_in_place` swaps a handle, on a graph its caller owns.

mod fuse;
mod layout;
mod precompute;
mod simplify;

pub use fuse::fuse_ops;
pub use layout::{
    insert_layout_transforms, plan_assigned, plan_uniform, wrap_convs_with_transforms,
    UniformPlanCfg,
};
pub use precompute::{precompute_weights, precompute_weights_in_place};
pub use simplify::simplify_inference;
