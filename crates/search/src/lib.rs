//! Two-stage optimization scheme search (NeoCPU §3.3).
//!
//! **Local search** (§3.3.1) walks the candidate space of one convolution —
//! all channel-factor pairs `(ic_bn, oc_bn)`, both strip dataflows and the
//! per-dataflow `reg_n` ladder; not the paper's kernel-unroll flag, since
//! every strip runs one flattened tap loop — and ranks the schedules by
//! execution time, either *measured* on the real kernel (the paper's
//! method) or *predicted* by a deterministic analytical model (used by fast
//! tests and for pre-selection). A [`SchemeDatabase`] caches results per
//! workload so repeated convolutions across models search once.
//!
//! **Global search** (§3.3.2) picks one scheme per convolution for a whole
//! model, trading each CONV's local optimum against the layout-transform
//! cost its choice induces on its neighbours. The model graph is distilled
//! into a [`global::SearchProblem`] — conv nodes with per-candidate costs,
//! edges with transform-cost matrices (0 on agreeing factors) — and solved
//! by PBQP, as in register allocation: reductions R0/RI/RII, exact on the
//! chains, trees and series-parallel graphs of every model but SSD, plus an
//! RN heuristic for SSD's concat blocks. The paper runs Algorithm 2's
//! dynamic program where it is tractable; here it is kept only as the
//! reference PBQP is measured against ([`global::solve_dp`]), since on
//! every forest-shaped zoo model both pick the same candidate for every
//! conv.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod database;
pub mod global;
pub mod local;

pub use cost::{AnalyticalModel, CostModel, TimedMeasurer};
pub use database::{DbError, SchemeDatabase};
pub use global::{extract_problem, solve, GlobalCfg, SearchProblem};
pub use local::{local_search, local_search_i8, LocalSearchCfg, RankedScheme};
