//! The repo benchmark's library half: everything `e2e` (src/main.rs) runs,
//! split out so the integration tests can read result lines and
//! `BENCHMARK.json` with the same code.

pub mod compare;
pub mod host;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;

/// The benchmark's error type: everything it can fail with is reported to
/// the operator and ends the run.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;
