//! Custom thread pool for embarrassingly parallel CNN operator loops.
//!
//! NeoCPU §3.1.2: kernel libraries reach for OpenMP, but its per-region
//! thread launch/suppress overhead limits strong scaling at inference batch
//! size 1, where each model inference runs *many short* parallel regions.
//! The paper's answer is a purpose-built fork-join pool:
//!
//! * the outermost operator loop is **split into disjoint pieces** across
//!   one executor per physical core;
//! * a **single-producer single-consumer lock-free queue** connects the
//!   scheduler to every worker, so task hand-off is one atomic store;
//! * fork-join coordination uses plain **atomics** (no mutex on the hot
//!   path);
//! * queue indices and the join counter are **cache-line padded** to avoid
//!   false sharing;
//! * workers are **bound to disjoint physical cores** and hyper-threading
//!   is not used.
//!
//! [`ThreadPool`] implements that, with one departure: the paper hands each
//! core one equal piece, which makes every region as slow as the slowest
//! core, so here the loop is cut into a few blocks per executor and the
//! executors claim them from an atomic cursor (see `pool.rs`). [`OmpLikePool`]
//! keeps the equal pieces (OpenMP's static schedule) and implements the
//! comparison point: a central mutex-protected chunk queue with condvar
//! broadcast per region, the structural overhead OpenMP-style runtimes pay.
//! Both implement [`Parallelism`], so every kernel in `neocpu-kernels` can
//! run on either — that is the axis Figure 4 varies.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod affinity;
mod omp_like;
mod pool;
pub mod spsc;

use std::ops::Range;

pub use omp_like::OmpLikePool;
pub use pool::ThreadPool;

/// A strategy for executing data-parallel loops.
///
/// `run(total, body)` partitions `0..total` into disjoint ranges and invokes
/// `body(worker_index, range)` for each, possibly concurrently. It returns
/// only after every range has been processed, so `body` may borrow from the
/// caller's stack. How many ranges there are, and which executor gets which,
/// is the implementation's business: an executor may be handed several
/// ranges in one region, or none, so `body` must not keep anything per
/// range under its worker index alone.
pub trait Parallelism: Send + Sync {
    /// Number of executors that participate in a region (including the
    /// calling thread).
    fn num_threads(&self) -> usize;

    /// Executes `body` over a partition of `0..total`.
    fn run(&self, total: usize, body: &(dyn Fn(usize, Range<usize>) + Sync));
}

/// Single-threaded [`Parallelism`]: runs the whole range inline.
///
/// Used for deterministic tests and for the local search, which measures
/// single-operation kernels (§3.3.1) without cross-thread noise.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sequential;

impl Parallelism for Sequential {
    fn num_threads(&self) -> usize {
        1
    }

    fn run(&self, total: usize, body: &(dyn Fn(usize, Range<usize>) + Sync)) {
        if total > 0 {
            body(0, 0..total);
        }
    }
}

/// Best-effort extraction of a human-readable message from a panic payload
/// (the `String`/`&str` cases cover `panic!` with and without formatting).
/// Shared by both pools so a worker panic propagates with its original
/// message instead of an anonymous "a worker panicked", and by the
/// executor's per-node and the serve engine's per-batch panic boundaries.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Evenly splits `0..total` into at most `parts` non-empty contiguous
/// ranges (the paper's static partitioning of the outermost loop).
///
/// The first `total % parts` ranges are one element longer, so range sizes
/// differ by at most one.
pub fn split_even(total: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.min(total);
    (0..parts).map(|i| even_part(total, parts, i)).collect()
}

/// Range `i` of [`split_even`]`(total, parts)`, computed in place, so that
/// [`OmpLikePool`] fills its chunk queue without allocating. Requires
/// `i < parts <= total`.
pub(crate) fn even_part(total: usize, parts: usize, i: usize) -> Range<usize> {
    debug_assert!(i < parts && parts <= total);
    let (base, extra) = (total / parts, total % parts);
    let start = i * base + i.min(extra);
    start..start + base + usize::from(i < extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_even_covers_range_exactly() {
        for total in [0usize, 1, 7, 16, 100, 101] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = split_even(total, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, total);
                // The longer ranges come first.
                assert!(ranges.windows(2).all(|w| w[0].len() >= w[1].len()));
                if total > 0 {
                    let max = ranges.iter().map(|r| r.len()).max().unwrap();
                    let min = ranges.iter().map(|r| r.len()).min().unwrap();
                    assert!(max - min <= 1, "uneven split {total}/{parts}");
                }
            }
        }
    }

    #[test]
    fn sequential_runs_whole_range_inline() {
        let mut hits = vec![false; 10];
        let cell = std::sync::Mutex::new(&mut hits);
        Sequential.run(10, &|worker, range| {
            assert_eq!(worker, 0);
            let mut guard = cell.lock().unwrap();
            for i in range {
                guard[i] = true;
            }
        });
        assert!(hits.iter().all(|&h| h));
    }

    #[test]
    fn sequential_ignores_empty_range() {
        Sequential.run(0, &|_, _| panic!("must not be called"));
    }
}
