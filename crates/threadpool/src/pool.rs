//! The NeoCPU fork-join thread pool (§3.1.2).
//!
//! One scheduler (the calling thread) wakes N−1 persistent workers through
//! per-worker SPSC queues and works alongside them; the join is a
//! cache-line-padded atomic countdown. No locks are taken on the hot path; a
//! mutex serializes *schedulers* only (one lock per region, so that the
//! single-producer discipline of each queue holds even if two threads share
//! the pool).
//!
//! The loop is cut into [`BLOCKS_PER_EXECUTOR`] blocks per executor and each
//! executor claims the next unclaimed block from one atomic cursor until
//! none is left. With N equal shares a region ends when the *slowest* core
//! finishes its share: on a shared host, where one core at a time runs slow
//! for seconds, every region then runs at that core's pace while the others
//! idle at the join (EXPERIMENTS.md E15, "Steadiness"). Claiming blocks lets
//! the faster core take more of them, for one `fetch_add` per block.

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;

use crate::spsc::{self, Consumer, Producer};
use crate::{affinity, panic_message, Parallelism};

/// Tasks queued per worker; regions enqueue at most one task per worker and
/// join before the next region, so this only needs headroom for `Stop`.
const QUEUE_CAP: usize = 8;

/// Spins a worker performs on an empty queue before parking.
const IDLE_SPINS: u32 = 1024;

/// Blocks a region is cut into per executor. Executors end within one block
/// of each other, so N of them idle for at most 1/(8·N) of the loop at the
/// join, and a block of conv rows is still thousands of times its claim.
const BLOCKS_PER_EXECUTOR: usize = 8;

type Body<'a> = dyn Fn(usize, Range<usize>) + Sync + 'a;

/// Claim and join state of one parallel region, owned by the scheduler's
/// stack frame.
struct RegionStatus {
    /// First job no executor has claimed. Padded: every executor bumps it.
    next: CachePadded<AtomicUsize>,
    /// Jobs in the region, and how many one claim takes.
    total: usize,
    block: usize,
    /// Worker tasks not yet completed. Padded: the scheduler spins on it
    /// while workers decrement it.
    remaining: CachePadded<AtomicUsize>,
    /// Set if any worker's body panicked.
    panicked: AtomicBool,
    /// Message of the first worker panic, published before `remaining` is
    /// decremented so the scheduler observes it at join time. Off the hot
    /// path: the lock is touched only when a body panics.
    panic_msg: Mutex<Option<String>>,
}

impl RegionStatus {
    /// Runs `body` on blocks of jobs claimed from the region until every job
    /// has been claimed. `Relaxed` suffices: a claim only has to be unique,
    /// and what the bodies write is published by the join.
    fn work(&self, body: &Body<'_>, worker: usize) {
        loop {
            let start = self.next.fetch_add(self.block, Ordering::Relaxed);
            if start >= self.total {
                return;
            }
            body(worker, start..(start + self.block).min(self.total));
        }
    }
}

/// A region to join, sent to a worker.
struct WorkItem {
    /// Type-erased pointer to the region body.
    ///
    /// INVARIANT: valid until `status.remaining` reaches zero; the scheduler
    /// blocks in [`ThreadPool::run`] until then, keeping the referent alive.
    body: *const Body<'static>,
    /// Worker index passed through to the body (scheduler is 0).
    worker: usize,
    /// Points into the scheduler's stack frame; same lifetime invariant.
    status: *const RegionStatus,
}

enum Msg {
    Work(WorkItem),
    Stop,
}

// SAFETY: the raw pointers in `WorkItem` reference the scheduler's stack
// frame, which outlives the message (the scheduler joins the region before
// returning); the pointed-to body is `Sync` so shared cross-thread calls
// are sound.
unsafe impl Send for Msg {}

struct WorkerHandle {
    queue: Producer<Msg>,
    thread: Thread,
    join: Option<JoinHandle<()>>,
}

/// The custom fork-join pool.
///
/// Create with [`ThreadPool::new`]; execute loops through the
/// [`Parallelism`] impl. Dropping the pool stops and joins all workers.
///
/// # Examples
///
/// ```
/// use neocpu_threadpool::{Parallelism, ThreadPool};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let sum = AtomicUsize::new(0);
/// pool.run(1000, &|_worker, range| {
///     sum.fetch_add(range.sum::<usize>(), Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 499_500);
/// ```
pub struct ThreadPool {
    /// Producer sides of the worker queues; locked once per region so only
    /// one scheduler produces at a time.
    scheduler: Mutex<Vec<WorkerHandle>>,
    threads: usize,
    regions: AtomicU64,
    /// Panics caught at the pool's unwind boundaries (worker bodies and
    /// the scheduler's own range). Shared with workers.
    panics: Arc<AtomicU64>,
}

impl ThreadPool {
    /// Creates a pool that executes regions on `threads` executors total
    /// (the caller plus `threads − 1` spawned workers), with workers bound
    /// to distinct cores (best effort).
    ///
    /// The pool reserves `threads` core slots from the process-global
    /// cursor ([`affinity::reserve_cores`]), so two pools constructed in one
    /// process land on disjoint cores instead of both stacking their
    /// workers onto `1..threads`. Worker `w` (1-based; slot 0 belongs to the
    /// caller, who is not bound by the pool) binds to the reserved set's
    /// `core_at(w)`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or a worker thread cannot be spawned.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a pool needs at least one executor");
        let cores = affinity::reserve_cores(threads);
        let panics = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::with_capacity(threads.saturating_sub(1));
        for w in 1..threads {
            let (tx, rx) = spsc::channel::<Msg>(QUEUE_CAP);
            let core = cores.core_at(w);
            let worker_panics = Arc::clone(&panics);
            let join = thread::Builder::new()
                .name(format!("neocpu-worker-{w}"))
                .spawn(move || worker_loop(rx, core, &worker_panics))
                .expect("failed to spawn pool worker");
            handles.push(WorkerHandle { queue: tx, thread: join.thread().clone(), join: Some(join) });
        }
        Self {
            scheduler: Mutex::new(handles),
            threads,
            regions: AtomicU64::new(0),
            panics,
        }
    }

    /// Number of parallel regions executed so far (diagnostics).
    pub fn regions_run(&self) -> u64 {
        self.regions.load(Ordering::Relaxed)
    }

    /// Panics contained at the pool's unwind boundaries so far
    /// (diagnostics): each one was caught, re-raised as a region failure,
    /// and left the workers reusable. A serving-grade health check can
    /// watch this climb instead of discovering dead threads the hard way.
    pub fn panics_contained(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }
}

impl Parallelism for ThreadPool {
    fn num_threads(&self) -> usize {
        self.threads
    }

    fn run(&self, total: usize, body: &(dyn Fn(usize, Range<usize>) + Sync)) {
        if total == 0 {
            return;
        }
        self.regions.fetch_add(1, Ordering::Relaxed);
        let parts = self.threads.min(total);
        if parts == 1 {
            body(0, 0..total);
            return;
        }

        let status = RegionStatus {
            next: CachePadded::new(AtomicUsize::new(0)),
            total,
            block: total.div_ceil(parts * BLOCKS_PER_EXECUTOR),
            remaining: CachePadded::new(AtomicUsize::new(parts - 1)),
            panicked: AtomicBool::new(false),
            panic_msg: Mutex::new(None),
        };
        // SAFETY: transmuting away the body's lifetime is sound because this
        // function does not return until `status.remaining` hits zero, i.e.
        // until no worker holds the pointer anymore.
        let body_ptr: *const Body<'static> =
            unsafe { std::mem::transmute::<*const Body<'_>, *const Body<'static>>(body) };

        let mut workers = self.scheduler.lock();
        for (handle, worker) in workers.iter_mut().zip(1..parts) {
            let mut item = Msg::Work(WorkItem {
                body: body_ptr,
                worker,
                status: &status,
            });
            loop {
                match handle.queue.push(item) {
                    Ok(()) => break,
                    Err(back) => {
                        // Only possible if a previous `Stop` is still queued
                        // during teardown races; never in steady state.
                        item = back;
                        thread::yield_now();
                    }
                }
            }
            handle.thread.unpark();
        }

        // The scheduler participates as worker 0. Catch a local panic so we
        // still join the region before unwinding: workers hold pointers into
        // this stack frame.
        let local = panic::catch_unwind(AssertUnwindSafe(|| status.work(body, 0)));

        let mut spins = 0u32;
        while status.remaining.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < IDLE_SPINS {
                std::hint::spin_loop();
            } else {
                thread::yield_now();
            }
        }
        drop(workers);

        if let Err(payload) = local {
            self.panics.fetch_add(1, Ordering::Relaxed);
            panic::resume_unwind(payload);
        }
        if status.panicked.load(Ordering::Relaxed) {
            let msg = status
                .panic_msg
                .lock()
                .take()
                .unwrap_or_else(|| "<message lost>".to_string());
            panic!("a worker panicked inside a parallel region: {msg}");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        let mut workers = self.scheduler.lock();
        for w in workers.iter_mut() {
            let mut msg = Msg::Stop;
            loop {
                match w.queue.push(msg) {
                    Ok(()) => break,
                    Err(back) => {
                        msg = back;
                        thread::yield_now();
                    }
                }
            }
            w.thread.unpark();
        }
        for w in workers.iter_mut() {
            if let Some(join) = w.join.take() {
                let _ = join.join();
            }
        }
    }
}

fn worker_loop(mut rx: Consumer<Msg>, core: Option<usize>, panics: &AtomicU64) {
    if let Some(core) = core {
        // Best effort; an unbound worker is still correct.
        let _ = affinity::bind_current_thread(core);
    }
    let mut idle = 0u32;
    loop {
        match rx.pop() {
            Some(Msg::Work(item)) => {
                idle = 0;
                // SAFETY: the scheduler keeps `body` and `status` alive
                // until we decrement `remaining` below (it spins on it
                // before returning), and `body` is `Sync`.
                let (body, status) = unsafe { (&*item.body, &*item.status) };
                let result = panic::catch_unwind(AssertUnwindSafe(|| status.work(body, item.worker)));
                if let Err(payload) = result {
                    panics.fetch_add(1, Ordering::Relaxed);
                    let mut slot = status.panic_msg.lock();
                    if slot.is_none() {
                        *slot = Some(panic_message(payload.as_ref()));
                    }
                    drop(slot);
                    status.panicked.store(true, Ordering::Relaxed);
                }
                // Release pairs with the scheduler's Acquire spin: all our
                // writes to the output happen-before the join completes.
                status.remaining.fetch_sub(1, Ordering::Release);
            }
            Some(Msg::Stop) => return,
            None => {
                idle += 1;
                if idle < IDLE_SPINS {
                    std::hint::spin_loop();
                } else {
                    thread::park();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn computes_disjoint_cover() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(1000, &|_, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.num_threads(), 1);
        let count = AtomicUsize::new(0);
        pool.run(17, &|worker, range| {
            assert_eq!(worker, 0);
            count.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn many_small_regions_reuse_workers() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..150 {
            pool.run(7, &|_, range| {
                total.fetch_add(range.len(), Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 1050);
        assert_eq!(pool.regions_run(), 150);
    }

    #[test]
    fn total_smaller_than_threads() {
        let pool = ThreadPool::new(8);
        let count = AtomicUsize::new(0);
        pool.run(3, &|_, range| {
            count.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn worker_indices_are_distinct_and_in_range() {
        let pool = ThreadPool::new(4);
        let seen: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.run(4, &|worker, range| {
            assert_eq!(range.len(), 1);
            seen[worker].fetch_add(1, Ordering::Relaxed);
        });
        let total: usize = seen.iter().map(|s| s.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 4);
    }

    /// Jobs are claimed first come, first served, so a quick executor may
    /// take them all. A region of `n` jobs on `n` executors whose body
    /// starts with `everyone.wait()` holds each executor in its first job
    /// until all have one: every executor then runs the body exactly once.
    fn all_hands(n: usize) -> std::sync::Barrier {
        std::sync::Barrier::new(n)
    }

    #[test]
    fn a_stalled_executor_keeps_only_the_block_it_claimed() {
        let pool = ThreadPool::new(2);
        let done = AtomicUsize::new(0);
        let blocks = 2 * BLOCKS_PER_EXECUTOR;
        pool.run(4 * blocks, &|_, range| {
            if range.start == 0 {
                // Whoever claimed the first block stays in it until the
                // other executor has finished every other block. Equal
                // halves would leave half of them waiting behind this one.
                let t0 = std::time::Instant::now();
                while done.load(Ordering::Acquire) < blocks - 1 {
                    assert!(t0.elapsed().as_secs() < 10, "the other blocks waited for this one");
                    thread::yield_now();
                }
            }
            assert_eq!(range.len(), 4);
            done.fetch_add(1, Ordering::Release);
        });
        assert_eq!(done.load(Ordering::Relaxed), blocks);
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let pool = ThreadPool::new(4);
        let everyone = all_hands(4);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, &|worker, _| {
                everyone.wait();
                if worker == 2 {
                    panic!("injected failure");
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(pool.panics_contained(), 1, "the contained panic must be counted");
        // The pool must still be usable afterwards.
        let count = AtomicUsize::new(0);
        pool.run(10, &|_, range| {
            count.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
        assert_eq!(pool.panics_contained(), 1, "clean regions must not move the counter");
    }

    #[test]
    fn worker_panic_message_is_captured() {
        let pool = ThreadPool::new(4);
        let everyone = all_hands(4);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, &|worker, _| {
                everyone.wait();
                if worker != 0 {
                    panic!("boom from worker {worker}");
                }
            });
        }));
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string panic payload");
        assert!(
            msg.contains("boom from worker"),
            "propagated panic lost the worker message: {msg}"
        );
    }

    #[test]
    fn scheduler_panic_still_joins_region() {
        let pool = ThreadPool::new(2);
        let everyone = all_hands(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|worker, _| {
                everyone.wait();
                if worker == 0 {
                    panic!("scheduler-side failure");
                }
            });
        }));
        assert!(result.is_err());
        let count = AtomicUsize::new(0);
        pool.run(4, &|_, range| {
            count.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn concurrent_schedulers_serialize_safely() {
        let pool = std::sync::Arc::new(ThreadPool::new(3));
        let total = std::sync::Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let pool = std::sync::Arc::clone(&pool);
            let total = std::sync::Arc::clone(&total);
            joins.push(thread::spawn(move || {
                for _ in 0..15 {
                    pool.run(11, &|_, range| {
                        total.fetch_add(range.len(), Ordering::Relaxed);
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 15 * 11);
    }
}
