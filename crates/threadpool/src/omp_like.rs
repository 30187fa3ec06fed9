//! OpenMP-style baseline pool for the Figure 4 comparison.
//!
//! GCC's OpenMP runtime hands out loop chunks from shared state guarded by
//! locks and wakes the team with a broadcast at every `parallel for` region;
//! the paper attributes OpenMP's weaker strong-scaling to this per-region
//! "launch and suppress" overhead. [`OmpLikePool`] reproduces that cost
//! structure faithfully — central mutex-protected chunk list, condvar
//! broadcast at region start, condvar join at region end — while computing
//! exactly the same result as [`crate::ThreadPool`], so end-to-end runs can
//! isolate the threading-runtime variable.

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::{even_part, panic_message, Parallelism};

type Body<'a> = dyn Fn(usize, Range<usize>) + Sync + 'a;

struct RegionState {
    /// Monotonic region counter; workers use it to detect new work.
    epoch: u64,
    /// Body of the active region (type-erased; valid while `remaining > 0`).
    body: Option<*const Body<'static>>,
    /// Chunks not yet claimed. All workers contend on this list — that is
    /// the modeled OpenMP overhead.
    chunks: Vec<(usize, Range<usize>)>,
    /// Chunks claimed but not finished.
    in_flight: usize,
    shutdown: bool,
}

// SAFETY: the body pointer is only dereferenced while the scheduling thread
// blocks in `run`, which keeps the referent alive; `RegionState` itself is
// always accessed under the mutex.
unsafe impl Send for RegionState {}

struct Shared {
    state: Mutex<RegionState>,
    work_ready: Condvar,
    region_done: Condvar,
    panicked: AtomicBool,
    /// Message of the first panicking chunk of the active region.
    panic_msg: Mutex<Option<String>>,
    /// Panics contained at chunk boundaries over the pool's lifetime.
    panics: AtomicU64,
}

/// Mutex/condvar-based pool mimicking an OpenMP `parallel for` runtime.
pub struct OmpLikePool {
    shared: Arc<Shared>,
    threads: usize,
    joins: Vec<JoinHandle<()>>,
    /// Serializes concurrent schedulers, mirroring `ThreadPool`.
    scheduler: Mutex<()>,
}

impl OmpLikePool {
    /// Creates a pool with `threads` executors total (caller + workers).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or a worker cannot be spawned.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a pool needs at least one executor");
        let shared = Arc::new(Shared {
            state: Mutex::new(RegionState {
                epoch: 0,
                body: None,
                // Room for one chunk per executor: regions never reallocate it.
                chunks: Vec::with_capacity(threads),
                in_flight: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            region_done: Condvar::new(),
            panicked: AtomicBool::new(false),
            panic_msg: Mutex::new(None),
            panics: AtomicU64::new(0),
        });
        let joins = (1..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("neocpu-omp-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn omp-like worker")
            })
            .collect();
        Self { shared, threads, joins, scheduler: Mutex::new(()) }
    }

    /// Panics contained at chunk boundaries so far (diagnostics); mirrors
    /// [`crate::ThreadPool::panics_contained`].
    pub fn panics_contained(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }
}

fn run_chunk(shared: &Shared, body: &Body<'_>, worker: usize, range: Range<usize>) {
    let result = panic::catch_unwind(AssertUnwindSafe(|| body(worker, range)));
    if let Err(payload) = result {
        shared.panics.fetch_add(1, Ordering::Relaxed);
        let mut slot = shared.panic_msg.lock();
        if slot.is_none() {
            *slot = Some(panic_message(payload.as_ref()));
        }
        drop(slot);
        shared.panicked.store(true, Ordering::Relaxed);
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let mut state = shared.state.lock();
        loop {
            if state.shutdown {
                return;
            }
            if state.epoch != seen_epoch && !state.chunks.is_empty() {
                break;
            }
            if state.chunks.is_empty() && state.epoch != seen_epoch {
                // Region drained before we got a chunk; wait for the next.
                seen_epoch = state.epoch;
            }
            shared.work_ready.wait(&mut state);
        }
        seen_epoch = state.epoch;
        // Claim chunks one at a time from the shared list (central-queue
        // contention is the point of this baseline).
        while let Some((worker, range)) = state.chunks.pop() {
            state.in_flight += 1;
            let body = state.body.expect("active region must have a body");
            drop(state);
            // SAFETY: the scheduler blocks in `run` until `in_flight`
            // returns to zero and `chunks` is empty, keeping `body` alive.
            run_chunk(shared, unsafe { &*body }, worker, range);
            state = shared.state.lock();
            state.in_flight -= 1;
            if state.chunks.is_empty() && state.in_flight == 0 {
                shared.region_done.notify_all();
            }
        }
    }
}

impl Parallelism for OmpLikePool {
    fn num_threads(&self) -> usize {
        self.threads
    }

    fn run(&self, total: usize, body: &(dyn Fn(usize, Range<usize>) + Sync)) {
        if total == 0 {
            return;
        }
        let parts = self.threads.min(total);
        if parts == 1 {
            body(0, 0..total);
            return;
        }
        let _serialize = self.scheduler.lock();
        // SAFETY: as in `ThreadPool::run` — we do not return until the
        // region has fully drained, so erasing the lifetime is sound.
        let body_ptr: *const Body<'static> =
            unsafe { std::mem::transmute::<*const Body<'_>, *const Body<'static>>(body) };

        let mut state = self.shared.state.lock();
        state.epoch += 1;
        state.body = Some(body_ptr);
        state.chunks.extend((0..parts).map(|i| (i, even_part(total, parts, i))));
        // Broadcast wake-up: every region pays a full team wake, the
        // OpenMP-style cost.
        self.shared.work_ready.notify_all();

        // The caller participates too, claiming chunks like any worker.
        while let Some((worker, range)) = state.chunks.pop() {
            state.in_flight += 1;
            drop(state);
            run_chunk(&self.shared, body, worker, range);
            state = self.shared.state.lock();
            state.in_flight -= 1;
        }
        while state.in_flight > 0 {
            self.shared.region_done.wait(&mut state);
        }
        state.body = None;
        drop(state);

        if self.shared.panicked.swap(false, Ordering::Relaxed) {
            let msg = self
                .shared
                .panic_msg
                .lock()
                .take()
                .unwrap_or_else(|| "<message lost>".to_string());
            panic!("a worker panicked inside a parallel region: {msg}");
        }
    }
}

impl Drop for OmpLikePool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn covers_range_exactly_once() {
        let pool = OmpLikePool::new(4);
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        pool.run(500, &|_, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn repeated_regions() {
        let pool = OmpLikePool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..60 {
            pool.run(10, &|_, range| {
                total.fetch_add(range.len(), Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 600);
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = OmpLikePool::new(1);
        let total = AtomicUsize::new(0);
        pool.run(9, &|worker, range| {
            assert_eq!(worker, 0);
            total.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = OmpLikePool::new(4);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, &|worker, _| {
                if worker == 1 {
                    panic!("injected");
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(pool.panics_contained(), 1, "the contained panic must be counted");
        let total = AtomicUsize::new(0);
        pool.run(8, &|_, range| {
            total.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 8);
        assert_eq!(pool.panics_contained(), 1, "clean regions must not move the counter");
    }

    #[test]
    fn matches_threadpool_results() {
        use crate::ThreadPool;
        let omp = OmpLikePool::new(3);
        let neo = ThreadPool::new(3);
        let out_a: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
        let out_b: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
        omp.run(256, &|_, range| {
            for i in range {
                out_a[i].store(i * i, Ordering::Relaxed);
            }
        });
        neo.run(256, &|_, range| {
            for i in range {
                out_b[i].store(i * i, Ordering::Relaxed);
            }
        });
        for i in 0..256 {
            assert_eq!(out_a[i].load(Ordering::Relaxed), out_b[i].load(Ordering::Relaxed));
        }
    }
}
