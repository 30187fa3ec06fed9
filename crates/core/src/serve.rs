//! Throughput-serving engine: concurrent, batched inference over pooled
//! [`RunContext`]s, with a full request-lifecycle layer — deadlines,
//! non-blocking admission, a worker watchdog, and budgeted graceful drain.
//!
//! [`Module::run`] serves one request at a time; nothing in the stack
//! drives the zero-allocation context machinery concurrently or at
//! batch > 1. This module closes that gap with a classic serving front end
//! layered on the arena executor:
//!
//! ```text
//!  clients ──submit──▶ bounded FIFO ───▶ dynamic batcher ──▶ workers
//!  (N threads)         (Mutex+Condvar,    (coalesce up to     (1 RunContext
//!   try_submit answers  backpressure)      B or timeout,       each, affine,
//!   Busy, never blocks)                    skips expired)      watchdog-kept)
//! ```
//!
//! * Every worker owns a pre-built [`RunContext`] plus a B-row staging
//!   input buffer, both allocated once at engine start — a warm request
//!   costs **zero heap allocations** end to end: submit pushes an `Arc`
//!   clone into a pre-reserved `VecDeque`, the worker memcpys request rows
//!   into its staging buffer, runs [`Module::run_with`] (allocation-free by
//!   the executor's contract), and memcpys each output row back into the
//!   request's pre-allocated buffers.
//! * A formed batch of n requests runs **n rows** of the batch-B plan (the
//!   staging buffer has one prefix view per row count; see the executor's
//!   n-row runs), so a lone request costs a one-row run, not a B-row run
//!   that is mostly padding.
//! * The **dynamic batcher** coalesces queued requests into one batched
//!   run: a worker takes the first request, then waits up to
//!   [`ServeOptions::batch_timeout`] for more, up to the module's batch
//!   size — but only while no other worker of the engine is idle waiting
//!   for work (an idle sibling takes the next arrival at once, so holding
//!   the partial batch would only add latency). Under load batches fill
//!   instantly; at low load the partial batch runs now.
//! * **Deadlines**: a request filled via [`Request::fill_with_deadline`]
//!   expires at submit time + budget. The batcher never executes an
//!   expired request — it resolves it with [`NeoError::DeadlineExceeded`]
//!   — and [`Request::wait`] cancels a request that expires while still
//!   queued.
//! * **Admission**: [`ServeEngine::try_submit`] never blocks. On a full
//!   queue it refuses the new request with a typed [`NeoError::Busy`]
//!   (counted as [`ServeReport::shed`]); queued requests keep their place —
//!   backpressure becomes an answer instead of a stall.
//! * **Fault containment** comes in two rings. The executor's per-node
//!   panic boundary turns kernel failures into a typed [`NeoError`] that
//!   fails only that batch. Above it, a **watchdog** thread supervises the
//!   workers themselves: a worker that dies (a panic escaping the
//!   per-batch boundary) or stalls past [`ServeOptions::stall_budget`] has
//!   its in-flight slots failed with [`NeoError::WorkerLost`] and is
//!   respawned with a fresh pooled context; respawn/stall counts surface
//!   in [`ServeReport`].
//! * **Lifecycle**: the engine walks `Starting → Ready → Draining →
//!   Stopped` (see [`EngineHealth`], queryable via
//!   [`ServeEngine::health`]). [`ServeEngine::shutdown_within`] stops
//!   admissions, drains what fits the budget, and fails the remainder with
//!   [`NeoError::Shutdown`]; [`ServeEngine::shutdown`] drains everything.
//! * Workers bind to distinct cores inside the engine's [`CoreSet`]
//!   (best effort, Linux only; see [`ServeEngine::core_set`]). Every
//!   engine reserves its `workers` slots from a process-global cursor over
//!   the cpuset, so two engines in one process land on disjoint cores.
//! * **Latency class** is an engine setting
//!   ([`ServeOptions::latency_class`]): an [`LatencyClass::Interactive`]
//!   engine caps batch formation at what is already queued, so it never
//!   waits out the batch timeout; requests pop in FIFO order either way.
//!
//! An engine has exactly one queue. More parallelism for a model is more
//! [`ServeOptions::workers`] on that queue — each worker already owns its
//! context and its core — not a second engine beside it.
//!
//! The module executed by the engine should usually be compiled
//! single-threaded (`PoolChoice::Sequential`): the engine's workers are
//! the parallelism, one inference per core, which is the throughput-optimal
//! arrangement when requests outnumber cores (cf. the paper's §3.1.2 pool,
//! which optimizes the *latency* of one inference instead).

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use neocpu_tensor::{Arena, Layout, Shape, Tensor};
use neocpu_threadpool::affinity::{self, CoreSet};

use crate::executor::{with_rows, Module, RunContext};
use crate::{NeoError, Result};

/// How an engine forms batches (see [`ServeOptions::latency_class`]). It
/// changes batch formation, not dispatch order: every engine's queue is
/// FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatencyClass {
    /// Latency-sensitive: a batch runs with whatever is already queued,
    /// never waiting out [`ServeOptions::batch_timeout`] for more rows.
    Interactive,
    /// Throughput-oriented (default): a partial batch waits up to the
    /// batch timeout for more rows while no sibling worker is idle.
    #[default]
    Bulk,
}

/// Engine lifecycle state (see [`ServeEngine::health`]).
///
/// ```text
/// Starting ──▶ Ready ──▶ Draining ──▶ Stopped
/// ```
///
/// `Starting` exists only inside [`ServeEngine::new`]; a handle you can
/// call is already `Ready`. `Draining` means admissions are closed but
/// queued work may still complete. The TCP frontend's health frames
/// (`neocpu-net`) carry this state verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EngineHealth {
    /// Constructing workers; not yet admitting requests.
    Starting = 0,
    /// Serving: admissions open, dead workers respawned.
    Ready = 1,
    /// Shutting down: admissions closed, draining within the budget.
    Draining = 2,
    /// Fully stopped: workers joined, remaining work failed with
    /// [`NeoError::Shutdown`].
    Stopped = 3,
}

impl EngineHealth {
    /// The state's stable one-byte code (`Starting = 0` … `Stopped = 3`),
    /// used verbatim by the wire protocol's health responses.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`EngineHealth::code`]; `None` for an unknown byte (a
    /// decoder must surface that as a typed frame error, not a panic).
    pub fn from_code(v: u8) -> Option<Self> {
        match v {
            0 => Some(Self::Starting),
            1 => Some(Self::Ready),
            2 => Some(Self::Draining),
            3 => Some(Self::Stopped),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::Starting => "starting",
            Self::Ready => "ready",
            Self::Draining => "draining",
            Self::Stopped => "stopped",
        };
        f.write_str(s)
    }
}

/// Configuration of a [`ServeEngine`].
///
/// Validated by [`ServeEngine::new`]: zero `workers`, `queue_cap` or
/// `watchdog_interval` (and a zero `stall_budget` when set) are rejected
/// with [`NeoError::Config`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads, each owning one [`RunContext`] (≥ 1).
    pub workers: usize,
    /// Upper bound on requests coalesced into one batched run. Clamped to
    /// the module's compiled batch size; `0` means "the module's batch".
    pub max_batch: usize,
    /// How long a worker holding a partial batch on a bulk engine waits
    /// for more requests, while no sibling worker is idle (see
    /// [`LatencyClass::Bulk`]); with `workers: 1` the full timeout applies.
    pub batch_timeout: Duration,
    /// Bounded submission-queue capacity; a full queue blocks `submit`
    /// (backpressure) until a worker drains it, and makes `try_submit`
    /// answer [`NeoError::Busy`].
    pub queue_cap: usize,
    /// How this engine forms batches (see [`LatencyClass`]). A registry
    /// fronting several models marks small-model routes `Interactive` so
    /// their requests never dally in batch formation.
    pub latency_class: LatencyClass,
    /// If a worker stays busy on one batch longer than this, the watchdog
    /// declares it hung: its in-flight slots fail with
    /// [`NeoError::WorkerLost`], the thread is abandoned, and a fresh
    /// worker takes its place. `None` (default) disables stall detection —
    /// only worker *death* is then supervised.
    pub stall_budget: Option<Duration>,
    /// How often the watchdog scans the worker table. Each scan is a few
    /// flag reads per worker; the default (10 ms) adds no measurable load.
    pub watchdog_interval: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 0,
            batch_timeout: Duration::from_millis(1),
            queue_cap: 256,
            latency_class: LatencyClass::Bulk,
            stall_budget: None,
            watchdog_interval: Duration::from_millis(10),
        }
    }
}

/// State of a request slot.
enum SlotState {
    /// Not submitted (or reset by [`Request::fill`] for reuse).
    Idle,
    /// In the queue or executing; the slot's buffers belong to the engine.
    Queued,
    /// Completed; outputs are valid.
    Done,
    /// Resolved with this error (batch failure, deadline, worker loss, or
    /// shutdown).
    Failed(NeoError),
}

/// Everything a request owns, under one lock.
struct SlotInner {
    state: SlotState,
    /// Submission generation: bumped on every (try_)submit. Resolvers
    /// (worker, watchdog, deadline cancel, drain) only touch the slot if
    /// their captured seq still matches, so a slot re-submitted after a
    /// failure can never be stomped by a stale resolver, and no request
    /// is ever double-resolved.
    seq: u64,
    /// Caller-filled single-image input (leading dim 1).
    input: Tensor,
    /// One single-image buffer per module output, filled on completion.
    outputs: Vec<Tensor>,
    /// Submission timestamp, for queue-to-completion latency.
    submitted: Instant,
    /// Per-request deadline budget set by [`Request::fill_with_deadline`].
    budget: Option<Duration>,
    /// Absolute deadline, fixed at submit time (the budget added to the
    /// submission instant).
    deadline: Option<Instant>,
    /// The engine that admitted the current submission, for deadline
    /// cancellation from `wait` (weak: a request must not keep a dropped
    /// engine's threads alive). Set per submit, because any engine serving
    /// the slot's module accepts it, so successive submissions of one slot
    /// may land in different engines.
    engine: Weak<Shared>,
}

/// A reusable request slot: one in-flight inference.
///
/// Created by [`ServeEngine::make_request`] with all buffers
/// pre-allocated; the fill → submit → wait → read cycle performs no heap
/// allocations, so a client looping on one slot preserves the arena
/// executor's zero-allocation warm path end to end.
///
/// A slot may be reused (fill again after `wait` returns) but not aliased:
/// submitting a slot that is already in flight is an error.
///
/// Every admitted request resolves to exactly one outcome: `Ok` from
/// [`Request::wait`], or one typed error — execution failure,
/// [`NeoError::DeadlineExceeded`], [`NeoError::WorkerLost`], or
/// [`NeoError::Shutdown`].
pub struct Request {
    module_uid: u64,
    inner: Mutex<SlotInner>,
    done: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Best-effort panic payload extraction for [`NeoError::WorkerLost`].
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// Moves a queued slot to `Failed(err)` iff it is still the `seq`-th
/// submission; returns whether this call resolved it. The seq guard makes
/// resolution exactly-once across racing resolvers.
fn resolve_failure(req: &Request, seq: u64, err: &NeoError) -> bool {
    let mut inner = lock(&req.inner);
    if !matches!(inner.state, SlotState::Queued) || inner.seq != seq {
        return false;
    }
    inner.state = SlotState::Failed(err.clone());
    drop(inner);
    req.done.notify_all();
    true
}

impl Request {
    /// Copies `data` into the slot's input buffer, resetting the slot for
    /// (re-)submission with no deadline.
    ///
    /// # Errors
    ///
    /// Rejects an in-flight slot and shape/layout mismatches.
    pub fn fill(&self, data: &Tensor) -> Result<()> {
        self.fill_impl(data, None)
    }

    /// Like [`Request::fill`], but arms a deadline: the request expires
    /// `budget` after the moment it is submitted. An expired request is
    /// never executed — the batcher resolves it with
    /// [`NeoError::DeadlineExceeded`] — and [`Request::wait`] returns the
    /// same error as soon as the deadline passes while the request is
    /// still queued.
    ///
    /// # Errors
    ///
    /// As [`Request::fill`].
    pub fn fill_with_deadline(&self, data: &Tensor, budget: Duration) -> Result<()> {
        self.fill_impl(data, Some(budget))
    }

    /// Fills the slot's input straight from a little-endian `f32` byte
    /// stream (the wire protocol's payload encoding), avoiding the staging
    /// tensor a [`Request::fill`] caller would need. `budget` arms a
    /// deadline exactly like [`Request::fill_with_deadline`]; `None` arms
    /// none. Performs no heap allocations — this is the networked
    /// frontend's warm decode path.
    ///
    /// # Errors
    ///
    /// Rejects an in-flight slot, and payloads whose byte length is not
    /// exactly `4 ×` the input element count.
    pub fn fill_le_bytes(&self, bytes: &[u8], budget: Option<Duration>) -> Result<()> {
        let mut inner = lock(&self.inner);
        if matches!(inner.state, SlotState::Queued) {
            return Err(NeoError::Serve("cannot fill a request that is in flight".into()));
        }
        let want = inner.input.data().len() * 4;
        if bytes.len() != want {
            return Err(NeoError::BadInput(format!(
                "payload must be exactly {want} bytes of little-endian f32, got {}",
                bytes.len()
            )));
        }
        for (dst, src) in inner.input.data_mut().iter_mut().zip(bytes.chunks_exact(4)) {
            *dst = f32::from_le_bytes([src[0], src[1], src[2], src[3]]);
        }
        inner.state = SlotState::Idle;
        inner.budget = budget;
        Ok(())
    }

    fn fill_impl(&self, data: &Tensor, budget: Option<Duration>) -> Result<()> {
        let mut inner = lock(&self.inner);
        if matches!(inner.state, SlotState::Queued) {
            return Err(NeoError::Serve("cannot fill a request that is in flight".into()));
        }
        if data.shape().dims() != inner.input.shape().dims()
            || data.layout() != inner.input.layout()
        {
            return Err(NeoError::BadInput(format!(
                "request input must be {} {}, got {} {}",
                inner.input.shape(),
                inner.input.layout(),
                data.shape(),
                data.layout()
            )));
        }
        inner.input.data_mut().copy_from_slice(data.data());
        inner.state = SlotState::Idle;
        inner.budget = budget;
        Ok(())
    }

    /// Blocks until the request resolves. Honors the request's deadline:
    /// if it passes while the request is still waiting in the queue, the
    /// request is pulled out, resolved with
    /// [`NeoError::DeadlineExceeded`], and never executed. A request
    /// already inside a worker's batch is past cancellation — `wait` then
    /// blocks for the batch outcome (bounded by the batch itself).
    ///
    /// # Errors
    ///
    /// Returns the typed resolution error when the request failed, or a
    /// protocol error for a slot that was never submitted.
    pub fn wait(&self) -> Result<()> {
        let mut inner = lock(&self.inner);
        loop {
            if !matches!(inner.state, SlotState::Queued) {
                break;
            }
            match inner.deadline {
                None => {
                    inner = self.done.wait(inner).unwrap_or_else(PoisonError::into_inner);
                }
                Some(d) => {
                    let now = Instant::now();
                    if now < d {
                        let (guard, _) = self
                            .done
                            .wait_timeout(inner, d - now)
                            .unwrap_or_else(PoisonError::into_inner);
                        inner = guard;
                    } else {
                        // Expired while queued: try to cancel. This needs
                        // the queue lock, so release the slot first (lock
                        // order is queue → slot).
                        let seq = inner.seq;
                        drop(inner);
                        if self.cancel_expired(seq) {
                            return Err(NeoError::DeadlineExceeded);
                        }
                        inner = lock(&self.inner);
                        if matches!(inner.state, SlotState::Queued) {
                            // In a worker's batch: resolution is imminent;
                            // wait for the batch outcome.
                            inner =
                                self.done.wait(inner).unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                }
            }
        }
        match &inner.state {
            SlotState::Done => Ok(()),
            SlotState::Failed(e) => Err(e.clone()),
            SlotState::Idle | SlotState::Queued => {
                Err(NeoError::Serve("request was not submitted".into()))
            }
        }
    }

    /// Removes this request from the admitting engine's queue (if still
    /// there) and resolves it as expired. Returns whether this call
    /// resolved it.
    fn cancel_expired(&self, seq: u64) -> bool {
        // Lock order is queue → slot, so read the engine weak and release
        // the slot before touching the queue.
        let engine = {
            let inner = lock(&self.inner);
            if inner.seq != seq {
                return false;
            }
            inner.engine.clone()
        };
        let Some(shared) = engine.upgrade() else {
            // Engine gone; resolve locally so the waiter cannot hang.
            return resolve_failure(self, seq, &NeoError::DeadlineExceeded);
        };
        let mut q = lock(&shared.queue);
        let me = |(r, s): &(Arc<Request>, u64)| {
            std::ptr::eq(Arc::as_ptr(r), self as *const Request) && *s == seq
        };
        let Some(pos) = q.fifo.iter().position(me) else {
            return false;
        };
        q.fifo.remove(pos);
        drop(q);
        shared.not_full.notify_one();
        if resolve_failure(self, seq, &NeoError::DeadlineExceeded) {
            lock(&shared.stats).deadline_exceeded += 1;
            true
        } else {
            false
        }
    }

    /// Reads the completed outputs without copying: `f` runs under the
    /// slot lock with the single-image output tensors.
    ///
    /// # Errors
    ///
    /// Returns the request's failure, or a protocol error when no
    /// completed result is available.
    pub fn with_outputs<R>(&self, f: impl FnOnce(&[Tensor]) -> R) -> Result<R> {
        let inner = lock(&self.inner);
        match &inner.state {
            SlotState::Done => Ok(f(&inner.outputs)),
            SlotState::Failed(e) => Err(e.clone()),
            SlotState::Idle | SlotState::Queued => {
                Err(NeoError::Serve("request has no completed result".into()))
            }
        }
    }

    /// Detached copy of completed output `i`.
    ///
    /// # Errors
    ///
    /// As [`Request::with_outputs`]; also rejects an out-of-range index.
    pub fn output(&self, i: usize) -> Result<Tensor> {
        self.with_outputs(|outs| outs.get(i).cloned())?
            .ok_or_else(|| NeoError::Serve(format!("request has no output #{i}")))
    }
}

/// The bounded FIFO submission queue plus its synchronization state.
struct QueueInner {
    fifo: VecDeque<(Arc<Request>, u64)>,
    stopping: bool,
    depth_hwm: usize,
    /// Workers of this engine blocked waiting for a first request. A
    /// worker holding a partial batch stops waiting for more while this is
    /// non-zero.
    idle: usize,
    /// Workers waiting out the batch timeout with a partial batch; a worker
    /// that goes idle wakes them so they can run what they hold.
    forming: usize,
}

/// Buckets per power of two, and exact 1 µs buckets below 16 µs.
const LAT_SUB: usize = 16;
/// 16 exact buckets, then 16 per power of two from 2^4 to 2^31 µs.
const LAT_BUCKETS: usize = LAT_SUB * 29;

/// Queue-to-completion latencies in fixed log-scale microsecond buckets:
/// bucket `i < 16` holds `[i, i + 1)` µs, and above that every power of two
/// is cut into 16 equal buckets, so a bucket is at most 1/16 of its lower
/// edge wide. Recording never allocates and the record never grows
/// (≈ 3.7 KB per engine).
struct LatencyHistogram {
    counts: [u64; LAT_BUCKETS],
    /// Longest latency recorded: percentiles never report past it.
    max: Duration,
}

impl LatencyHistogram {
    fn bucket(us: u64) -> usize {
        if us < LAT_SUB as u64 {
            return us as usize;
        }
        let octave = 63 - us.leading_zeros() as usize; // ≥ 4
        let sub = (us >> (octave - 4)) as usize & (LAT_SUB - 1);
        (LAT_SUB * (octave - 3) + sub).min(LAT_BUCKETS - 1)
    }

    /// Exclusive upper edge of bucket `i`, µs (the saturating top bucket
    /// has none).
    fn upper_edge_us(i: usize) -> f64 {
        if i + 1 == LAT_BUCKETS {
            f64::INFINITY
        } else if i < LAT_SUB {
            (i + 1) as f64
        } else {
            ((LAT_SUB + i % LAT_SUB + 1) << (i / LAT_SUB - 1)) as f64
        }
    }

    fn record(&mut self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.counts[Self::bucket(us)] += 1;
        self.max = self.max.max(latency);
    }

    /// The `p`-th percentile, ms, as [`ServeReport::p50_ms`] defines it.
    fn percentile_ms(&self, p: f64) -> f64 {
        let n: u64 = self.counts.iter().sum();
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper_edge_us(i).min(self.max.as_secs_f64() * 1e6) / 1e3;
            }
        }
        f64::NAN
    }
}

/// Aggregate counters and the latency histogram, under one lock (touched
/// once per request/batch — cheap next to an inference).
struct ServeStats {
    latency: LatencyHistogram,
    completed: u64,
    failed: u64,
    deadline_exceeded: u64,
    shed: u64,
    cancelled: u64,
    respawns: u64,
    stalls: u64,
    batches: u64,
    batched_requests: u64,
    multi_batches: u64,
    max_batch_formed: usize,
}

/// One worker's supervision record in the watchdog's table.
struct WorkerEntry {
    /// The thread handle; `None` after the worker was joined or abandoned
    /// (a hung thread is detached, never joined).
    handle: Option<JoinHandle<()>>,
    /// Bumped on every respawn/abandonment. A worker whose generation no
    /// longer matches its entry has been replaced: it must not touch the
    /// entry or any slot (the seq guard enforces the latter).
    generation: u64,
    /// Cleared by the worker's exit guard (even on unwind) and by the
    /// watchdog when it abandons a stalled thread.
    alive: bool,
    /// When the current batch started executing; `None` while idle.
    busy_since: Option<Instant>,
    /// The slots of the batch currently executing, for failure resolution
    /// if the worker is lost mid-batch. Pre-reserved at `max_batch`.
    in_flight: Vec<(Arc<Request>, u64)>,
    /// The core this worker verified itself bound to (it re-reads its
    /// mask from the kernel after binding), `None` when unbound. Lets
    /// tests prove two engines' workers landed on disjoint cores.
    bound_core: Option<usize>,
}

/// State shared between the engine handle, its workers, and the watchdog.
struct Shared {
    queue: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    queue_cap: usize,
    stats: Mutex<ServeStats>,
    /// Worker supervision table, indexed by worker slot.
    ///
    /// Lock order (no cycles): queue → workers → request slot → stats.
    workers: Mutex<Vec<WorkerEntry>>,
    /// Signaled (with `workers` held or just released) whenever a worker's
    /// `alive` flag clears; shutdown waits on it.
    worker_exited: Condvar,
    /// [`EngineHealth`] as its `u8` repr.
    health: AtomicU8,
    /// Watchdog parking: `true` tells the watchdog to exit.
    watchdog_stop: Mutex<bool>,
    watchdog_cv: Condvar,
}

impl Shared {
    fn health(&self) -> EngineHealth {
        let code = self.health.load(Ordering::Acquire);
        EngineHealth::from_code(code).unwrap_or(EngineHealth::Stopped)
    }

    fn set_health(&self, h: EngineHealth) {
        self.health.store(h as u8, Ordering::Release);
    }
}

/// Point-in-time serving statistics (see [`ServeEngine::report`]).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests failed by their batch (execution error or worker loss).
    pub failed: u64,
    /// Requests resolved as expired ([`NeoError::DeadlineExceeded`])
    /// without ever executing.
    pub deadline_exceeded: u64,
    /// [`ServeEngine::try_submit`] calls refused with [`NeoError::Busy`]
    /// because the queue was full (never admitted, so not in any other
    /// count).
    pub shed: u64,
    /// Requests failed with [`NeoError::Shutdown`] because the drain
    /// budget ran out before they could execute.
    pub cancelled: u64,
    /// Workers respawned by the watchdog after death or a stall.
    pub respawns: u64,
    /// Stalled workers abandoned by the watchdog (a subset of the events
    /// behind `respawns`).
    pub stalls: u64,
    /// Always 0: an engine has one queue, so no worker ever takes work
    /// from another queue. Kept because the benchmark reads it.
    pub stolen: u64,
    /// Batched runs executed.
    pub batches: u64,
    /// Batches that coalesced more than one request.
    pub multi_batches: u64,
    /// Mean formed batch size (requests per run).
    pub mean_batch: f64,
    /// Largest batch formed.
    pub max_batch_formed: usize,
    /// Submission-queue depth high-water mark.
    pub queue_depth_hwm: usize,
    /// Median queue-to-completion latency over every completed request, ms:
    /// the log-scale bucket (≤ 1/16 wide) of the nearest-rank
    /// (`ceil(p/100 · n)`-th smallest) latency, reported at its upper edge
    /// clamped to the longest latency seen — one sample reports exactly —
    /// and `NaN` before any completion (no data is not "0 ms").
    pub p50_ms: f64,
    /// 95th-percentile latency, ms (see `p50_ms` for the method).
    pub p95_ms: f64,
    /// 99th-percentile latency, ms (see `p50_ms` for the method).
    pub p99_ms: f64,
    /// Worker threads serving the engine.
    pub workers: usize,
    /// The module's compiled batch size B.
    pub module_batch: usize,
    /// Arena bytes of one pooled context (× `workers` = pool total).
    pub arena_bytes_per_context: usize,
    /// Wall time since the engine started, seconds.
    pub elapsed_s: f64,
    /// Engine lifecycle state at snapshot time.
    pub health: EngineHealth,
}

impl ServeReport {
    /// Completed images per second over the engine's lifetime.
    pub fn images_per_sec(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.completed as f64 / self.elapsed_s
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ok / {} failed in {:.2}s ({:.1} img/s) | {} batches (mean {:.2}, max {}, >1: {}) \
             | queue hwm {} | p50 {:.2} ms p95 {:.2} ms p99 {:.2} ms \
             | {} workers × {} KiB arena | {} expired, {} shed, {} cancelled \
             | {} respawns ({} stalls) | {}",
            self.completed,
            self.failed,
            self.elapsed_s,
            self.images_per_sec(),
            self.batches,
            self.mean_batch,
            self.max_batch_formed,
            self.multi_batches,
            self.queue_depth_hwm,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.workers,
            self.arena_bytes_per_context / 1024,
            self.deadline_exceeded,
            self.shed,
            self.cancelled,
            self.respawns,
            self.stalls,
            self.health,
        )
    }
}

/// The serving engine: owns the queue, the batcher, the worker pool, and
/// the watchdog supervising it.
///
/// Dropping the engine shuts it down: the queue is drained, workers join.
pub struct ServeEngine {
    module: Arc<Module>,
    shared: Arc<Shared>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
    worker_count: usize,
    batch: usize,
    image_shape: Shape,
    input_layout: Layout,
    out_row_shapes: Vec<Shape>,
    out_layouts: Vec<Layout>,
    cores: Option<CoreSet>,
    started: Instant,
}

fn validate(opts: &ServeOptions) -> Result<()> {
    if opts.workers == 0 {
        return Err(NeoError::Config("ServeOptions::workers must be at least 1".into()));
    }
    if opts.queue_cap == 0 {
        return Err(NeoError::Config("ServeOptions::queue_cap must be at least 1".into()));
    }
    if opts.watchdog_interval.is_zero() {
        return Err(NeoError::Config("ServeOptions::watchdog_interval must be non-zero".into()));
    }
    if opts.stall_budget.is_some_and(|d| d.is_zero()) {
        return Err(NeoError::Config(
            "ServeOptions::stall_budget must be non-zero when set".into(),
        ));
    }
    Ok(())
}

impl ServeEngine {
    /// Starts an engine over `module` with `opts`.
    ///
    /// The module must have exactly one graph input; every output's
    /// leading dimension must equal the input's batch size B, so the
    /// engine can slice per-request rows out of a batched run.
    ///
    /// # Errors
    ///
    /// Returns [`NeoError::Config`] for invalid options (see
    /// [`ServeOptions`]) and [`NeoError::Serve`] when the module's
    /// signature cannot be served (multi-input, non-batched outputs).
    pub fn new(module: Arc<Module>, opts: &ServeOptions) -> Result<Self> {
        validate(opts)?;
        let input_shapes = module.input_shapes();
        let [input_shape] = input_shapes.as_slice() else {
            return Err(NeoError::Serve(format!(
                "batched serving requires exactly one graph input, module has {}",
                input_shapes.len()
            )));
        };
        let batch = input_shape.dims().first().copied().unwrap_or(1).max(1);
        let out_shapes = module.output_shapes();
        for (i, s) in out_shapes.iter().enumerate() {
            if s.dims().first().copied().unwrap_or(0) != batch {
                return Err(NeoError::Serve(format!(
                    "output #{i} has shape {s}; leading dim must equal the input batch {batch} \
                     so per-request rows can be sliced out"
                )));
            }
        }
        let mut image_dims = input_shape.dims().to_vec();
        image_dims[0] = 1;
        let image_shape = Shape::new(image_dims);
        let input_layout = module.input_layouts()[0];
        let out_layouts = module.output_layouts();
        let out_row_shapes: Vec<Shape> = out_shapes
            .iter()
            .map(|s| {
                let mut d = s.dims().to_vec();
                d[0] = 1;
                Shape::new(d)
            })
            .collect();

        let max_batch = if opts.max_batch == 0 { batch } else { opts.max_batch.min(batch) };
        // Reserve this engine's cores from the process-global cursor so
        // concurrently constructed engines do not stack onto the same
        // cores. A reservation that comes back empty (no affinity API)
        // degrades to unbound.
        let reserved = affinity::reserve_cores(opts.workers);
        let cores = (!reserved.is_empty()).then_some(reserved);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueInner {
                fifo: VecDeque::with_capacity(opts.queue_cap),
                stopping: false,
                depth_hwm: 0,
                idle: 0,
                forming: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            queue_cap: opts.queue_cap,
            stats: Mutex::new(ServeStats {
                latency: LatencyHistogram { counts: [0; LAT_BUCKETS], max: Duration::ZERO },
                completed: 0,
                failed: 0,
                deadline_exceeded: 0,
                shed: 0,
                cancelled: 0,
                respawns: 0,
                stalls: 0,
                batches: 0,
                batched_requests: 0,
                multi_batches: 0,
                max_batch_formed: 0,
            }),
            workers: Mutex::new(Vec::with_capacity(opts.workers)),
            worker_exited: Condvar::new(),
            health: AtomicU8::new(EngineHealth::Starting as u8),
            watchdog_stop: Mutex::new(false),
            watchdog_cv: Condvar::new(),
        });

        let template = WorkerTemplate {
            module: Arc::clone(&module),
            shared: Arc::clone(&shared),
            max_batch,
            batch_timeout: opts.batch_timeout,
            latency_class: opts.latency_class,
            cores: cores.clone(),
            input_shape: input_shape.clone(),
            input_layout,
        };

        {
            let mut workers = lock(&shared.workers);
            for _ in 0..opts.workers {
                workers.push(WorkerEntry {
                    handle: None,
                    generation: 0,
                    alive: false,
                    busy_since: None,
                    in_flight: Vec::with_capacity(max_batch),
                    bound_core: None,
                });
            }
            for w in 0..opts.workers {
                match spawn_worker(&template, w, 0) {
                    Ok(h) => {
                        let entry = &mut workers[w];
                        entry.handle = Some(h);
                        entry.alive = true;
                    }
                    Err(e) => {
                        drop(workers);
                        abort_startup(&shared);
                        return Err(NeoError::Serve(format!("failed to spawn worker: {e}")));
                    }
                }
            }
        }

        let watchdog_cfg = WatchdogCfg {
            shared: Arc::clone(&shared),
            template,
            interval: opts.watchdog_interval,
            stall_budget: opts.stall_budget,
        };
        let watchdog = match std::thread::Builder::new()
            .name("neocpu-serve-watchdog".into())
            .spawn(move || watchdog_loop(&watchdog_cfg))
        {
            Ok(h) => h,
            Err(e) => {
                abort_startup(&shared);
                return Err(NeoError::Serve(format!("failed to spawn watchdog: {e}")));
            }
        };

        shared.set_health(EngineHealth::Ready);
        Ok(Self {
            module,
            shared,
            watchdog: Mutex::new(Some(watchdog)),
            worker_count: opts.workers,
            batch,
            image_shape,
            input_layout,
            out_row_shapes,
            out_layouts,
            cores,
            started: Instant::now(),
        })
    }

    /// The cores this engine's workers bind inside (`None` when the host
    /// has no affinity API).
    pub fn core_set(&self) -> Option<&CoreSet> {
        self.cores.as_ref()
    }

    /// The core each worker verified itself bound to (indexed by worker
    /// slot; `None` for unbound workers or workers still starting). A
    /// worker re-reads its affinity mask from the kernel after binding,
    /// so this reflects what actually took effect — tests use it to prove
    /// two engines' workers occupy disjoint cores.
    pub fn bound_cores(&self) -> Vec<Option<usize>> {
        lock(&self.shared.workers).iter().map(|e| e.bound_core).collect()
    }

    /// The module's compiled batch size B (the batcher's ceiling).
    pub fn module_batch(&self) -> usize {
        self.batch
    }

    /// Current engine lifecycle state (cheap: one atomic load). The
    /// networked frontend answers health frames from this.
    pub fn health(&self) -> EngineHealth {
        self.shared.health()
    }

    /// Creates a request slot with pre-allocated input/output buffers.
    ///
    /// This is the only allocating step of a client's steady state:
    /// allocate one slot per concurrent request, then loop
    /// fill → submit → wait on it allocation-free.
    pub fn make_request(&self) -> Arc<Request> {
        let input = Tensor::zeros(self.image_shape.clone(), self.input_layout)
            .expect("image shape was validated at engine construction");
        let outputs = self
            .out_row_shapes
            .iter()
            .zip(&self.out_layouts)
            .map(|(s, &l)| {
                Tensor::zeros(s.clone(), l).expect("output row shape mirrors a planned value")
            })
            .collect();
        Arc::new(Request {
            module_uid: self.module.uid(),
            inner: Mutex::new(SlotInner {
                state: SlotState::Idle,
                seq: 0,
                input,
                outputs,
                submitted: Instant::now(),
                budget: None,
                deadline: None,
                engine: Weak::new(),
            }),
            done: Condvar::new(),
        })
    }

    /// Enqueues a filled request slot; blocks while the queue is full
    /// (backpressure) — but never past the request's deadline. Returns as
    /// soon as the request is queued — pair with [`Request::wait`].
    ///
    /// # Errors
    ///
    /// Rejects requests made by another engine's module and slots already
    /// in flight; returns [`NeoError::Shutdown`] once the engine is
    /// draining or stopped, and [`NeoError::DeadlineExceeded`] when the
    /// deadline passes while blocked on a full queue.
    pub fn submit(&self, req: &Arc<Request>) -> Result<()> {
        self.admit(req, true)
    }

    /// Non-blocking admission. On a full queue this request is refused
    /// with [`NeoError::Busy`] (counted as [`ServeReport::shed`]); queued
    /// requests keep their place.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::submit`], plus [`NeoError::Busy`] on a full
    /// queue.
    pub fn try_submit(&self, req: &Arc<Request>) -> Result<()> {
        self.admit(req, false)
    }

    fn admit(&self, req: &Arc<Request>, blocking: bool) -> Result<()> {
        if req.module_uid != self.module.uid() {
            return Err(NeoError::Serve("request belongs to a different engine".into()));
        }
        let (seq, deadline) = {
            let mut inner = lock(&req.inner);
            if matches!(inner.state, SlotState::Queued) {
                return Err(NeoError::Serve("request is already in flight".into()));
            }
            let now = Instant::now();
            inner.seq = inner.seq.wrapping_add(1);
            inner.state = SlotState::Queued;
            inner.submitted = now;
            inner.deadline = inner.budget.and_then(|b| now.checked_add(b));
            inner.engine = Arc::downgrade(&self.shared);
            (inner.seq, inner.deadline)
        };
        let mut q = lock(&self.shared.queue);
        loop {
            if q.stopping {
                drop(q);
                lock(&req.inner).state = SlotState::Idle;
                return Err(NeoError::Shutdown);
            }
            if q.fifo.len() < self.shared.queue_cap {
                break;
            }
            if !blocking {
                let queue_depth = q.fifo.len();
                drop(q);
                lock(&req.inner).state = SlotState::Idle;
                lock(&self.shared.stats).shed += 1;
                return Err(NeoError::Busy { queue_depth });
            }
            match deadline {
                None => {
                    q = self.shared.not_full.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        drop(q);
                        lock(&req.inner).state = SlotState::Idle;
                        lock(&self.shared.stats).deadline_exceeded += 1;
                        return Err(NeoError::DeadlineExceeded);
                    }
                    let (guard, _) = self
                        .shared
                        .not_full
                        .wait_timeout(q, d - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    q = guard;
                }
            }
        }
        q.fifo.push_back((Arc::clone(req), seq));
        q.depth_hwm = q.depth_hwm.max(q.fifo.len());
        drop(q);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// One-shot convenience: fill a fresh slot, submit, wait, and return
    /// detached output copies. Allocates per call — latency/throughput
    /// loops should hold their own slot instead.
    ///
    /// # Errors
    ///
    /// Propagates submit/execution failures.
    pub fn infer(&self, input: &Tensor) -> Result<Vec<Tensor>> {
        let req = self.make_request();
        req.fill(input)?;
        self.submit(&req)?;
        req.wait()?;
        req.with_outputs(|outs| outs.to_vec())
    }

    /// Snapshot of the engine's serving statistics (see
    /// [`ServeReport::p50_ms`] for how percentiles are computed).
    pub fn report(&self) -> ServeReport {
        let queue_depth_hwm = lock(&self.shared.queue).depth_hwm;
        let st = lock(&self.shared.stats);
        ServeReport {
            completed: st.completed,
            failed: st.failed,
            deadline_exceeded: st.deadline_exceeded,
            shed: st.shed,
            cancelled: st.cancelled,
            respawns: st.respawns,
            stalls: st.stalls,
            stolen: 0,
            batches: st.batches,
            multi_batches: st.multi_batches,
            mean_batch: if st.batches > 0 {
                st.batched_requests as f64 / st.batches as f64
            } else {
                0.0
            },
            max_batch_formed: st.max_batch_formed,
            queue_depth_hwm,
            p50_ms: st.latency.percentile_ms(50.0),
            p95_ms: st.latency.percentile_ms(95.0),
            p99_ms: st.latency.percentile_ms(99.0),
            workers: self.worker_count,
            module_batch: self.batch,
            arena_bytes_per_context: self.module.memory_report().planned_peak_bytes,
            elapsed_s: self.started.elapsed().as_secs_f64(),
            health: self.shared.health(),
        }
    }

    /// Stops the engine gracefully, drain bounded by `budget`: admissions
    /// close immediately (health moves to [`EngineHealth::Draining`]),
    /// queued requests keep executing while the budget lasts, and
    /// everything still queued when it runs out is failed with
    /// [`NeoError::Shutdown`] (counted as `cancelled` in the report).
    /// Workers then exit and are joined; health ends at
    /// [`EngineHealth::Stopped`]. Idempotent and safe to race.
    pub fn shutdown_within(&self, budget: Duration) {
        self.drain_shutdown(Instant::now().checked_add(budget));
    }

    /// Stops the engine: in-queue requests are drained and answered
    /// (unbounded drain), then workers exit and are joined. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&self) {
        self.drain_shutdown(None);
    }

    fn drain_shutdown(&self, deadline: Option<Instant>) {
        let _ = self.shared.health.compare_exchange(
            EngineHealth::Ready as u8,
            EngineHealth::Draining as u8,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        {
            let mut q = lock(&self.shared.queue);
            q.stopping = true;
            // Wake everything: blocked submitters (→ Shutdown), idle
            // workers (→ drain mode).
            self.shared.not_empty.notify_all();
            self.shared.not_full.notify_all();
            // Drain-or-budget: wait for workers to empty the queue, in
            // slices so a vanished workforce or an expired budget is
            // noticed promptly.
            loop {
                if q.fifo.is_empty() {
                    break;
                }
                let any_alive = lock(&self.shared.workers).iter().any(|e| e.alive);
                if !any_alive {
                    // Draining blocks respawns; nobody will ever pop.
                    break;
                }
                let now = Instant::now();
                let slice = match deadline {
                    Some(d) if now >= d => break,
                    Some(d) => (d - now).min(Duration::from_millis(25)),
                    None => Duration::from_millis(25),
                };
                let (guard, _) = self
                    .shared
                    .not_full
                    .wait_timeout(q, slice)
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
            // Whatever is left missed the budget.
            let mut cancelled = 0u64;
            while let Some((req, seq)) = q.fifo.pop_front() {
                if resolve_failure(&req, seq, &NeoError::Shutdown) {
                    cancelled += 1;
                }
            }
            if cancelled > 0 {
                lock(&self.shared.stats).cancelled += cancelled;
            }
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();

        // Wait for every worker to exit (in-flight batches complete; hung
        // workers are abandoned by the watchdog if a stall budget is set),
        // then join outside the lock — a worker's exit guard takes the
        // workers lock.
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = lock(&self.shared.workers);
            loop {
                if workers.iter().all(|e| !e.alive) {
                    break;
                }
                let (guard, _) = self
                    .shared
                    .worker_exited
                    .wait_timeout(workers, Duration::from_millis(25))
                    .unwrap_or_else(PoisonError::into_inner);
                workers = guard;
                self.shared.not_empty.notify_all();
            }
            workers.iter_mut().filter_map(|e| e.handle.take()).collect()
        };
        for h in handles {
            let _ = h.join();
        }

        {
            let mut stop = lock(&self.shared.watchdog_stop);
            *stop = true;
            self.shared.watchdog_cv.notify_all();
        }
        if let Some(h) = lock(&self.watchdog).take() {
            let _ = h.join();
        }
        self.shared.set_health(EngineHealth::Stopped);
    }
}

/// Construction-failure teardown: stop and join whatever was spawned.
fn abort_startup(shared: &Arc<Shared>) {
    lock(&shared.queue).stopping = true;
    shared.set_health(EngineHealth::Stopped);
    shared.not_empty.notify_all();
    let handles: Vec<JoinHandle<()>> =
        lock(&shared.workers).iter_mut().filter_map(|e| e.handle.take()).collect();
    for h in handles {
        let _ = h.join();
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("workers", &self.worker_count)
            .field("module_batch", &self.batch)
            .field("queue_cap", &self.shared.queue_cap)
            .field("health", &self.shared.health())
            .finish()
    }
}

/// Everything needed to (re)spawn a worker; the watchdog keeps a copy.
#[derive(Clone)]
struct WorkerTemplate {
    module: Arc<Module>,
    shared: Arc<Shared>,
    max_batch: usize,
    batch_timeout: Duration,
    latency_class: LatencyClass,
    /// Cores workers pin inside (`None` = unbound); worker `w` takes the
    /// `w`-th core, wrapping.
    cores: Option<CoreSet>,
    input_shape: Shape,
    input_layout: Layout,
}

/// One worker thread's identity: the shared template plus its slot in the
/// supervision table and the generation it was spawned as.
struct WorkerCfg {
    template: WorkerTemplate,
    index: usize,
    generation: u64,
}

fn spawn_worker(
    template: &WorkerTemplate,
    index: usize,
    generation: u64,
) -> std::io::Result<JoinHandle<()>> {
    let cfg = WorkerCfg { template: template.clone(), index, generation };
    std::thread::Builder::new()
        .name(format!("neocpu-serve-{index}"))
        .spawn(move || worker_main(&cfg))
}

/// Exit sentinel: clears the worker's `alive` flag (even on unwind) so the
/// watchdog and shutdown observe the death, unless the watchdog already
/// abandoned this generation.
struct WorkerGuard {
    shared: Arc<Shared>,
    index: usize,
    generation: u64,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let mut workers = lock(&self.shared.workers);
        let entry = &mut workers[self.index];
        if entry.generation != self.generation {
            // Abandoned: the entry belongs to a replacement worker now.
            return;
        }
        // Failsafe: slots registered but never resolved (a panic escaped
        // between registration and the outcome handler) must still fail
        // rather than hang their waiters.
        let leftovers: Vec<(Arc<Request>, u64)> = entry.in_flight.drain(..).collect();
        entry.busy_since = None;
        entry.alive = false;
        drop(workers);
        if !leftovers.is_empty() {
            let err = NeoError::WorkerLost {
                worker: self.index,
                reason: "worker exited with unresolved in-flight slots".into(),
            };
            fail_batch(&self.shared, &leftovers, &err);
        }
        self.shared.worker_exited.notify_all();
    }
}

/// The worker: pop live requests → coalesce → stage → run → distribute,
/// until the engine stops or this thread is retired by a fault.
fn worker_main(cfg: &WorkerCfg) {
    let shared = Arc::clone(&cfg.template.shared);
    let _guard =
        WorkerGuard { shared: Arc::clone(&shared), index: cfg.index, generation: cfg.generation };
    // Drill point: a panic here kills the nascent worker before it serves
    // anything; the watchdog's respawn loop must converge past it.
    crate::faults::fire_in_worker(crate::faults::WORKER_SPAWN);
    // Pin inside the engine's core set (best effort — serving must work
    // on hosts without affinity APIs), then read the mask back from the
    // kernel and record what actually took effect.
    let target = cfg.template.cores.as_ref().and_then(|set| set.core_at(cfg.index));
    let bound = target.filter(|&core| affinity::bind_current_thread(core)).and_then(|core| {
        affinity::current_thread_affinity()
            .and_then(|mask| (mask.cores() == [core]).then_some(core))
    });
    {
        let mut workers = lock(&shared.workers);
        let entry = &mut workers[cfg.index];
        if entry.generation == cfg.generation {
            entry.bound_core = bound;
        }
    }
    let mut ctx: RunContext = cfg.template.module.make_context();
    let mut staging = staging_views(&cfg.template.input_shape, cfg.template.input_layout);
    // Reused per round: holds at most `max_batch` items, so warm rounds
    // never grow it.
    let mut batch: Vec<(Arc<Request>, u64)> = Vec::with_capacity(cfg.template.max_batch.max(1));

    loop {
        batch.clear();
        match panic::catch_unwind(AssertUnwindSafe(|| form_batch(cfg, &mut batch))) {
            Ok(true) => {}
            Ok(false) => return, // stopping and the queue is drained
            Err(payload) => {
                // Requests already popped must not vanish with the thread.
                let err =
                    NeoError::WorkerLost { worker: cfg.index, reason: panic_reason(&*payload) };
                fail_batch(&shared, &batch, &err);
                return; // retire; the watchdog respawns a replacement
            }
        }
        if batch.is_empty() {
            continue;
        }
        if !register_batch(cfg, &batch) {
            // Abandoned while idle (stall misfire); resolve and retire.
            let err = NeoError::WorkerLost { worker: cfg.index, reason: "worker abandoned".into() };
            fail_batch(&shared, &batch, &err);
            return;
        }
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| -> Result<()> {
            crate::faults::fire(crate::faults::BATCHER_WAKEUP)?;
            run_batch(cfg, &mut ctx, &mut staging[batch.len() - 1], &batch);
            Ok(())
        }));
        let abandoned = clear_batch(cfg);
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(e)) => fail_batch(&shared, &batch, &e), // contained: keep serving
            Err(payload) => {
                let err =
                    NeoError::WorkerLost { worker: cfg.index, reason: panic_reason(&*payload) };
                fail_batch(&shared, &batch, &err);
                return; // context may be mid-write; respawn gets a fresh one
            }
        }
        if abandoned {
            return;
        }
    }
}

/// Pops queue items, resolving expired requests (deadline passed, or the
/// deadline-skew drill fired) without executing them, until a live one is
/// found. Caller holds the queue lock.
fn pop_live(shared: &Shared, q: &mut QueueInner) -> Option<(Arc<Request>, u64)> {
    loop {
        let (req, seq) = q.fifo.pop_front()?;
        shared.not_full.notify_one();
        let deadline = lock(&req.inner).deadline;
        if let Some(d) = deadline {
            let skewed = crate::faults::fire_bool(crate::faults::DEADLINE_SKEW);
            if skewed || Instant::now() >= d {
                if resolve_failure(&req, seq, &NeoError::DeadlineExceeded) {
                    lock(&shared.stats).deadline_exceeded += 1;
                }
                continue;
            }
        }
        return Some((req, seq));
    }
}

/// Blocks for the first live request, then coalesces up to `max_batch`
/// within `batch_timeout`. Returns `false` when the engine is stopping and
/// the queue is drained (the worker should exit).
///
/// Two scheduling rules live here:
/// * **Latency class** — on an interactive engine a batch is capped at
///   what is already queued: the worker never waits out the batch timeout.
/// * **Idle siblings** — a partial bulk batch waits for more rows only
///   while no other worker of this engine is idle (`QueueInner::idle`,
///   counted under the queue lock). A worker that goes idle wakes any
///   worker forming a batch, which then runs the rows it holds.
fn form_batch(cfg: &WorkerCfg, batch: &mut Vec<(Arc<Request>, u64)>) -> bool {
    let tpl = &cfg.template;
    let mut q = lock(&tpl.shared.queue);
    loop {
        if let Some(item) = pop_live(&tpl.shared, &mut q) {
            batch.push(item);
            break;
        }
        if q.stopping {
            return false;
        }
        q.idle += 1;
        if q.forming > 0 {
            // A sibling holds a partial batch for rows this worker could
            // take itself: let it run what it has.
            tpl.shared.not_empty.notify_all();
        }
        q = tpl.shared.not_empty.wait(q).unwrap_or_else(PoisonError::into_inner);
        q.idle -= 1;
    }
    if tpl.max_batch > 1 {
        let deadline = Instant::now() + tpl.batch_timeout;
        while batch.len() < tpl.max_batch {
            if let Some(item) = pop_live(&tpl.shared, &mut q) {
                batch.push(item);
                continue;
            }
            if q.stopping || tpl.latency_class == LatencyClass::Interactive || q.idle > 0 {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            q.forming += 1;
            let (guard, timeout) = tpl
                .shared
                .not_empty
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
            q.forming -= 1;
            if timeout.timed_out() && q.fifo.is_empty() {
                break;
            }
        }
    }
    true
}

/// Publishes the formed batch in this worker's supervision entry so the
/// watchdog can fail it if the worker is lost mid-run. Returns `false` if
/// the watchdog already abandoned this worker generation.
fn register_batch(cfg: &WorkerCfg, batch: &[(Arc<Request>, u64)]) -> bool {
    let mut workers = lock(&cfg.template.shared.workers);
    let entry = &mut workers[cfg.index];
    if entry.generation != cfg.generation {
        return false;
    }
    entry.busy_since = Some(Instant::now());
    entry.in_flight.clear();
    for (req, seq) in batch {
        entry.in_flight.push((Arc::clone(req), *seq));
    }
    true
}

/// Clears this worker's in-flight registration after the batch outcome is
/// known. Returns `true` when the watchdog abandoned this generation
/// meanwhile (the entry belongs to a replacement; this thread must exit).
fn clear_batch(cfg: &WorkerCfg) -> bool {
    let mut workers = lock(&cfg.template.shared.workers);
    let entry = &mut workers[cfg.index];
    if entry.generation != cfg.generation {
        return true;
    }
    entry.in_flight.clear();
    entry.busy_since = None;
    false
}

/// Resolves every still-pending request of `batch` with `err` (seq-guarded:
/// requests already resolved elsewhere are untouched).
fn fail_batch(shared: &Shared, batch: &[(Arc<Request>, u64)], err: &NeoError) {
    let mut failed = 0u64;
    for (req, seq) in batch {
        if resolve_failure(req, *seq, err) {
            failed += 1;
        }
    }
    if failed > 0 {
        lock(&shared.stats).failed += failed;
    }
}

/// Executes one formed batch on the worker's context and distributes
/// results to every request still owned by this run.
fn run_batch(
    cfg: &WorkerCfg,
    ctx: &mut RunContext,
    staging: &mut Tensor,
    batch: &[(Arc<Request>, u64)],
) {
    let shared = &cfg.template.shared;
    {
        let mut st = lock(&shared.stats);
        st.batches += 1;
        st.batched_requests += batch.len() as u64;
        if batch.len() > 1 {
            st.multi_batches += 1;
        }
        if batch.len() > st.max_batch_formed {
            st.max_batch_formed = batch.len();
        }
    }

    // Stage request rows into the `batch.len()`-row view of the staging
    // buffer: the executor runs exactly those rows of the batch-B plan, so
    // a partial batch computes no padding rows.
    for (row, (req, _)) in batch.iter().enumerate() {
        let inner = lock(&req.inner);
        let row_len = inner.input.data().len();
        staging.data_mut()[row * row_len..(row + 1) * row_len].copy_from_slice(inner.input.data());
    }

    match cfg.template.module.run_with(ctx, std::slice::from_ref(staging)) {
        Ok(()) => {
            for (row, (req, seq)) in batch.iter().enumerate() {
                let mut inner = lock(&req.inner);
                // Seq guard: if a racing resolver (watchdog abandonment,
                // drain) already answered this request, its buffers belong
                // to the client again — leave them alone.
                if !matches!(inner.state, SlotState::Queued) || inner.seq != *seq {
                    continue;
                }
                for o in 0..inner.outputs.len() {
                    let src = ctx.output(o).expect("output count validated at engine start");
                    let row_len = inner.outputs[o].data().len();
                    let rows = &src.data()[row * row_len..(row + 1) * row_len];
                    inner.outputs[o].data_mut().copy_from_slice(rows);
                }
                let latency = inner.submitted.elapsed();
                // Record before waking the waiter, so a client that reads
                // `report()` right after `wait()` sees its own completion.
                record_completion(shared, latency);
                inner.state = SlotState::Done;
                drop(inner);
                req.done.notify_all();
            }
        }
        Err(e) => {
            // The panic boundary already contained the failure; every
            // request of this batch degrades, the engine keeps serving.
            fail_batch(shared, batch, &e);
        }
    }
}

/// A worker's staging input: one buffer of B rows seen through B prefix
/// views, `views[n - 1]` shaped for an n-row run — the memory of one
/// B-row tensor, allocated once per worker.
fn staging_views(input_shape: &Shape, layout: Layout) -> Vec<Tensor> {
    let batch = input_shape.dims()[0];
    let arena = Arena::new(input_shape.num_elements());
    (1..=batch)
        .map(|rows| {
            // SAFETY: every view starts at offset 0 of a buffer only this
            // worker touches, and it accesses one view at a time.
            unsafe {
                Tensor::arena_view(arena.clone(), 0, with_rows(input_shape, batch, rows), layout)
            }
            .expect("module input shape is constructible")
        })
        .collect()
}

/// Counts one completed request and records its latency.
fn record_completion(shared: &Shared, latency: Duration) {
    let mut st = lock(&shared.stats);
    st.completed += 1;
    st.latency.record(latency);
}

/// Watchdog configuration (owned by the supervisor thread).
struct WatchdogCfg {
    shared: Arc<Shared>,
    template: WorkerTemplate,
    interval: Duration,
    stall_budget: Option<Duration>,
}

/// The supervisor: every tick, abandon stalled workers and respawn dead
/// ones (unless the engine is draining). The tick is allocation-free when
/// nothing is wrong, so it can run while the zero-allocation warm path is
/// being measured.
fn watchdog_loop(cfg: &WatchdogCfg) {
    loop {
        {
            let stop = lock(&cfg.shared.watchdog_stop);
            if *stop {
                return;
            }
            let (stop, _) = cfg
                .shared
                .watchdog_cv
                .wait_timeout(stop, cfg.interval)
                .unwrap_or_else(PoisonError::into_inner);
            if *stop {
                return;
            }
        }
        let respawn_allowed = cfg.shared.health() == EngineHealth::Ready;
        let mut workers = lock(&cfg.shared.workers);
        for (index, entry) in workers.iter_mut().enumerate() {
            // Stall: the batch has exceeded its budget. Abandon the thread
            // (it is past joining — it may never return), fail its slots,
            // and let the respawn below replace it.
            let stalled = entry.alive
                && cfg
                    .stall_budget
                    .is_some_and(|b| entry.busy_since.is_some_and(|t0| t0.elapsed() >= b));
            if stalled {
                let slots: Vec<(Arc<Request>, u64)> = entry.in_flight.drain(..).collect();
                entry.busy_since = None;
                entry.alive = false;
                entry.generation = entry.generation.wrapping_add(1);
                drop(entry.handle.take()); // detach: never join a hung thread
                let err = NeoError::WorkerLost {
                    worker: index,
                    reason: "batch exceeded the stall budget".into(),
                };
                fail_batch(&cfg.shared, &slots, &err);
                lock(&cfg.shared.stats).stalls += 1;
                cfg.shared.worker_exited.notify_all();
            }
            // Death: the exit guard cleared `alive` (the thread is gone or
            // exiting). Join the finished thread, sweep anything the guard
            // could not resolve, and respawn a fresh generation.
            if !entry.alive {
                if let Some(h) = entry.handle.take() {
                    // The guard ran before `alive` cleared, so the thread
                    // is past its last lock acquisition; this join cannot
                    // deadlock and returns promptly.
                    let _ = h.join();
                }
                if !entry.in_flight.is_empty() {
                    let slots: Vec<(Arc<Request>, u64)> = entry.in_flight.drain(..).collect();
                    let err = NeoError::WorkerLost {
                        worker: index,
                        reason: "worker died with unresolved in-flight slots".into(),
                    };
                    fail_batch(&cfg.shared, &slots, &err);
                }
                if respawn_allowed {
                    entry.generation = entry.generation.wrapping_add(1);
                    // A spawn failure (thread exhaustion, or the
                    // worker-spawn drill) leaves the entry dead; the next
                    // tick retries.
                    if let Ok(h) = spawn_worker(&cfg.template, index, entry.generation) {
                        entry.handle = Some(h);
                        entry.alive = true;
                        entry.busy_since = None;
                        lock(&cfg.shared.stats).respawns += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions, CpuTarget, OptLevel, PoolChoice};
    use neocpu_graph::GraphBuilder;

    fn batched_module(batch: usize) -> Arc<Module> {
        let mut b = GraphBuilder::new(11);
        let x = b.input([batch, 4, 8, 8]);
        let c = b.conv_bn_relu(x, 8, 3, 1, 1);
        let p = b.max_pool(c, 2, 2, 0);
        let f = b.flatten(p);
        let d = b.dense(f, 5);
        let s = b.softmax(d);
        let g = b.finish(vec![s]);
        let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Sequential);
        Arc::new(compile(&g, &CpuTarget::host(), &opts).unwrap())
    }

    #[test]
    fn serves_requests_and_matches_direct_run() {
        let m = batched_module(2);
        let engine =
            ServeEngine::new(Arc::clone(&m), &ServeOptions { workers: 2, ..Default::default() })
                .unwrap();
        let img = Tensor::random([1, 4, 8, 8], Layout::Nchw, 3, 1.0).unwrap();
        let outs = engine.infer(&img).unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].shape().dims(), &[1, 5]);
        assert!(outs[0].data().iter().all(|v| v.is_finite()));

        // Cross-check against a direct batched run with the same image in
        // every row: the served row must be bit-identical.
        let mut stacked = Tensor::zeros([2, 4, 8, 8], Layout::Nchw).unwrap();
        let n = img.data().len();
        stacked.data_mut()[..n].copy_from_slice(img.data());
        let img2 = img.data().to_vec();
        stacked.data_mut()[n..].copy_from_slice(&img2);
        let direct = m.run(std::slice::from_ref(&stacked)).unwrap();
        assert_eq!(outs[0].data(), &direct[0].data()[..outs[0].data().len()]);
        engine.shutdown();
    }

    #[test]
    fn slot_reuse_cycle_works() {
        let m = batched_module(2);
        let engine =
            ServeEngine::new(m, &ServeOptions { workers: 1, ..Default::default() }).unwrap();
        let req = engine.make_request();
        for seed in 0..4 {
            let img = Tensor::random([1, 4, 8, 8], Layout::Nchw, seed, 1.0).unwrap();
            req.fill(&img).unwrap();
            engine.submit(&req).unwrap();
            req.wait().unwrap();
            req.with_outputs(|outs| {
                assert!(outs[0].data().iter().all(|v| v.is_finite()));
            })
            .unwrap();
        }
        let report = engine.report();
        assert_eq!(report.completed, 4);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn rejects_multi_input_modules_and_bad_requests() {
        let mut b = GraphBuilder::new(1);
        let x = b.input([1, 4, 8, 8]);
        let y = b.input([1, 4, 8, 8]);
        let a = b.add(x, y);
        let g = b.finish(vec![a]);
        let opts = CompileOptions::level(OptLevel::O0).with_pool(PoolChoice::Sequential);
        let m = Arc::new(compile(&g, &CpuTarget::host(), &opts).unwrap());
        let err = ServeEngine::new(m, &ServeOptions::default()).unwrap_err();
        assert!(matches!(err, NeoError::Serve(_)), "unexpected: {err}");

        // Requests from one engine are rejected by another.
        let e1 = ServeEngine::new(batched_module(2), &ServeOptions::default()).unwrap();
        let e2 = ServeEngine::new(batched_module(2), &ServeOptions::default()).unwrap();
        let req = e1.make_request();
        let err = e2.submit(&req).unwrap_err();
        assert!(matches!(err, NeoError::Serve(_)), "unexpected: {err}");

        // Wrong-shape fill is rejected.
        let bad = Tensor::zeros([1, 4, 9, 9], Layout::Nchw).unwrap();
        assert!(req.fill(&bad).is_err());
    }

    #[test]
    fn invalid_options_are_rejected_with_config_errors() {
        let m = batched_module(2);
        for opts in [
            ServeOptions { workers: 0, ..Default::default() },
            ServeOptions { queue_cap: 0, ..Default::default() },
            ServeOptions { watchdog_interval: Duration::ZERO, ..Default::default() },
            ServeOptions { stall_budget: Some(Duration::ZERO), ..Default::default() },
        ] {
            let err = ServeEngine::new(Arc::clone(&m), &opts).unwrap_err();
            assert!(matches!(err, NeoError::Config(_)), "expected Config error, got {err}");
        }
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let engine = ServeEngine::new(batched_module(2), &ServeOptions::default()).unwrap();
        let req = engine.make_request();
        assert_eq!(engine.health(), EngineHealth::Ready);
        engine.shutdown();
        assert_eq!(engine.health(), EngineHealth::Stopped);
        let err = engine.submit(&req).unwrap_err();
        assert!(matches!(err, NeoError::Shutdown), "unexpected: {err}");
        let err = engine.try_submit(&req).unwrap_err();
        assert!(matches!(err, NeoError::Shutdown), "unexpected: {err}");
        // The failed submit left the slot reusable (not stuck in flight).
        assert!(req.fill(&Tensor::zeros([1, 4, 8, 8], Layout::Nchw).unwrap()).is_ok());
    }

    #[test]
    fn report_percentiles_are_well_defined_on_tiny_and_empty_samples() {
        let engine = ServeEngine::new(batched_module(2), &ServeOptions::default()).unwrap();
        // No samples: percentiles are NaN, not a bogus 0 ms.
        let empty = engine.report();
        assert_eq!(empty.completed, 0);
        assert!(empty.p50_ms.is_nan() && empty.p95_ms.is_nan() && empty.p99_ms.is_nan());

        // One sample: every percentile is that sample.
        let img = Tensor::random([1, 4, 8, 8], Layout::Nchw, 3, 1.0).unwrap();
        engine.infer(&img).unwrap();
        let one = engine.report();
        assert_eq!(one.completed, 1);
        assert!(one.p50_ms > 0.0);
        assert_eq!(one.p50_ms, one.p95_ms);
        assert_eq!(one.p95_ms, one.p99_ms);
        engine.shutdown();

        // Known values, 0 µs and past the top bucket included: each percentile
        // is exact nearest rank plus at most one bucket (1 µs, or 1/16).
        let mut us: Vec<u64> = vec![0, 0, 3, 15, 16, 17, 31, 33, 100, 4_321, 999_999, 1 << 40];
        let mut hist = LatencyHistogram { counts: [0; LAT_BUCKETS], max: Duration::ZERO };
        for &v in &us {
            hist.record(Duration::from_micros(v));
        }
        us.sort_unstable();
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
            let rank = ((p / 100.0) * us.len() as f64).ceil() as usize;
            let exact = us[rank.clamp(1, us.len()) - 1] as f64;
            let got = hist.percentile_ms(p) * 1e3;
            let width = (exact / 16.0).max(1.0);
            assert!(
                got >= exact - 1e-6 && got <= exact + width + 1e-6,
                "p{p}: got {got} µs, exact {exact} µs"
            );
        }
        assert_eq!(hist.percentile_ms(100.0), (1u64 << 40) as f64 / 1e3, "top bucket saturates");
    }

    #[test]
    fn expired_request_is_never_executed() {
        let engine = ServeEngine::new(batched_module(2), &ServeOptions::default()).unwrap();
        let req = engine.make_request();
        let img = Tensor::random([1, 4, 8, 8], Layout::Nchw, 5, 1.0).unwrap();
        // A 1 ns budget has always expired by the time a worker pops the
        // request: the batcher must resolve, not run it.
        req.fill_with_deadline(&img, Duration::from_nanos(1)).unwrap();
        engine.submit(&req).unwrap();
        let err = req.wait().unwrap_err();
        assert!(matches!(err, NeoError::DeadlineExceeded), "unexpected: {err}");
        let r = engine.report();
        assert_eq!(r.completed, 0, "an expired request must never execute: {r}");
        assert_eq!(r.deadline_exceeded, 1);

        // The slot is reusable, and a fresh fill clears the deadline.
        req.fill(&img).unwrap();
        engine.submit(&req).unwrap();
        req.wait().unwrap();
        engine.shutdown();
    }

    #[test]
    fn interactive_request_caps_batch_formation() {
        // With a batch-4 module and a long batch timeout, a lone request on
        // a one-worker *bulk* engine waits out the timeout hoping to
        // coalesce; on an *interactive* engine it must run at once. Only
        // the engines' latency class differs.
        let m = batched_module(4);
        let timeout = Duration::from_millis(600);
        let opts = ServeOptions { workers: 1, batch_timeout: timeout, ..Default::default() };
        let img = Tensor::random([1, 4, 8, 8], Layout::Nchw, 6, 1.0).unwrap();
        let lone_request = |class: LatencyClass| {
            let opts = ServeOptions { latency_class: class, ..opts.clone() };
            let engine = ServeEngine::new(Arc::clone(&m), &opts).unwrap();
            let req = engine.make_request();
            req.fill(&img).unwrap();
            let t0 = Instant::now();
            engine.submit(&req).unwrap();
            req.wait().unwrap();
            let elapsed = t0.elapsed();
            engine.shutdown();
            elapsed
        };
        let bulk_elapsed = lone_request(LatencyClass::Bulk);
        let hot_elapsed = lone_request(LatencyClass::Interactive);

        assert!(
            bulk_elapsed >= timeout,
            "a lone bulk request should wait out the batch timeout ({bulk_elapsed:?})"
        );
        assert!(
            hot_elapsed < timeout / 2,
            "an interactive request must not wait for batch coalescing \
             (took {hot_elapsed:?}, timeout {timeout:?})"
        );
    }

    #[test]
    fn two_engines_bind_disjoint_cores_by_default() {
        // The cross-engine pile-up regression: two engines constructed
        // independently must not pin their workers to the same cores when
        // the cpuset has room for both.
        let m = batched_module(2);
        let opts = ServeOptions { workers: 1, ..Default::default() };
        let e1 = ServeEngine::new(Arc::clone(&m), &opts).unwrap();
        let e2 = ServeEngine::new(Arc::clone(&m), &opts).unwrap();
        // Engines must have claimed *some* core set wherever binding is
        // supported at all.
        let (Some(s1), Some(s2)) = (e1.core_set(), e2.core_set()) else {
            // No affinity support on this host; nothing to assert.
            return;
        };
        let total = s1.len() + s2.len();
        if affinity::allowed_cores().len() >= total {
            assert!(
                s1.is_disjoint(s2),
                "two engines reserved overlapping cores {:?} / {:?} on a cpuset with room",
                s1.cores(),
                s2.cores()
            );
        }
        // Wherever the kernel accepted the binding, the observed masks
        // must lie inside each engine's own set — and therefore be
        // disjoint across engines when the sets are.
        let deadline = Instant::now() + Duration::from_secs(5);
        let observed = |e: &ServeEngine| -> Vec<usize> {
            e.bound_cores().into_iter().flatten().collect()
        };
        // Workers record their mask right after spawn; give them a beat.
        while (observed(&e1).is_empty() || observed(&e2).is_empty())
            && Instant::now() < deadline
            && cfg!(all(target_os = "linux", target_arch = "x86_64"))
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        for (e, set) in [(&e1, s1), (&e2, s2)] {
            for core in observed(e) {
                assert!(
                    set.contains(core),
                    "worker bound to core {core}, outside its engine's set {:?}",
                    set.cores()
                );
            }
        }
        e1.shutdown();
        e2.shutdown();
    }
}
