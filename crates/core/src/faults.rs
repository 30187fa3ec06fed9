//! Fault-injection framework for exercising the executor's containment
//! boundaries.
//!
//! The runtime defines a small set of **named failpoints** at the places a
//! serving process realistically fails: kernel entry, output-tensor
//! allocation, layout transformation, scheme-database loading, and the body
//! executed by thread-pool workers. A test (or a chaos harness) *arms* a
//! failpoint with a deterministic `Trigger` and a `FaultMode`; the next
//! time execution reaches it, the failpoint either returns a typed
//! [`crate::NeoError::Fault`] or panics — proving that `Module::run`
//! surfaces an `Err`, the thread pool stays usable, and a subsequent clean
//! run succeeds.
//!
//! The whole mechanism is compiled in only under the `fault-injection`
//! cargo feature; release builds pay nothing (the internal `fire` hook is
//! an inlined no-op). The registry is process-global, so tests that arm
//! failpoints must serialize themselves (see `tests/fault_injection.rs`).

/// Failpoint at the entry of every compute-op kernel invocation.
pub const KERNEL_ENTRY: &str = "kernel-entry";
/// Failpoint at every output-tensor allocation in the executor.
pub const TENSOR_ALLOC: &str = "tensor-alloc";
/// Failpoint at every explicit layout transformation.
pub const LAYOUT_TRANSFORM: &str = "layout-transform";
/// Failpoint at scheme-database loading ([`crate::load_scheme_db`]).
pub const DB_LOAD: &str = "db-load";
/// Failpoint inside the body every thread-pool worker executes. Fires as a
/// panic regardless of `FaultMode` (a worker body cannot return an
/// error), exercising the pool's unwind containment.
pub const POOL_WORKER: &str = "pool-worker";
/// Failpoint at every serve-engine batcher wake-up, fired after a batch is
/// formed but before it executes. `Error` mode fails the batch with a
/// typed fault (contained; the worker keeps serving); `Panic` mode escapes
/// the per-batch boundary, so the worker fails its in-flight slots,
/// retires, and the watchdog must respawn it.
pub const BATCHER_WAKEUP: &str = "batcher-wakeup";
/// Failpoint at serve-worker thread startup (before the worker's pooled
/// context is built). Always manifests as a panic, killing the nascent
/// worker — the watchdog's respawn loop must converge once it stops
/// firing.
pub const WORKER_SPAWN: &str = "worker-spawn";
/// Failpoint at the serve batcher's deadline check. When it fires (any
/// mode), a deadline-carrying request is treated as already expired —
/// simulating clock skew between the submitting and the serving thread.
pub const DEADLINE_SKEW: &str = "deadline-clock-skew";

#[cfg(feature = "fault-injection")]
mod imp {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    /// How an armed failpoint manifests when it fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultMode {
        /// Return [`crate::NeoError::Fault`] from the failpoint.
        Error,
        /// Panic at the failpoint (exercising the panic boundary).
        Panic,
    }

    /// When an armed failpoint fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Trigger {
        /// Fire at every hit.
        Always,
        /// Fire exactly once, on the n-th hit (1-based), then stay silent.
        Nth(u64),
        /// Fire on every n-th hit (the n-th, 2n-th, …); `EveryNth(1)` is
        /// `Always`. `EveryNth(0)` never fires.
        EveryNth(u64),
        /// Fire each hit independently with probability `permille`/1000,
        /// drawn from a dedicated xorshift64* stream seeded with `seed` —
        /// the same seed always yields the same firing schedule, so a
        /// chaos drill that fails is reproducible from its printed seed.
        Probability {
            /// Firing probability in thousandths (0 = never, 1000 = always).
            permille: u32,
            /// Seed of the failpoint's private random stream.
            seed: u64,
        },
    }

    #[derive(Debug)]
    struct Failpoint {
        trigger: Trigger,
        mode: FaultMode,
        hits: u64,
        /// xorshift64* state for [`Trigger::Probability`]; unused otherwise.
        rng: u64,
    }

    fn registry() -> &'static Mutex<HashMap<&'static str, Failpoint>> {
        static REGISTRY: OnceLock<Mutex<HashMap<&'static str, Failpoint>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn lock() -> std::sync::MutexGuard<'static, HashMap<&'static str, Failpoint>> {
        // A panic while holding the lock is expected (Panic mode fires
        // between lock acquisitions, but a poisoned registry must not
        // cascade into unrelated tests).
        registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Arms `point` (one of the `faults::*` constants) with a trigger and
    /// failure mode, replacing any previous arming and resetting its hit
    /// counter (and, for [`Trigger::Probability`], its random stream).
    pub fn arm(point: &'static str, trigger: Trigger, mode: FaultMode) {
        let rng = match trigger {
            // xorshift64* needs a non-zero state; fold seed 0 to a fixed
            // odd constant so arming stays deterministic.
            Trigger::Probability { seed, .. } => {
                if seed == 0 {
                    0x9E37_79B9_7F4A_7C15
                } else {
                    seed
                }
            }
            _ => 0,
        };
        lock().insert(point, Failpoint { trigger, mode, hits: 0, rng });
    }

    /// Disarms `point`; subsequent hits pass through.
    pub fn disarm(point: &str) {
        lock().remove(point);
    }

    /// Disarms every failpoint (test hygiene between cases).
    pub fn disarm_all() {
        lock().clear();
    }

    /// Number of times `point` has been reached since it was armed.
    pub fn hits(point: &str) -> u64 {
        lock().get(point).map_or(0, |f| f.hits)
    }

    /// Records a hit; returns the failure mode to apply, if the trigger
    /// decided to fire.
    fn check(point: &str) -> Option<FaultMode> {
        let mut reg = lock();
        let fp = reg.get_mut(point)?;
        fp.hits += 1;
        let fire = match fp.trigger {
            Trigger::Always => true,
            Trigger::Nth(n) => fp.hits == n,
            Trigger::EveryNth(n) => n > 0 && fp.hits % n == 0,
            Trigger::Probability { permille, .. } => {
                // xorshift64* step (Vigna); high bits feed the draw.
                fp.rng ^= fp.rng >> 12;
                fp.rng ^= fp.rng << 25;
                fp.rng ^= fp.rng >> 27;
                let draw = fp.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32;
                (draw % 1000) < u64::from(permille)
            }
        };
        fire.then_some(fp.mode)
    }

    pub(crate) fn fire(point: &'static str) -> crate::Result<()> {
        match check(point) {
            None => Ok(()),
            Some(FaultMode::Error) => Err(crate::NeoError::Fault { failpoint: point }),
            Some(FaultMode::Panic) => panic!("injected panic at failpoint '{point}'"),
        }
    }

    pub(crate) fn fire_in_worker(point: &'static str) {
        if check(point).is_some() {
            panic!("injected panic at failpoint '{point}'");
        }
    }

    /// Behavioral failpoint: reports whether `point` fired without
    /// erroring or panicking (the caller perturbs its own logic instead —
    /// e.g. [`super::DEADLINE_SKEW`] forces a deadline check to expire).
    pub(crate) fn fire_bool(point: &'static str) -> bool {
        check(point).is_some()
    }

    /// [`Parallelism`](neocpu_threadpool::Parallelism) adapter the executor
    /// wraps around its pool so the [`super::POOL_WORKER`] failpoint runs
    /// inside every worker's body.
    pub(crate) struct WorkerFaultPar<'a>(pub &'a dyn neocpu_threadpool::Parallelism);

    impl neocpu_threadpool::Parallelism for WorkerFaultPar<'_> {
        fn num_threads(&self) -> usize {
            self.0.num_threads()
        }

        fn run(
            &self,
            total: usize,
            body: &(dyn Fn(usize, std::ops::Range<usize>) + Sync),
        ) {
            self.0.run(total, &|worker, range| {
                fire_in_worker(super::POOL_WORKER);
                body(worker, range);
            });
        }
    }
}

#[cfg(feature = "fault-injection")]
pub use imp::{arm, disarm, disarm_all, hits, FaultMode, Trigger};

#[cfg(feature = "fault-injection")]
pub(crate) use imp::{fire, fire_bool, fire_in_worker, WorkerFaultPar};

/// No-op hook compiled when fault injection is disabled.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub(crate) fn fire(_point: &'static str) -> crate::Result<()> {
    Ok(())
}

/// No-op panic hook compiled when fault injection is disabled.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub(crate) fn fire_in_worker(_point: &'static str) {}

/// No-op behavioral hook compiled when fault injection is disabled.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub(crate) fn fire_bool(_point: &'static str) -> bool {
    false
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    #[test]
    fn nth_trigger_fires_exactly_once() {
        // Use a point name no other test arms; the registry is global.
        arm(TENSOR_ALLOC, Trigger::Nth(2), FaultMode::Error);
        assert!(fire(TENSOR_ALLOC).is_ok());
        assert!(fire(TENSOR_ALLOC).is_err());
        assert!(fire(TENSOR_ALLOC).is_ok());
        assert_eq!(hits(TENSOR_ALLOC), 3);
        disarm(TENSOR_ALLOC);
        assert!(fire(TENSOR_ALLOC).is_ok());
    }

    #[test]
    fn every_nth_trigger_fires_periodically() {
        arm(BATCHER_WAKEUP, Trigger::EveryNth(3), FaultMode::Error);
        let fired: Vec<bool> = (0..9).map(|_| fire(BATCHER_WAKEUP).is_err()).collect();
        assert_eq!(
            fired,
            [false, false, true, false, false, true, false, false, true]
        );
        // EveryNth(0) never fires.
        arm(BATCHER_WAKEUP, Trigger::EveryNth(0), FaultMode::Error);
        assert!((0..5).all(|_| fire(BATCHER_WAKEUP).is_ok()));
        disarm(BATCHER_WAKEUP);
    }

    #[test]
    fn probability_trigger_is_seed_deterministic() {
        let schedule = |seed: u64| -> Vec<bool> {
            arm(
                DEADLINE_SKEW,
                Trigger::Probability { permille: 300, seed },
                FaultMode::Error,
            );
            let v = (0..64).map(|_| fire(DEADLINE_SKEW).is_err()).collect();
            disarm(DEADLINE_SKEW);
            v
        };
        let a = schedule(42);
        let b = schedule(42);
        assert_eq!(a, b, "same seed must replay the same firing schedule");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(
            fired > 0 && fired < 64,
            "permille 300 over 64 draws should fire sometimes, not never/always \
             (fired {fired})"
        );
        // Seed 0 is legal (folded to a fixed non-zero state).
        let c = schedule(0);
        let d = schedule(0);
        assert_eq!(c, d);
    }

    #[test]
    fn fire_bool_reports_without_failing() {
        // Distinct point from the other tests: the registry is global and
        // unit tests run concurrently.
        arm(WORKER_SPAWN, Trigger::EveryNth(2), FaultMode::Error);
        assert!(!super::fire_bool(WORKER_SPAWN));
        assert!(super::fire_bool(WORKER_SPAWN));
        disarm(WORKER_SPAWN);
        assert!(!super::fire_bool(WORKER_SPAWN));
    }
}
