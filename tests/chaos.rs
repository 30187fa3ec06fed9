//! Chaos drill harness for the serving engine's request lifecycle.
//!
//! A seeded, randomized schedule of failpoint firings (batcher faults and
//! panics, worker-spawn panics, deadline clock skew) runs underneath
//! concurrent submitters; the drills assert the lifecycle invariants that
//! the hardening work guarantees:
//!
//! - nothing hangs (every drill runs under a deadlock-guard timeout);
//! - every request resolves **exactly once**, to a result or a typed
//!   error (`Busy`, `DeadlineExceeded`, `WorkerLost`, `Fault`, ...);
//! - the engine stays servable after every fault round (health `Ready`,
//!   clean requests complete) and shuts down to `Stopped` on demand.
//!
//! The schedule derives entirely from one seed, printed at the start of
//! each drill and overridable via the `CHAOS_SEED` env var, so any failure
//! reproduces byte-for-byte.
//!
//! Requires `--features fault-injection`; without it this file is empty.
#![cfg(feature = "fault-injection")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use neocpu::faults::{
    arm, disarm_all, FaultMode, Trigger, BATCHER_WAKEUP, DEADLINE_SKEW, WORKER_SPAWN,
};
use neocpu::{
    compile, CompileOptions, CpuTarget, EngineHealth, Module, NeoError, OptLevel, PoolChoice,
    ServeEngine, ServeOptions,
};
use neocpu_graph::GraphBuilder;
use neocpu_tensor::{Layout, Tensor};

/// The failpoint registry is process-global; drills must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    disarm_all();
    g
}

/// Base seed for the drill schedule; override with `CHAOS_SEED=<u64>` to
/// reproduce a failing run.
fn chaos_seed() -> u64 {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0x00C0_FFEE);
    println!("chaos drill seed: {seed} (set CHAOS_SEED to reproduce)");
    seed
}

/// xorshift64* — the same generator the failpoint registry uses, so the
/// whole drill schedule derives from the one printed seed.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed })
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Fails the drill if `f` does not finish within `secs` — a hang is the
/// one failure mode these tests exist to rule out.
fn with_timeout<F: FnOnce() + Send + 'static>(secs: u64, name: &str, f: F) {
    let (tx, rx) = std::sync::mpsc::channel();
    let t = std::thread::spawn(move || {
        f();
        tx.send(()).ok();
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) | Err(RecvTimeoutError::Disconnected) => t.join().unwrap(),
        Err(RecvTimeoutError::Timeout) => {
            panic!("{name} did not finish within {secs}s: likely deadlock")
        }
    }
}

/// A small batch-2 conv module for the drills.
fn small_module() -> Arc<Module> {
    let mut b = GraphBuilder::new(7);
    let x = b.input([2, 4, 12, 12]);
    let c = b.conv_bn_relu(x, 8, 3, 1, 1);
    let g = b.finish(vec![c]);
    let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Sequential);
    Arc::new(compile(&g, &CpuTarget::host(), &opts).unwrap())
}

fn image(seed: u64) -> Tensor {
    Tensor::random([1, 4, 12, 12], Layout::Nchw, seed, 1.0).unwrap()
}

/// Proves the engine is servable right now: loops a clean blocking cycle
/// until one completes (earlier iterations may still absorb in-flight
/// faults or hit a worker mid-respawn).
fn recover(engine: &ServeEngine) {
    let req = engine.make_request();
    let img = image(99);
    for _ in 0..10_000 {
        req.fill(&img).unwrap();
        engine.submit(&req).unwrap();
        if req.wait().is_ok() {
            return;
        }
        std::thread::yield_now();
    }
    panic!("engine never recovered to a clean request after disarming faults");
}

/// The flagship drill: four rounds of probabilistic faults at every
/// lifecycle failpoint, under four concurrent submitters mixing blocking
/// and non-blocking admission and deadline-free, lax-deadline, and
/// already-expired requests. Every iteration must resolve to exactly one
/// typed outcome; the engine must return to `Ready` after each round and
/// drain to `Stopped` at the end.
#[test]
fn seeded_chaos_drill_preserves_lifecycle_invariants() {
    let _guard = serial();
    let seed = chaos_seed();
    with_timeout(300, "seeded chaos drill", move || {
        let mut rng = XorShift::new(seed);
        let engine = Arc::new(
            ServeEngine::new(
                small_module(),
                &ServeOptions {
                    workers: 2,
                    queue_cap: 8,
                    watchdog_interval: Duration::from_millis(1),
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let threads = 4u64;
        let iters = 30u64;
        let rounds = 4u64;
        let done = AtomicU64::new(0);
        let expired = AtomicU64::new(0);
        let busy = AtomicU64::new(0);
        let failed = AtomicU64::new(0);

        for round in 0..rounds {
            // Odd rounds let the batcher fault escape as a panic (worker
            // dies, watchdog respawns); even rounds contain it as an error.
            let wakeup_mode =
                if round % 2 == 1 { FaultMode::Panic } else { FaultMode::Error };
            arm(
                BATCHER_WAKEUP,
                Trigger::Probability { permille: 120, seed: rng.next() },
                wakeup_mode,
            );
            arm(
                WORKER_SPAWN,
                Trigger::Probability { permille: 250, seed: rng.next() },
                FaultMode::Panic,
            );
            arm(
                DEADLINE_SKEW,
                Trigger::Probability { permille: 200, seed: rng.next() },
                FaultMode::Error,
            );

            std::thread::scope(|s| {
                for t in 0..threads {
                    let engine = Arc::clone(&engine);
                    let mut local = XorShift::new(seed ^ (round << 32) ^ (t + 1));
                    let (done, expired, busy, failed) = (&done, &expired, &busy, &failed);
                    s.spawn(move || {
                        let req = engine.make_request();
                        let img = image(t);
                        for _ in 0..iters {
                            let roll = local.next();
                            // Mix deadline-free, generous-deadline, and
                            // already-expired requests.
                            match roll % 3 {
                                0 => req.fill(&img).unwrap(),
                                1 => req
                                    .fill_with_deadline(&img, Duration::from_millis(50))
                                    .unwrap(),
                                _ => req
                                    .fill_with_deadline(&img, Duration::from_nanos(1))
                                    .unwrap(),
                            }
                            let admitted = if roll & 8 == 0 {
                                engine.submit(&req)
                            } else {
                                engine.try_submit(&req)
                            };
                            let outcome = match admitted {
                                Ok(()) => req.wait(),
                                Err(e) => Err(e),
                            };
                            match outcome {
                                Ok(()) => drop(done.fetch_add(1, Ordering::Relaxed)),
                                Err(NeoError::DeadlineExceeded) => {
                                    expired.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(NeoError::Busy { .. }) => {
                                    busy.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(
                                    NeoError::WorkerLost { .. }
                                    | NeoError::Fault { .. }
                                    | NeoError::Panicked { .. }
                                    | NeoError::AtNode { .. },
                                ) => drop(failed.fetch_add(1, Ordering::Relaxed)),
                                Err(e) => panic!(
                                    "seed {seed} round {round}: untyped outcome {e}"
                                ),
                            }
                        }
                    });
                }
            });

            // Between rounds the engine must come back to full health.
            disarm_all();
            recover(&engine);
            assert_eq!(
                engine.health(),
                EngineHealth::Ready,
                "seed {seed} round {round}: engine left Ready outside shutdown"
            );
        }

        let total = done.load(Ordering::Relaxed)
            + expired.load(Ordering::Relaxed)
            + busy.load(Ordering::Relaxed)
            + failed.load(Ordering::Relaxed);
        assert_eq!(
            total,
            rounds * threads * iters,
            "seed {seed}: every request must resolve exactly once \
             (done {done:?} expired {expired:?} busy {busy:?} failed {failed:?})"
        );
        assert!(
            done.load(Ordering::Relaxed) > 0,
            "seed {seed}: the drill should complete at least some requests"
        );

        let rep = engine.report();
        println!("chaos drill report: {rep}");
        engine.shutdown_within(Duration::from_secs(5));
        assert_eq!(engine.health(), EngineHealth::Stopped);
        let late = engine.make_request();
        late.fill(&image(0)).unwrap();
        assert!(matches!(engine.submit(&late), Err(NeoError::Shutdown)));
    });
}

/// A worker killed by a panic escaping the batch boundary is detected by
/// the watchdog and respawned; the engine returns to `Ready` service.
#[test]
fn killed_worker_is_respawned_and_engine_returns_to_ready() {
    let _guard = serial();
    let seed = chaos_seed();
    with_timeout(60, "worker respawn drill", move || {
        let engine = ServeEngine::new(
            small_module(),
            &ServeOptions {
                workers: 1,
                watchdog_interval: Duration::from_millis(1),
                ..Default::default()
            },
        )
        .unwrap();
        let req = engine.make_request();
        req.fill(&image(1)).unwrap();
        engine.submit(&req).unwrap();
        req.wait().unwrap();

        arm(BATCHER_WAKEUP, Trigger::Nth(1), FaultMode::Panic);
        req.fill(&image(1)).unwrap();
        engine.submit(&req).unwrap();
        match req.wait() {
            Err(NeoError::WorkerLost { reason, .. }) => {
                assert!(
                    reason.contains("injected panic"),
                    "seed {seed}: panic reason lost: {reason}"
                );
            }
            other => panic!("seed {seed}: expected WorkerLost, got {other:?}"),
        }
        disarm_all();

        recover(&engine);
        let rep = engine.report();
        assert!(rep.respawns >= 1, "seed {seed}: watchdog never respawned: {rep}");
        assert_eq!(engine.health(), EngineHealth::Ready);
        engine.shutdown();
        assert_eq!(engine.health(), EngineHealth::Stopped);
    });
}

/// A worker that panics at spawn (before serving anything) is detected
/// and replaced until the engine holds a live worker.
#[test]
fn worker_spawn_faults_converge_to_a_live_worker() {
    let _guard = serial();
    let seed = chaos_seed();
    with_timeout(60, "spawn fault drill", move || {
        // Armed before construction: the engine's very first worker dies
        // on arrival and service must still converge.
        arm(WORKER_SPAWN, Trigger::Nth(1), FaultMode::Panic);
        let engine = ServeEngine::new(
            small_module(),
            &ServeOptions {
                workers: 1,
                watchdog_interval: Duration::from_millis(1),
                ..Default::default()
            },
        )
        .unwrap();
        recover(&engine);
        disarm_all();
        let rep = engine.report();
        assert!(
            rep.respawns >= 1,
            "seed {seed}: the dead-on-arrival worker was never replaced: {rep}"
        );
        assert_eq!(engine.health(), EngineHealth::Ready);
        engine.shutdown();
    });
}

/// A batch exceeding the stall budget gets its worker abandoned: in-flight
/// requests fail with `WorkerLost`, the stall is counted, and a fresh
/// worker takes over.
#[test]
fn stalled_worker_is_abandoned_and_replaced() {
    let _guard = serial();
    let seed = chaos_seed();
    with_timeout(120, "stall drill", move || {
        // A heavier module so batches reliably outlive a 1 microsecond
        // stall budget across several 1 ms watchdog ticks.
        let mut b = GraphBuilder::new(11);
        let x = b.input([2, 16, 32, 32]);
        let c1 = b.conv_bn_relu(x, 32, 3, 1, 1);
        let c2 = b.conv_bn_relu(c1, 32, 3, 1, 1);
        let g = b.finish(vec![c2]);
        let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Sequential);
        let m = Arc::new(compile(&g, &CpuTarget::host(), &opts).unwrap());
        let engine = ServeEngine::new(
            m,
            &ServeOptions {
                workers: 1,
                stall_budget: Some(Duration::from_micros(1)),
                watchdog_interval: Duration::from_millis(1),
                ..Default::default()
            },
        )
        .unwrap();
        let req = engine.make_request();
        let img = Tensor::random([1, 16, 32, 32], Layout::Nchw, 13, 1.0).unwrap();
        let mut spins = 0u32;
        loop {
            req.fill(&img).unwrap();
            engine.submit(&req).unwrap();
            match req.wait() {
                Ok(()) | Err(NeoError::WorkerLost { .. }) => {}
                Err(e) => panic!("seed {seed}: unexpected stall-drill outcome {e}"),
            }
            // The watchdog fails the stalled batch before it respawns the
            // worker, so a waiter may see the stall counted and the respawn
            // not yet: keep polling until both are.
            let rep = engine.report();
            if rep.stalls >= 1 && rep.respawns >= 1 {
                break;
            }
            spins += 1;
            assert!(spins < 10_000, "seed {seed}: watchdog never replaced a stalled worker: {rep}");
        }
        let rep = engine.report();
        assert!(rep.stalls >= 1 && rep.respawns >= 1, "seed {seed}: {rep}");
        engine.shutdown_within(Duration::from_secs(5));
        assert_eq!(engine.health(), EngineHealth::Stopped);
    });
}

/// Clock-skew injection expires only deadline-carrying requests:
/// deadline-free traffic is immune by construction.
#[test]
fn deadline_skew_expires_only_deadline_requests() {
    let _guard = serial();
    let _seed = chaos_seed();
    let engine = ServeEngine::new(
        small_module(),
        &ServeOptions { workers: 1, ..Default::default() },
    )
    .unwrap();
    arm(DEADLINE_SKEW, Trigger::Always, FaultMode::Error);

    // A deadline an hour out — only the injected skew can expire it.
    let doomed = engine.make_request();
    doomed.fill_with_deadline(&image(2), Duration::from_secs(3600)).unwrap();
    engine.submit(&doomed).unwrap();
    assert!(matches!(doomed.wait(), Err(NeoError::DeadlineExceeded)));

    // Deadline-free requests sail through even with the skew armed.
    let clean = engine.make_request();
    clean.fill(&image(3)).unwrap();
    engine.submit(&clean).unwrap();
    clean.wait().unwrap();
    disarm_all();

    let rep = engine.report();
    assert_eq!(rep.deadline_exceeded, 1);
    assert_eq!(rep.completed, 1);
    engine.shutdown();
}

/// One of two workers dies mid-batch and every respawn panics at spawn:
/// the surviving worker drains the one queue, so every later request
/// completes and the engine still drains to `Stopped`.
#[test]
fn engine_keeps_serving_after_a_worker_is_lost_for_good() {
    let _guard = serial();
    let seed = chaos_seed();
    with_timeout(120, "lost-worker drill", move || {
        let engine = ServeEngine::new(
            small_module(),
            &ServeOptions {
                workers: 2,
                watchdog_interval: Duration::from_millis(10),
                ..Default::default()
            },
        )
        .unwrap();
        let warm = engine.make_request();
        warm.fill(&image(1)).unwrap();
        for _ in 0..4 {
            engine.submit(&warm).unwrap();
            warm.wait().unwrap();
        }

        // The next batch kills the worker that formed it, and no
        // replacement ever gets past its spawn failpoint.
        arm(WORKER_SPAWN, Trigger::Always, FaultMode::Panic);
        arm(BATCHER_WAKEUP, Trigger::Nth(1), FaultMode::Panic);
        engine.submit(&warm).unwrap();
        match warm.wait() {
            Err(NeoError::WorkerLost { .. }) => {}
            other => panic!("seed {seed}: expected the batch to lose its worker, got {other:?}"),
        }

        // Submit everything first, then wait.
        const M: usize = 32;
        let reqs: Vec<_> = (0..M)
            .map(|i| {
                let req = engine.make_request();
                req.fill(&image(1000 + i as u64)).unwrap();
                engine.submit(&req).unwrap();
                req
            })
            .collect();
        for (i, req) in reqs.iter().enumerate() {
            req.wait().unwrap_or_else(|e| {
                panic!("seed {seed}: request {i} after the worker loss failed: {e}")
            });
        }
        // The watchdog ticks every 10 ms, possibly after the survivor has
        // served all M: wait for its first attempt to replace the dead worker.
        let t0 = Instant::now();
        while engine.report().respawns == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "seed {seed}: the watchdog never tried to respawn the dead worker"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let rep = engine.report();
        println!("lost-worker drill report: {rep}");
        assert_eq!(rep.completed, 4 + M as u64, "seed {seed}: {rep}");

        disarm_all();
        engine.shutdown_within(Duration::from_secs(10));
        assert_eq!(engine.health(), EngineHealth::Stopped, "seed {seed}");
    });
}
