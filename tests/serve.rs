//! Integration tests for the batched serving engine: result fidelity
//! against directly-run modules, batch coalescing under concurrent load,
//! bounded-queue backpressure, request lifecycle (deadlines, shedding,
//! health), and drain-on-shutdown semantics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use neocpu::{
    compile, CompileOptions, CpuTarget, EngineHealth, Module, NeoError, OptLevel, PoolChoice,
    ServeEngine, ServeOptions, ShedPolicy,
};
use neocpu_graph::{Graph, GraphBuilder};
use neocpu_models::{build, ModelKind, ModelScale};
use neocpu_tensor::{Layout, Tensor};

/// Runs `f` on a helper thread and fails the test if it does not finish
/// within `secs` — the stress tests below must never deadlock silently.
fn with_timeout<F: FnOnce() + Send + 'static>(secs: u64, name: &str, f: F) {
    let (tx, rx) = std::sync::mpsc::channel();
    let t = std::thread::spawn(move || {
        f();
        tx.send(()).ok();
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        // Join also propagates a panic from the test body.
        Ok(()) | Err(RecvTimeoutError::Disconnected) => t.join().unwrap(),
        Err(RecvTimeoutError::Timeout) => {
            panic!("{name} did not finish within {secs}s: likely deadlock")
        }
    }
}

/// A small conv tower at batch `b` (same weights for every batch size:
/// the builder seed fixes them).
fn tower(batch: usize) -> Graph {
    let mut b = GraphBuilder::new(17);
    let x = b.input([batch, 4, 12, 12]);
    let c1 = b.conv_bn_relu(x, 8, 3, 1, 1);
    let c2 = b.conv_bn_relu(c1, 8, 3, 2, 1);
    let p = b.max_pool(c2, 2, 2, 0);
    let f = b.flatten(p);
    let d = b.dense(f, 6);
    let s = b.softmax(d);
    b.finish(vec![s])
}

fn module(g: &Graph) -> Arc<Module> {
    let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Sequential);
    Arc::new(compile(g, &CpuTarget::host(), &opts).unwrap())
}

/// Every served row must match the same image pushed through a batch-1
/// compiled module — the batcher's row slicing must not mix requests up.
#[test]
fn served_rows_match_batch1_module() {
    let serve_mod = module(&tower(4));
    let direct_mod = module(&tower(1));
    let engine = ServeEngine::new(
        Arc::clone(&serve_mod),
        &ServeOptions { workers: 2, ..Default::default() },
    )
    .unwrap();

    for seed in 0..6u64 {
        let img = Tensor::random([1, 4, 12, 12], Layout::Nchw, seed, 1.0).unwrap();
        let served = engine.infer(&img).unwrap();
        let direct = direct_mod.run(std::slice::from_ref(&img)).unwrap();
        assert_eq!(served.len(), direct.len());
        assert!(
            served[0].approx_eq(&direct[0], 1e-5),
            "seed {seed}: served row diverges from the batch-1 module by {}",
            served[0].max_abs_diff(&direct[0])
        );
    }
    engine.shutdown();
}

/// Concurrent clients must all complete, and the dynamic batcher must
/// coalesce them. One worker and a batch timeout far above the run time
/// make that deterministic: four clients with one request in flight each
/// can only ever form batches of four, so every batch is full.
#[test]
fn concurrent_clients_complete_and_batches_coalesce() {
    let m = module(&tower(4));
    let engine = ServeEngine::new(
        m,
        &ServeOptions { workers: 1, batch_timeout: Duration::from_secs(10), ..Default::default() },
    )
    .unwrap();

    let clients = 4usize;
    let per_client = 25usize;
    let ok = AtomicU64::new(0);
    std::thread::scope(|s| {
        for c in 0..clients {
            let (engine, ok) = (&engine, &ok);
            s.spawn(move || {
                let req = engine.make_request();
                let img =
                    Tensor::random([1, 4, 12, 12], Layout::Nchw, c as u64, 1.0).unwrap();
                req.fill(&img).unwrap();
                for _ in 0..per_client {
                    engine.submit(&req).unwrap();
                    if req.wait().is_ok() {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(ok.load(Ordering::Relaxed), (clients * per_client) as u64);

    let r = engine.report();
    assert_eq!(r.completed, (clients * per_client) as u64);
    assert_eq!(r.failed, 0);
    assert_eq!(r.batches, per_client as u64, "every batch must be full: {r}");
    assert_eq!(r.multi_batches, r.batches, "{r}");
    assert_eq!(r.max_batch_formed, engine.module_batch());
    assert!(r.p50_ms > 0.0 && r.p99_ms >= r.p50_ms);
    engine.shutdown();
}

/// A lone request is not held for company while a sibling worker idles:
/// with a 10 s batch timeout it still resolves at once, as a one-row batch.
#[test]
fn lone_request_skips_the_batch_timeout_while_a_sibling_idles() {
    with_timeout(30, "lone request", || {
        let engine = ServeEngine::new(
            module(&tower(4)),
            &ServeOptions {
                workers: 2,
                batch_timeout: Duration::from_secs(10),
                ..Default::default()
            },
        )
        .unwrap();
        let img = Tensor::random([1, 4, 12, 12], Layout::Nchw, 5, 1.0).unwrap();
        let t0 = std::time::Instant::now();
        engine.infer(&img).unwrap();
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "lone request took {took:?}");
        let r = engine.report();
        assert_eq!((r.batches, r.max_batch_formed), (1, 1), "{r}");
        engine.shutdown();
    });
}

/// A tiny bounded queue must apply backpressure (submit blocks instead of
/// erroring or dropping) while every request still completes.
#[test]
fn bounded_queue_applies_backpressure_without_loss() {
    let m = module(&tower(2));
    let engine = ServeEngine::new(
        m,
        &ServeOptions { workers: 1, queue_cap: 2, ..Default::default() },
    )
    .unwrap();

    let clients = 6usize;
    let per_client = 10usize;
    let ok = AtomicU64::new(0);
    std::thread::scope(|s| {
        for c in 0..clients {
            let (engine, ok) = (&engine, &ok);
            s.spawn(move || {
                let req = engine.make_request();
                let img =
                    Tensor::random([1, 4, 12, 12], Layout::Nchw, c as u64, 1.0).unwrap();
                req.fill(&img).unwrap();
                for _ in 0..per_client {
                    engine.submit(&req).unwrap();
                    req.wait().unwrap();
                    ok.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(ok.load(Ordering::Relaxed), (clients * per_client) as u64);
    let r = engine.report();
    // The high-water mark proves the bound held: depth never exceeded cap.
    assert!(
        r.queue_depth_hwm <= 2,
        "queue depth {} exceeded the configured cap 2",
        r.queue_depth_hwm
    );
    assert_eq!(r.completed, (clients * per_client) as u64);
    engine.shutdown();
}

/// Shutdown drains: requests queued before shutdown are answered, and a
/// submit after shutdown fails with a typed serve error while leaving the
/// slot reusable.
#[test]
fn shutdown_drains_queued_requests() {
    let m = module(&tower(2));
    let engine =
        ServeEngine::new(m, &ServeOptions { workers: 1, ..Default::default() }).unwrap();

    let img = Tensor::random([1, 4, 12, 12], Layout::Nchw, 1, 1.0).unwrap();
    let reqs: Vec<_> = (0..5)
        .map(|_| {
            let r = engine.make_request();
            r.fill(&img).unwrap();
            engine.submit(&r).unwrap();
            r
        })
        .collect();
    engine.shutdown();
    for (i, r) in reqs.iter().enumerate() {
        assert!(r.wait().is_ok(), "request {i} was dropped by shutdown instead of drained");
    }

    let late = engine.make_request();
    late.fill(&img).unwrap();
    match engine.submit(&late) {
        Err(NeoError::Shutdown) => {}
        other => panic!("post-shutdown submit should fail with NeoError::Shutdown, got {other:?}"),
    }
}

/// `try_submit` under the default reject-newest policy: a saturated
/// 1-deep queue answers with a typed `Busy` instead of blocking, and every
/// admitted request still completes.
#[test]
fn try_submit_rejects_newest_with_typed_busy() {
    let m = module(&tower(2));
    let engine = ServeEngine::new(
        m,
        &ServeOptions {
            workers: 1,
            queue_cap: 1,
            batch_timeout: Duration::ZERO,
            ..Default::default()
        },
    )
    .unwrap();
    let img = Tensor::random([1, 4, 12, 12], Layout::Nchw, 7, 1.0).unwrap();
    let reqs: Vec<_> = (0..64)
        .map(|_| {
            let r = engine.make_request();
            r.fill(&img).unwrap();
            r
        })
        .collect();
    let mut admitted = Vec::new();
    let mut busy = 0usize;
    for r in &reqs {
        match engine.try_submit(r) {
            Ok(()) => admitted.push(Arc::clone(r)),
            Err(NeoError::Busy { queue_depth }) => {
                assert_eq!(queue_depth, 1, "Busy must report the observed depth");
                busy += 1;
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    for r in &admitted {
        r.wait().unwrap();
    }
    assert!(busy > 0, "64 sprayed try_submits against a 1-deep queue never saw Busy");
    let rep = engine.report();
    assert_eq!(rep.completed, admitted.len() as u64);
    // Rejected-newest requests were never admitted, so they are not `shed`.
    assert_eq!(rep.shed, 0);
    engine.shutdown();
}

/// `try_submit` under shed-oldest: the submitter is never turned away —
/// instead the oldest queued request resolves with `Busy` — and the
/// accounting closes: every request is completed or shed, exactly once.
#[test]
fn try_submit_sheds_oldest_when_configured() {
    let m = module(&tower(2));
    let engine = ServeEngine::new(
        m,
        &ServeOptions {
            workers: 1,
            queue_cap: 1,
            batch_timeout: Duration::ZERO,
            shed_policy: ShedPolicy::ShedOldest,
            ..Default::default()
        },
    )
    .unwrap();
    let img = Tensor::random([1, 4, 12, 12], Layout::Nchw, 8, 1.0).unwrap();
    let reqs: Vec<_> = (0..64)
        .map(|_| {
            let r = engine.make_request();
            r.fill(&img).unwrap();
            engine.try_submit(&r).expect("shed-oldest always admits the newcomer");
            r
        })
        .collect();
    let mut done = 0u64;
    let mut shed = 0u64;
    for r in &reqs {
        match r.wait() {
            Ok(()) => done += 1,
            Err(NeoError::Busy { .. }) => shed += 1,
            Err(e) => panic!("unexpected resolution: {e}"),
        }
    }
    assert_eq!(done + shed, 64, "every request resolves exactly once");
    assert!(shed > 0, "a 1-deep queue under a submit spray must shed");
    let rep = engine.report();
    assert_eq!(rep.completed, done);
    assert_eq!(rep.shed, shed);
    engine.shutdown();
}

/// A deadline armed via `fill_with_deadline` is honored end to end: the
/// expired request resolves with `DeadlineExceeded` and never executes,
/// whether the batcher or `wait` notices first.
#[test]
fn queued_deadline_requests_expire_with_typed_error() {
    let m = module(&tower(2));
    let engine = ServeEngine::new(
        m,
        &ServeOptions { workers: 1, queue_cap: 16, ..Default::default() },
    )
    .unwrap();
    let img = Tensor::random([1, 4, 12, 12], Layout::Nchw, 9, 1.0).unwrap();
    // Keep the single worker busy so the deadline request sits in queue.
    let backlog: Vec<_> = (0..8)
        .map(|_| {
            let r = engine.make_request();
            r.fill(&img).unwrap();
            engine.submit(&r).unwrap();
            r
        })
        .collect();
    let doomed = engine.make_request();
    doomed.fill_with_deadline(&img, Duration::from_nanos(1)).unwrap();
    engine.submit(&doomed).unwrap();
    match doomed.wait() {
        Err(NeoError::DeadlineExceeded) => {}
        other => panic!("expired request must resolve DeadlineExceeded, got {other:?}"),
    }
    for r in &backlog {
        r.wait().unwrap();
    }
    let rep = engine.report();
    assert_eq!(rep.deadline_exceeded, 1);
    assert_eq!(rep.completed, 8, "the expired request must never execute");
    engine.shutdown();
}

/// `shutdown_within(0)` closes admissions immediately: in-flight work may
/// finish, everything still queued fails with a typed `Shutdown`, and the
/// report's `cancelled` counter matches what clients observed.
#[test]
fn shutdown_within_zero_budget_fails_queued_remainder() {
    let m = module(&tower(2));
    let engine = ServeEngine::new(
        m,
        &ServeOptions { workers: 1, queue_cap: 64, ..Default::default() },
    )
    .unwrap();
    let img = Tensor::random([1, 4, 12, 12], Layout::Nchw, 11, 1.0).unwrap();
    let reqs: Vec<_> = (0..16)
        .map(|_| {
            let r = engine.make_request();
            r.fill(&img).unwrap();
            engine.submit(&r).unwrap();
            r
        })
        .collect();
    engine.shutdown_within(Duration::ZERO);
    assert_eq!(engine.health(), EngineHealth::Stopped);
    let (mut done, mut cancelled) = (0u64, 0u64);
    for r in &reqs {
        match r.wait() {
            Ok(()) => done += 1,
            Err(NeoError::Shutdown) => cancelled += 1,
            Err(e) => panic!("unexpected resolution under budgeted drain: {e}"),
        }
    }
    assert_eq!(done + cancelled, 16, "every request resolves exactly once");
    assert!(cancelled > 0, "a zero drain budget should cancel queued requests");
    let rep = engine.report();
    assert_eq!(rep.cancelled, cancelled);
    assert_eq!(rep.completed, done);
    // Admissions stay closed afterwards.
    let late = engine.make_request();
    late.fill(&img).unwrap();
    assert!(matches!(engine.try_submit(&late), Err(NeoError::Shutdown)));
}

/// The health state machine is observable: Ready while serving, Draining
/// during a budgeted shutdown with queued work, Stopped at the end.
#[test]
fn health_walks_ready_draining_stopped() {
    with_timeout(60, "health lifecycle", || {
        let m = module(&tower(2));
        let engine = ServeEngine::new(
            m,
            &ServeOptions { workers: 1, queue_cap: 64, ..Default::default() },
        )
        .unwrap();
        assert_eq!(engine.health(), EngineHealth::Ready);
        let img = Tensor::random([1, 4, 12, 12], Layout::Nchw, 12, 1.0).unwrap();
        for _ in 0..24 {
            let r = engine.make_request();
            r.fill(&img).unwrap();
            engine.submit(&r).unwrap();
        }
        std::thread::scope(|s| {
            s.spawn(|| engine.shutdown_within(Duration::from_secs(30)));
            let mut saw_draining = false;
            // Poll until the drain completes; the 24-deep backlog keeps the
            // Draining window many batches wide.
            loop {
                match engine.health() {
                    EngineHealth::Draining => saw_draining = true,
                    EngineHealth::Stopped => break,
                    _ => {}
                }
                std::thread::yield_now();
            }
            assert!(saw_draining, "Draining was never observable during the drain");
        });
        assert_eq!(engine.health(), EngineHealth::Stopped);
    });
}

/// Satellite stress: N submitter threads race `shutdown()`. Every submit
/// and wait must resolve — a result or a typed error — and the whole thing
/// must finish well inside the deadlock guard.
#[test]
fn racing_shutdown_resolves_every_request_without_deadlock() {
    with_timeout(120, "racing shutdown stress", || {
        let m = module(&tower(4));
        let engine = Arc::new(
            ServeEngine::new(
                m,
                &ServeOptions { workers: 2, queue_cap: 8, ..Default::default() },
            )
            .unwrap(),
        );
        let clients = 4usize;
        let per_client = 200usize;
        let resolved = AtomicU64::new(0);
        std::thread::scope(|s| {
            for c in 0..clients {
                let engine = Arc::clone(&engine);
                let resolved = &resolved;
                s.spawn(move || {
                    let req = engine.make_request();
                    let img =
                        Tensor::random([1, 4, 12, 12], Layout::Nchw, c as u64, 1.0).unwrap();
                    req.fill(&img).unwrap();
                    for i in 0..per_client {
                        let admitted = if i % 2 == 0 {
                            engine.submit(&req)
                        } else {
                            engine.try_submit(&req)
                        };
                        let outcome = match admitted {
                            Ok(()) => req.wait(),
                            Err(e) => Err(e),
                        };
                        match outcome {
                            Ok(())
                            | Err(NeoError::Shutdown)
                            | Err(NeoError::Busy { .. })
                            | Err(NeoError::WorkerLost { .. }) => {
                                resolved.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("untyped outcome under shutdown race: {e}"),
                        }
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(20));
            engine.shutdown();
        });
        assert_eq!(
            resolved.load(Ordering::Relaxed),
            (clients * per_client) as u64,
            "every submit/wait must resolve exactly once"
        );
        assert_eq!(engine.health(), EngineHealth::Stopped);
    });
}

/// The engine serves real zoo models end to end (tiny scale, batch 3).
#[test]
fn serves_a_zoo_model() {
    let kind = ModelKind::ResNet18;
    let scale = ModelScale::tiny(kind).with_batch(3);
    let g = build(kind, scale, 42);
    let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Sequential);
    let m = Arc::new(compile(&g, &CpuTarget::host(), &opts).unwrap());
    let engine =
        ServeEngine::new(m, &ServeOptions { workers: 2, ..Default::default() }).unwrap();
    let img =
        Tensor::random([1, 3, scale.input, scale.input], Layout::Nchw, 3, 1.0).unwrap();
    let outs = engine.infer(&img).unwrap();
    assert_eq!(outs[0].shape().dims(), &[1, scale.classes]);
    assert!(outs[0].data().iter().all(|v| v.is_finite()));
    engine.shutdown();
}
