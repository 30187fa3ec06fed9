//! Fault-injection harness: proves that injected failures at every named
//! failpoint surface as `Err` from `Module::run` — never an abort, a
//! deadlock, or a poisoned pool — and that the same module completes a
//! subsequent clean run.
//!
//! Requires `--features fault-injection`; without it this file is empty.
#![cfg(feature = "fault-injection")]

use std::sync::{Mutex, MutexGuard};

use neocpu::faults::{
    self, arm, disarm_all, FaultMode, Trigger, DB_LOAD, KERNEL_ENTRY, LAYOUT_TRANSFORM,
    POOL_WORKER, TENSOR_ALLOC,
};
use neocpu::{compile, load_scheme_db, CompileOptions, CpuTarget, Module, NeoError, OptLevel};
use neocpu_graph::GraphBuilder;
use neocpu_tensor::{Layout, Tensor};

/// The failpoint registry is process-global; tests that arm it must not
/// interleave. Every test takes this guard first and starts disarmed.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let g = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    disarm_all();
    g
}

/// A small O2 module (conv + transforms) and a matching input; exercises
/// the kernel-entry, tensor-alloc, and layout-transform failpoints.
fn module(threads: usize) -> (Module, Tensor) {
    let mut b = GraphBuilder::new(3);
    let x = b.input([1, 8, 12, 12]);
    let c = b.conv_bn_relu(x, 16, 3, 1, 1);
    let g = b.finish(vec![c]);
    let m = compile(
        &g,
        &CpuTarget::host(),
        &CompileOptions::level(OptLevel::O2).with_threads(threads),
    )
    .unwrap();
    let input = Tensor::random([1, 8, 12, 12], Layout::Nchw, 1, 1.0).unwrap();
    (m, input)
}

#[test]
fn injected_error_at_each_failpoint_surfaces_and_recovers() {
    let _guard = serial();
    let (m, input) = module(1);
    for point in [KERNEL_ENTRY, TENSOR_ALLOC, LAYOUT_TRANSFORM] {
        arm(point, Trigger::Always, FaultMode::Error);
        let err = m.run(std::slice::from_ref(&input)).unwrap_err();
        assert!(
            matches!(err.root_cause(), NeoError::Fault { failpoint } if *failpoint == point),
            "{point}: unexpected error {err}"
        );
        assert!(faults::hits(point) >= 1);
        disarm_all();
        // The same module completes a clean run afterwards.
        m.run(std::slice::from_ref(&input)).unwrap();
    }
}

#[test]
fn injected_panic_at_each_failpoint_is_contained() {
    let _guard = serial();
    let (m, input) = module(1);
    for point in [KERNEL_ENTRY, TENSOR_ALLOC, LAYOUT_TRANSFORM] {
        arm(point, Trigger::Always, FaultMode::Panic);
        let err = m.run(std::slice::from_ref(&input)).unwrap_err();
        match &err {
            NeoError::Panicked { message, .. } => {
                assert!(
                    message.contains("injected panic"),
                    "{point}: panic message lost: {message}"
                );
            }
            other => panic!("{point}: expected Panicked, got {other}"),
        }
        disarm_all();
        m.run(std::slice::from_ref(&input)).unwrap();
    }
}

#[test]
fn pool_worker_panic_is_contained_and_pool_stays_usable() {
    let _guard = serial();
    let (m, input) = module(4);
    // The pool-worker failpoint always manifests as a panic inside the
    // worker body; the pool must contain it and the executor must convert
    // the re-raised panic into a typed error.
    arm(POOL_WORKER, Trigger::Always, FaultMode::Panic);
    let err = m.run(std::slice::from_ref(&input)).unwrap_err();
    assert!(
        matches!(&err, NeoError::Panicked { message, .. } if message.contains("injected panic")),
        "unexpected error: {err}"
    );
    disarm_all();
    // Same module, same pool: repeated clean runs succeed (no deadlock, no
    // poisoned workers), and results are deterministic.
    let a = m.run(std::slice::from_ref(&input)).unwrap();
    let b = m.run(std::slice::from_ref(&input)).unwrap();
    assert_eq!(a[0].data(), b[0].data());
}

#[test]
fn serve_engine_contains_worker_fault_and_keeps_serving() {
    use std::sync::Arc;

    use neocpu::{ServeEngine, ServeOptions};

    let _guard = serial();
    // A batch-2 module on the custom threaded pool, so the pool-worker
    // failpoint sits inside the serving path's execution.
    let mut b = GraphBuilder::new(7);
    let x = b.input([2, 8, 12, 12]);
    let c = b.conv_bn_relu(x, 16, 3, 1, 1);
    let g = b.finish(vec![c]);
    let m = Arc::new(
        compile(
            &g,
            &CpuTarget::host(),
            &CompileOptions::level(OptLevel::O2).with_threads(2),
        )
        .unwrap(),
    );
    let engine =
        ServeEngine::new(m, &ServeOptions { workers: 1, ..Default::default() }).unwrap();
    let img = Tensor::random([1, 8, 12, 12], Layout::Nchw, 1, 1.0).unwrap();
    let req = engine.make_request();
    req.fill(&img).unwrap();

    // A clean cycle first, then the failpoint kills exactly the next
    // in-flight request (first hit only).
    engine.submit(&req).unwrap();
    req.wait().unwrap();

    arm(POOL_WORKER, Trigger::Nth(1), FaultMode::Panic);
    engine.submit(&req).unwrap();
    let err = req.wait().unwrap_err();
    assert!(
        matches!(&err, NeoError::Panicked { message, .. } if message.contains("injected panic")),
        "faulted request should fail with the contained panic, got {err}"
    );
    disarm_all();

    // The engine, its worker, and its context keep serving: the failure
    // degraded one request, not the process or the pool.
    for _ in 0..3 {
        engine.submit(&req).unwrap();
        req.wait().unwrap();
        req.with_outputs(|outs| assert!(outs[0].data().iter().all(|v| v.is_finite())))
            .unwrap();
    }
    let r = engine.report();
    assert_eq!(r.completed, 4, "clean cycles before/after the fault: {r}");
    assert_eq!(r.failed, 1, "exactly the faulted request degrades: {r}");
    engine.shutdown();
}

#[test]
fn db_load_failpoint_blocks_the_loader() {
    let _guard = serial();
    let dir = std::env::temp_dir().join("neocpu-fault-dbload");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("schemes.tsv");
    // Write a small valid database through the public API.
    let mut db = neocpu_search::SchemeDatabase::new();
    db.replace(
        "skylake-avx512",
        &neocpu_kernels::conv::Conv2dParams::square(8, 16, 12, 3, 1, 1),
        vec![neocpu_search::RankedScheme {
            schedule: neocpu_kernels::conv::ConvSchedule {
                ic_bn: 8,
                oc_bn: 16,
                reg_n: 8,
                ..Default::default()
            },
            time: 1e-4,
        }],
    );
    db.save(&path).unwrap();

    arm(DB_LOAD, Trigger::Always, FaultMode::Error);
    assert!(matches!(
        load_scheme_db(&path),
        Err(NeoError::Fault { failpoint: DB_LOAD })
    ));
    disarm_all();
    let (loaded, problems) = load_scheme_db(&path).unwrap();
    assert!(problems.is_empty(), "{problems:?}");
    assert_eq!(loaded.len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn nth_trigger_fires_deterministically_across_runs() {
    let _guard = serial();
    let (m, input) = module(1);
    // The module has exactly one compute kernel (the fused conv), so the
    // kernel-entry failpoint is hit once per run: Nth(2) spares the first
    // run, fails the second, and stays silent afterwards.
    arm(KERNEL_ENTRY, Trigger::Nth(2), FaultMode::Error);
    m.run(std::slice::from_ref(&input)).unwrap();
    let err = m.run(std::slice::from_ref(&input)).unwrap_err();
    assert!(matches!(err.root_cause(), NeoError::Fault { failpoint: KERNEL_ENTRY }));
    m.run(std::slice::from_ref(&input)).unwrap();
    assert_eq!(faults::hits(KERNEL_ENTRY), 3);
    disarm_all();
}
