//! Asserts the arena executor's headline property: a **warm** inference
//! performs zero heap allocations.
//!
//! A counting global allocator wraps the system allocator; after warming a
//! module's pooled context, repeated `Module::run_with` calls must not
//! change the allocation counter at all. `Module::run` is also measured —
//! it clones the outputs out of the arena, so it is allowed exactly the
//! output-tensor allocations and nothing more.
//!
//! The test is its own integration-test binary so the `#[global_allocator]`
//! hook cannot interfere with (or be perturbed by) other tests, and it is
//! built with `harness = false` (see the root `Cargo.toml`): the counter is
//! process-global, so nothing else may allocate inside a measured window.
//! Under libtest a neighbouring test's set-up does — and so does libtest's
//! own main thread, which spawns the next queued test thread (ten
//! allocations) whenever a test finishes, even when the tests serialize
//! themselves on a lock. [`main`] below runs the tests one after another on
//! the main thread instead. Counting per thread would not do: the serve,
//! shard and net tests allocate on worker threads they do not own.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use neocpu::{compile, CompileOptions, CpuTarget, OptLevel, PoolChoice};
use neocpu_graph::GraphBuilder;
use neocpu_tensor::{DType, Layout, Tensor};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Every test of this file, in the order [`main`] runs them.
const TESTS: &[(&str, fn())] = &[
    ("warm_run_with_performs_zero_allocations", warm_run_with_performs_zero_allocations),
    ("warm_depthwise_run_performs_zero_allocations", warm_depthwise_run_performs_zero_allocations),
    ("warm_quantized_run_performs_zero_allocations", warm_quantized_run_performs_zero_allocations),
    ("warm_pooled_run_performs_zero_allocations", warm_pooled_run_performs_zero_allocations),
    ("warm_serve_cycle_performs_zero_allocations", warm_serve_cycle_performs_zero_allocations),
    ("latency_recording_never_allocates", latency_recording_never_allocates),
    (
        "warm_sharded_serve_cycle_performs_zero_allocations",
        warm_sharded_serve_cycle_performs_zero_allocations,
    ),
    ("warm_net_serve_path_performs_zero_allocations", warm_net_serve_path_performs_zero_allocations),
    (
        "warm_partial_batches_perform_zero_allocations",
        warm_partial_batches_perform_zero_allocations,
    ),
    (
        "pooled_run_allocates_only_the_returned_outputs",
        pooled_run_allocates_only_the_returned_outputs,
    ),
];

/// A sequential stand-in for the libtest harness: runs the tests whose name
/// contains the first non-flag argument (all of them without one), reports
/// each like libtest does and exits non-zero if any panicked. Flags such as
/// `--test-threads` are accepted and ignored.
fn main() {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-')).unwrap_or_default();
    let selected: Vec<_> = TESTS.iter().filter(|(name, _)| name.contains(&filter)).collect();
    println!("\nrunning {} tests (sequentially)", selected.len());
    let mut failed = 0;
    for (name, test) in &selected {
        let ok = std::panic::catch_unwind(test).is_ok();
        println!("test {name} ... {}", if ok { "ok" } else { "FAILED" });
        failed += usize::from(!ok);
    }
    let verdict = if failed == 0 { "ok" } else { "FAILED" };
    println!("\ntest result: {verdict}. {} passed; {failed} failed\n", selected.len() - failed);
    std::process::exit(i32::from(failed != 0));
}

/// A ResNet-style tower exercising every steady-state op kind the planner
/// handles in place or via the arena: padded scheduled convs (planned
/// scratch), batch-norm folding, in-place Relu, residual Add, pooling,
/// flatten aliasing, dense and softmax.
fn residual_net() -> neocpu_graph::Graph {
    let mut b = GraphBuilder::new(5);
    let x = b.input([1, 8, 16, 16]);
    let c0 = b.conv2d(x, 8, 1, 1, 0);
    let c1 = b.conv_bn_relu(c0, 8, 3, 1, 1);
    let c2 = b.conv2d_opts(c1, 8, 3, 1, 1, false);
    let a = b.add(c2, c0);
    let r = b.relu(a);
    let p = b.max_pool(r, 2, 2, 0);
    let f = b.flatten(p);
    let d = b.dense(f, 10);
    let s = b.softmax(d);
    b.finish(vec![s])
}

/// Allocations over ten `run_with` calls on a context three calls warm
/// (first runs may lazily initialize allocator internals). The context is
/// handed back so the caller can look at the last result.
fn warm_run_allocations(m: &neocpu::Module, input: &Tensor) -> (u64, neocpu::RunContext) {
    let mut ctx = m.make_context();
    for _ in 0..3 {
        m.run_with(&mut ctx, std::slice::from_ref(input)).unwrap();
    }
    let before = allocation_count();
    for _ in 0..10 {
        m.run_with(&mut ctx, std::slice::from_ref(input)).unwrap();
    }
    (allocation_count() - before, ctx)
}

fn warm_run_with_performs_zero_allocations() {
    let g = residual_net();
    // Single-threaded: worker pools hand out work through their own
    // queues; `Sequential` keeps the measurement about the executor.
    let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Sequential);
    let m = compile(&g, &CpuTarget::host(), &opts).unwrap();
    let input = Tensor::random([1, 8, 16, 16], Layout::Nchw, 3, 1.0).unwrap();

    let (delta, ctx) = warm_run_allocations(&m, &input);
    assert_eq!(delta, 0, "warm run_with allocated {delta} time(s); expected zero");

    // The context still holds a valid result after the measured loop.
    let out = ctx.output(0).unwrap();
    assert_eq!(out.shape().dims(), &[1, 10]);
    assert!(out.data().iter().all(|v| v.is_finite()));

    // The strip plan every conv job above walked is an iterator over the
    // dispatch table, not a list: cutting rows allocates nothing either.
    use neocpu_kernels::conv::{strip_plan, Dataflow};
    let before = allocation_count();
    let mut pixels = 0usize;
    for (oc_bn, reg_n) in [(16, 8), (8, 12), (4, 4)] {
        for width in 1..=64 {
            pixels += strip_plan(oc_bn, 16, Dataflow::OutputStationary, 3, reg_n, width, DType::F32)
                .sum::<usize>();
        }
    }
    assert_eq!(allocation_count() - before, 0, "planning a row allocated");
    assert_eq!(pixels, 3 * (1..=64).sum::<usize>());
}

fn warm_depthwise_run_performs_zero_allocations() {
    // A MobileNet-style separable tower: the depthwise template must take
    // its padded-input scratch from the planned arena, not the heap.
    let g = separable_net();
    let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Sequential);
    let m = compile(&g, &CpuTarget::host(), &opts).unwrap();
    assert!(m.memory_report().scratch_bytes > 0, "depthwise convs must reserve scratch");
    let input = Tensor::random([1, 8, 16, 16], Layout::Nchw, 31, 1.0).unwrap();

    let (delta, ctx) = warm_run_allocations(&m, &input);
    assert_eq!(delta, 0, "warm depthwise run allocated {delta} time(s); expected zero");

    let out = ctx.output(0).unwrap();
    assert_eq!(out.shape().dims(), &[1, 10]);
    assert!(out.data().iter().all(|v| v.is_finite()));
}

/// The separable tower of [`warm_depthwise_run_performs_zero_allocations`]:
/// padded depthwise convs between pointwise ones.
fn separable_net() -> neocpu_graph::Graph {
    let mut b = GraphBuilder::new(23);
    let x = b.input([1, 8, 16, 16]);
    let d1 = b.dw_conv_bn_relu(x, 3, 1, 1);
    let p1 = b.conv_bn_relu(d1, 16, 1, 1, 0);
    let d2 = b.dw_conv_bn_relu(p1, 3, 2, 1);
    let p2 = b.conv_bn_relu(d2, 16, 1, 1, 0);
    let gap = b.global_avg_pool(p2);
    let f = b.flatten(gap);
    let d = b.dense(f, 10);
    let s = b.softmax(d);
    b.finish(vec![s])
}

fn warm_pooled_run_performs_zero_allocations() {
    use std::sync::atomic::AtomicUsize;
    use neocpu_threadpool::{OmpLikePool, Parallelism};

    // The same property with real parallel regions: the pool hands each
    // worker its range of the operator loop without building the list of
    // ranges on the heap, so a conv + depthwise model on two threads is as
    // clean as on one.
    let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Custom).with_threads(2);
    let m = compile(&separable_net(), &CpuTarget::host(), &opts).unwrap();
    let input = Tensor::random([1, 8, 16, 16], Layout::Nchw, 31, 1.0).unwrap();

    let (delta, ctx) = warm_run_allocations(&m, &input);
    assert_eq!(delta, 0, "warm run on a 2-thread pool allocated {delta} time(s)");
    assert!(ctx.output(0).unwrap().data().iter().all(|v| v.is_finite()));

    // The omp-like baseline pool makes the same promise. Its caller can
    // drain whole regions before a freshly spawned worker has finished
    // starting up — which allocates, on the worker, whenever it gets to run
    // — so meet the worker inside one region before counting.
    let pool = OmpLikePool::new(2);
    let arrived = AtomicUsize::new(0);
    pool.run(2, &|_, _| {
        arrived.fetch_add(1, Ordering::SeqCst);
        while arrived.load(Ordering::SeqCst) < 2 {
            std::hint::spin_loop();
        }
    });
    let before = allocation_count();
    for _ in 0..100 {
        pool.run(64, &|_, range| {
            std::hint::black_box(range);
        });
    }
    let delta = allocation_count() - before;
    assert_eq!(delta, 0, "100 omp-like regions allocated {delta} time(s)");
}

fn warm_quantized_run_performs_zero_allocations() {
    use neocpu::{compile_quantized, QuantizeOptions};

    // A residual tower on the int8 path, on two threads: quantized convs
    // reinterpret their planned f32 scratch as the u8 padded-input buffer,
    // a conv with a folded Quantize stages its strips on the job's stack,
    // and the Quantize nodes left standalone convert arena views in pool
    // regions — none of it may touch the heap.
    let g = residual_net();
    let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Custom).with_threads(2);
    let (m, report) =
        compile_quantized(&g, &CpuTarget::host(), &opts, &QuantizeOptions::default()).unwrap();
    assert!(report.quantized >= 1, "no conv took the int8 path: {report:?}");
    assert!(report.folded >= 1 && !report.standalone.is_empty(), "{report:?}");
    assert!(!report.fell_back, "accuracy gate rejected the int8 module: {report:?}");
    let input = Tensor::random([1, 8, 16, 16], Layout::Nchw, 13, 1.0).unwrap();

    let (delta, ctx) = warm_run_allocations(&m, &input);
    assert_eq!(delta, 0, "warm quantized run allocated {delta} time(s); expected zero");

    let out = ctx.output(0).unwrap();
    assert_eq!(out.shape().dims(), &[1, 10]);
    assert!(out.data().iter().all(|v| v.is_finite()));
}

fn warm_serve_cycle_performs_zero_allocations() {
    use std::sync::Arc;
    use neocpu::{compile_quantized, QuantizeOptions, ServeEngine, ServeOptions};

    // The same tower compiled at batch 4 — the serving engine slices
    // per-request rows out of the batched plan — once in f32 and once
    // through the int8 pipeline (u8 activations, requantizing epilogues).
    let g = batch4_tower();
    let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Sequential);
    let f32_module = compile(&g, &CpuTarget::host(), &opts).unwrap();
    let (int8_module, report) =
        compile_quantized(&g, &CpuTarget::host(), &opts, &QuantizeOptions::default()).unwrap();
    assert!(report.quantized >= 1, "no conv took the int8 path: {report:?}");
    assert!(!report.fell_back, "accuracy gate rejected the int8 module: {report:?}");

    for (label, m) in [("f32", f32_module), ("int8", int8_module)] {
        let engine =
            ServeEngine::new(Arc::new(m), &ServeOptions { workers: 1, ..Default::default() })
                .unwrap();

        // Steady state: one pre-allocated slot, filled once, cycled forever.
        let req = engine.make_request();
        let img = Tensor::random([1, 8, 16, 16], Layout::Nchw, 9, 1.0).unwrap();
        req.fill(&img).unwrap();
        for _ in 0..3 {
            engine.submit(&req).unwrap();
            req.wait().unwrap();
        }

        let before = allocation_count();
        for _ in 0..10 {
            engine.submit(&req).unwrap();
            req.wait().unwrap();
        }
        let delta = allocation_count() - before;
        assert_eq!(
            delta, 0,
            "{label}: warm serve cycle allocated {delta} time(s); the fill → submit → wait \
             path must preserve the executor's zero-allocation contract"
        );

        // The lifecycle-hardened path must be just as clean: arming a
        // deadline and admitting through `try_submit` adds bookkeeping
        // (deadline compute, admission check, watchdog scan in the
        // background) but no heap traffic.
        let before = allocation_count();
        for _ in 0..10 {
            req.fill_with_deadline(&img, std::time::Duration::from_secs(60)).unwrap();
            engine.try_submit(&req).unwrap();
            req.wait().unwrap();
        }
        let delta = allocation_count() - before;
        assert_eq!(
            delta, 0,
            "{label}: warm deadline/try_submit cycle allocated {delta} time(s); the \
             hardened request lifecycle must preserve the zero-allocation contract"
        );

        req.with_outputs(|outs| {
            assert_eq!(outs[0].shape().dims(), &[1, 10]);
            assert!(outs[0].data().iter().all(|v| v.is_finite()));
        })
        .unwrap();
        engine.shutdown();
    }
}

fn latency_recording_never_allocates() {
    use std::sync::Arc;
    use neocpu::{ServeEngine, ServeOptions};

    // Every completion lands in the engine's fixed latency histogram:
    // recording must never allocate, however many requests complete.
    let mut b = GraphBuilder::new(11);
    let x = b.input([1, 8, 16, 16]);
    let c = b.conv_bn_relu(x, 8, 3, 1, 1);
    let g = b.finish(vec![c]);
    let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Sequential);
    let m = Arc::new(compile(&g, &CpuTarget::host(), &opts).unwrap());
    let rounds = 8usize;
    let engine = ServeEngine::new(m, &ServeOptions { workers: 1, ..Default::default() }).unwrap();

    let req = engine.make_request();
    let img = Tensor::random([1, 8, 16, 16], Layout::Nchw, 17, 1.0).unwrap();
    req.fill(&img).unwrap();
    for _ in 0..3 {
        engine.submit(&req).unwrap();
        req.wait().unwrap();
    }

    // 3 warm-up + 3×rounds measured completions.
    let before = allocation_count();
    for _ in 0..3 * rounds {
        engine.submit(&req).unwrap();
        req.wait().unwrap();
    }
    let delta = allocation_count() - before;
    assert_eq!(
        delta, 0,
        "latency recording allocated {delta} time(s); the histogram must count in place"
    );

    let report = engine.report();
    assert_eq!(report.completed, 3 + 3 * rounds as u64, "every completion is recorded");
    assert!(report.p50_ms.is_finite() && report.p99_ms.is_finite());
    engine.shutdown();
}

fn warm_sharded_serve_cycle_performs_zero_allocations() {
    use std::sync::Arc;
    use neocpu::{ServeOptions, ShardedEngine};

    // The batch-4 residual tower behind a 2-replica `ShardedEngine` (the
    // benchmark's entry point): 2 × 1 worker is one 2-worker engine, and
    // its fill → submit → wait cycle must allocate nothing.
    let g = batch4_tower();

    let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Sequential);
    let m = Arc::new(compile(&g, &CpuTarget::host(), &opts).unwrap());
    let shard = ShardedEngine::new(
        m,
        2,
        &ServeOptions { workers: 1, ..Default::default() },
    )
    .unwrap();

    let req = shard.make_request();
    let img = Tensor::random([1, 8, 16, 16], Layout::Nchw, 9, 1.0).unwrap();
    req.fill(&img).unwrap();
    for _ in 0..4 {
        shard.submit(&req).unwrap();
        req.wait().unwrap();
    }

    let before = allocation_count();
    for _ in 0..10 {
        shard.submit(&req).unwrap();
        req.wait().unwrap();
    }
    let delta = allocation_count() - before;
    assert_eq!(
        delta, 0,
        "warm sharded serve cycle allocated {delta} time(s); the ShardedEngine wrapper \
         must preserve the engine's zero-allocation contract"
    );

    let rep = shard.report();
    assert!(rep.fleet.completed >= 14);
    assert!(rep.fleet.p50_ms.is_finite());
}

fn warm_net_serve_path_performs_zero_allocations() {
    use std::io::{Read, Write};
    use std::sync::Arc;
    use neocpu::ServeOptions;
    use neocpu_models::ModelKind;
    use neocpu_net::{
        encode_request, FrameKind, ModelRegistry, ModelSpec, NetServer, RequestFrame, WireDtype,
        RESP_HEADER_LEN,
    };

    // The batch-4 residual tower again, registered as the MobileNet/f32
    // route (the spec is routing metadata only — `from_modules` takes the
    // module as-is), so the whole wire loop stays millisecond-cheap.
    let g = batch4_tower();

    let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Sequential);
    let m = Arc::new(compile(&g, &CpuTarget::host(), &opts).unwrap());
    let spec = ModelSpec::serving(ModelKind::MobileNet, WireDtype::F32, false, 4);
    let registry = Arc::new(
        ModelRegistry::from_modules(
            vec![(spec, m)],
            &ServeOptions { workers: 1, ..Default::default() },
        )
        .unwrap(),
    );
    let input_bytes = registry.entries()[0].input_bytes;
    let output_bytes = registry.entries()[0].output_bytes;
    let server = NetServer::bind(Arc::clone(&registry), "127.0.0.1:0").unwrap();

    // The client pre-allocates everything too, so the only allocations the
    // counter could see during the measured window are the server's.
    let img = Tensor::random([1, 8, 16, 16], Layout::Nchw, 9, 1.0).unwrap();
    let payload: Vec<u8> = img.data().iter().flat_map(|v| v.to_le_bytes()).collect();
    assert_eq!(payload.len(), input_bytes);
    let mut frame = Vec::new();
    encode_request(
        &RequestFrame {
            request_id: 7,
            kind: FrameKind::Infer,
            model: spec.kind,
            dtype: spec.dtype,
            deadline_us: 0,
            payload: &payload,
        },
        &mut frame,
    );
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut resp_header = [0u8; RESP_HEADER_LEN];
    let mut resp_payload = vec![0u8; output_bytes];

    let mut cycle = |stream: &mut std::net::TcpStream| {
        stream.write_all(&frame).unwrap();
        stream.read_exact(&mut resp_header).unwrap();
        assert_eq!(resp_header[5], 0, "warm wire cycle must answer Ok");
        let len = u32::from_le_bytes([
            resp_header[14],
            resp_header[15],
            resp_header[16],
            resp_header[17],
        ]) as usize;
        assert_eq!(len, output_bytes, "Ok payload is argmax + one score row");
        stream.read_exact(&mut resp_payload).unwrap();
    };

    // Warm-up: the connection thread builds its `ConnState` (slots and
    // buffers) on the first frames; steady state starts after that.
    for _ in 0..5 {
        cycle(&mut stream);
    }

    let before = allocation_count();
    for _ in 0..10 {
        cycle(&mut stream);
    }
    let delta = allocation_count() - before;
    assert_eq!(
        delta, 0,
        "warm server-side wire path allocated {delta} time(s); the decode → submit → \
         wait → encode loop must run entirely out of pre-allocated connection state"
    );

    server.shutdown_within(std::time::Duration::from_secs(10));
}

/// The batch-4 residual tower of the serve tests.
fn batch4_tower() -> neocpu_graph::Graph {
    let mut b = GraphBuilder::new(5);
    let x = b.input([4, 8, 16, 16]);
    let c0 = b.conv2d(x, 8, 1, 1, 0);
    let c1 = b.conv_bn_relu(c0, 8, 3, 1, 1);
    let c2 = b.conv2d_opts(c1, 8, 3, 1, 1, false);
    let a = b.add(c2, c0);
    let r = b.relu(a);
    let p = b.max_pool(r, 2, 2, 0);
    let f = b.flatten(p);
    let d = b.dense(f, 10);
    let s = b.softmax(d);
    b.finish(vec![s])
}

fn warm_partial_batches_perform_zero_allocations() {
    use std::sync::Arc;
    use std::time::Duration;
    use neocpu::{Request, ServeEngine, ServeOptions, ShardedEngine};

    // A formed batch of k < B requests runs k rows of the batch-4 plan,
    // through the k-row view tables of the worker's context and staging
    // buffer. With one worker, `max_batch: k` and a batch timeout far
    // above the run time, every batch is exactly the k requests submitted
    // together, so each k in 1..=4 is measured on its own — behind a
    // single engine and behind a 1-replica sharded engine (the serving
    // workloads' configuration).
    let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Sequential);
    let m = Arc::new(compile(&batch4_tower(), &CpuTarget::host(), &opts).unwrap());
    let img = Tensor::random([1, 8, 16, 16], Layout::Nchw, 9, 1.0).unwrap();

    let cycles = |k: usize, what: &str, submit: &dyn Fn(&Arc<Request>), slots: &[Arc<Request>]| {
        let cycle = || {
            for req in slots {
                submit(req);
            }
            for req in slots {
                req.wait().unwrap();
            }
        };
        for _ in 0..3 {
            cycle();
        }
        let before = allocation_count();
        for _ in 0..10 {
            cycle();
        }
        let delta = allocation_count() - before;
        assert_eq!(delta, 0, "{what}: warm {k}-request batches allocated {delta} time(s)");
    };
    for k in 1..=4 {
        let serve_opts = ServeOptions {
            workers: 1,
            max_batch: k,
            batch_timeout: Duration::from_secs(10),
            ..Default::default()
        };

        let engine = ServeEngine::new(Arc::clone(&m), &serve_opts).unwrap();
        let slots: Vec<Arc<Request>> = (0..k).map(|_| engine.make_request()).collect();
        for req in &slots {
            req.fill(&img).unwrap();
        }
        cycles(k, "engine", &|req| engine.submit(req).unwrap(), &slots);
        let r = engine.report();
        assert_eq!((r.batches, r.max_batch_formed), (13, k), "every batch holds k rows: {r}");
        engine.shutdown();

        let shard = ShardedEngine::new(Arc::clone(&m), 1, &serve_opts).unwrap();
        let slots: Vec<Arc<Request>> = (0..k).map(|_| shard.make_request()).collect();
        for req in &slots {
            req.fill(&img).unwrap();
        }
        cycles(k, "sharded engine", &|req| shard.submit(req).unwrap(), &slots);
        let r = shard.report().fleet;
        assert_eq!((r.batches, r.max_batch_formed), (13, k), "every batch holds k rows: {r}");
    }
}

fn pooled_run_allocates_only_the_returned_outputs() {
    let g = residual_net();
    let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Sequential);
    let m = compile(&g, &CpuTarget::host(), &opts).unwrap();
    let input = Tensor::random([1, 8, 16, 16], Layout::Nchw, 5, 1.0).unwrap();

    // Warm the context pool.
    for _ in 0..3 {
        m.run(std::slice::from_ref(&input)).unwrap();
    }

    let before = allocation_count();
    let runs = 10u64;
    let mut outputs = Vec::with_capacity(runs as usize);
    for _ in 0..runs {
        outputs.push(m.run(std::slice::from_ref(&input)).unwrap());
    }
    let delta = allocation_count() - before;
    // Per run: one Vec of outputs plus one detached buffer per output
    // (and nothing for intermediates). Allow a tiny constant of slack for
    // the collecting Vec above, but the naive executor's dozens of
    // per-node tensor allocations must be gone.
    let per_run = delta / runs;
    assert!(
        per_run <= 4,
        "pooled run allocates {per_run} times per inference; intermediates are leaking \
         out of the arena"
    );
    drop(outputs);
}
