//! Workloads 1–3: one caller, batch 1, closed loop over a module compiled
//! at `OptLevel::O3` with the hybrid (pre-select, then measure) search.

use std::sync::Arc;
use std::time::{Duration, Instant};

use neocpu::{
    compile_quantized_with_db, compile_with_report, CompileOptions, CpuTarget, Module, OptLevel,
    QuantizeOptions, QuantizeReport, RunContext, SearchStrategy,
};
use neocpu_graph::passes::{
    fuse_ops, plan_assigned, plan_uniform, precompute_weights, simplify_inference, UniformPlanCfg,
};
use neocpu_graph::{Graph, Op};
use neocpu_models::{build, ModelKind};
use neocpu_search::{
    extract_problem, local_search, solve, GlobalCfg, LocalSearchCfg, SchemeDatabase, TimedMeasurer,
};
use neocpu_tensor::Tensor;
use neocpu_threadpool::{Parallelism, Sequential, ThreadPool};

use super::{
    client_metrics, end_to_end, judged, ms, oracle_check, repeat_setup, same_output, seeded_inputs,
    Cfg, Window, Workload, WEIGHT_SEED,
};
use crate::metrics::{Outcome, Values};
use crate::stats::{median, percentile, sorted};
use crate::trace::{Trace, Tracer};
use crate::{host, probes, Res};

/// One of the three model-latency workloads.
#[derive(Debug, Clone, Copy)]
pub struct ModelCase {
    pub kind: ModelKind,
    pub int8: bool,
    /// Times the whole set-up is repeated; `setup_s` is their median.
    pub setup_reps: usize,
    /// Distinct seeded inputs; each one's output is checked by the oracle.
    pub check_inputs: usize,
}

/// The compile options of workloads 1–3.
pub fn o3() -> CompileOptions {
    let mut opts = CompileOptions::level(OptLevel::O3);
    opts.search = SearchStrategy::Hybrid {
        preselect: 8,
        repeats: 3,
    };
    opts
}

struct Compiled {
    module: Module,
    fallbacks: usize,
    quant: Option<QuantizeReport>,
}

fn compile_case(
    case: &ModelCase,
    graph: &Graph,
    opts: &CompileOptions,
    pool: Arc<dyn Parallelism>,
    db: &mut SchemeDatabase,
) -> Res<Compiled> {
    let target = CpuTarget::host();
    if case.int8 {
        let (module, q) =
            compile_quantized_with_db(graph, &target, opts, &QuantizeOptions::default(), db)?;
        if q.fell_back || q.quantized == 0 {
            return Err(format!(
                "{}: the int8 compile kept f32 (fell_back {}, quantized {})",
                case.kind.name(),
                q.fell_back,
                q.quantized
            )
            .into());
        }
        Ok(Compiled {
            module: module.with_pool(pool),
            fallbacks: q.compile.fallbacks.len(),
            quant: Some(q),
        })
    } else {
        let (module, report) = compile_with_report(graph, &target, opts, db)?;
        Ok(Compiled {
            module: module.with_pool(pool),
            fallbacks: report.fallbacks.len(),
            quant: None,
        })
    }
}

/// Runs `op` back to back until `window` has passed. `op` times the call it
/// measures itself, so checking the output stays outside the latency.
fn closed_loop(window: Duration, mut op: impl FnMut(u64) -> Res<(Duration, bool)>) -> Res<Window> {
    let mut w = Window::with_capacity(1 << 16);
    let cpu0 = host::cpu_ms();
    let t0 = Instant::now();
    while t0.elapsed() < window {
        let (dt, ok) = op(w.attempted)?;
        w.push(dt.as_secs_f64() * 1e3, t0.elapsed().as_secs_f64(), ok);
    }
    w.elapsed_s = t0.elapsed().as_secs_f64();
    w.cpu_ms = host::cpu_ms() - cpu0;
    Ok(w)
}

/// The program's first output for each input: what every later run on the
/// same input must reproduce, and what the oracle judges.
fn first_outputs(module: &Module, ctx: &mut RunContext, inputs: &[Tensor]) -> Res<Vec<Vec<f32>>> {
    inputs
        .iter()
        .map(|x| {
            module.run_with(ctx, std::slice::from_ref(x))?;
            Ok(ctx.output(0).ok_or("module has no output")?.data().to_vec())
        })
        .collect()
}

fn plain_op<'a>(
    module: &'a Module,
    ctx: &'a mut RunContext,
    inputs: &'a [Tensor],
    expected: &'a [Vec<f32>],
) -> impl FnMut(u64) -> Res<(Duration, bool)> + 'a {
    move |i| {
        let k = i as usize % inputs.len();
        let t = Instant::now();
        module.run_with(ctx, std::slice::from_ref(&inputs[k]))?;
        let dt = t.elapsed();
        let ok = ctx
            .output(0)
            .is_some_and(|o| same_output(&expected[k], o.data()));
        Ok((dt, ok))
    }
}

/// The untraced run.
pub fn run(case: &ModelCase, cfg: &Cfg) -> Res<Outcome> {
    let scale = cfg.scale(case.kind);
    let inputs = seeded_inputs(cfg.seed, scale, case.check_inputs)?;
    let ((module, mut ctx), setup_s) = repeat_setup(case.setup_reps, || {
        let graph = build(case.kind, scale, WEIGHT_SEED);
        let pool = Arc::new(ThreadPool::new(host::threads()));
        let compiled = compile_case(case, &graph, &o3(), pool, &mut SchemeDatabase::new())?;
        let mut ctx = compiled.module.make_context();
        compiled.module.run_with(&mut ctx, &inputs[..1])?;
        Ok((compiled.module, ctx))
    })?;
    let expected = first_outputs(&module, &mut ctx, &inputs)?;
    first_outputs(&module, &mut ctx, &inputs)?; // second warm-up pass

    let w = closed_loop(
        cfg.window(),
        plain_op(&module, &mut ctx, &inputs, &expected),
    )?;
    let mut values = Values::default();
    end_to_end(&mut values, w.quietest_p50(), w.best_rate(), &setup_s);

    let verdict = oracle_check(case.kind, scale, case.int8, &inputs, &expected)?;
    Ok(judged(
        w.attempted,
        w.failed,
        verdict.wrong,
        inputs.len(),
        values,
    ))
}

/// Times of the compile pipeline replayed stage by stage through the public
/// pass and search functions. Leaves every local-search result in `db`, so a
/// compile that follows measures the warm-database path.
pub struct Staged {
    pub passes_ms: f64,
    pub local_ms: f64,
    pub global_ms: f64,
    pub workloads: usize,
}

pub fn staged_pipeline(
    graph: &Graph,
    opts: &CompileOptions,
    db: &mut SchemeDatabase,
) -> Res<Staged> {
    let target = CpuTarget::host();
    let cfg = UniformPlanCfg {
        block: target.preferred_block(),
        ..UniformPlanCfg::default()
    };
    let t = Instant::now();
    let fused = fuse_ops(&simplify_inference(graph)?)?;
    let mut staged = Staged {
        passes_ms: ms(t),
        local_ms: 0.0,
        global_ms: 0.0,
        workloads: 0,
    };
    let planned = if let SearchStrategy::Hybrid { preselect, repeats } = opts.search {
        let measurer = TimedMeasurer {
            repeats,
            warmup: 1,
            max_lanes: target.max_lanes(),
        };
        let local = LocalSearchCfg {
            preselect: Some(preselect),
            keep: opts.keep_candidates,
            ..LocalSearchCfg::default()
        };
        let t = Instant::now();
        for id in fused.conv_ids() {
            let Op::Conv2d { params, .. } = &fused.nodes[id].op else {
                continue;
            };
            if db.get(&target.name, params).is_none() {
                db.replace(
                    &target.name,
                    params,
                    local_search(params, &measurer, &local),
                );
                staged.workloads += 1;
            }
        }
        staged.local_ms = ms(t);
        let t = Instant::now();
        let cached = &*db;
        let problem = extract_problem(
            &fused,
            &mut |_, p| {
                cached
                    .get(&target.name, p)
                    .map(<[_]>::to_vec)
                    .unwrap_or_default()
            },
            &target.analytical_model(),
        )?;
        let (assignment, _) = solve(&problem, &GlobalCfg::default());
        let schedules = problem.assignment_to_schedules(&assignment);
        staged.global_ms = ms(t);
        let t = Instant::now();
        let planned = plan_assigned(&fused, &schedules, &cfg)?;
        staged.passes_ms += ms(t);
        planned
    } else {
        let t = Instant::now();
        let planned = plan_uniform(&fused, &cfg)?;
        staged.passes_ms += ms(t);
        planned
    };
    let t = Instant::now();
    precompute_weights(&planned)?;
    staged.passes_ms += ms(t);
    Ok(staged)
}

/// Median latency of `module` on `input`, over at least five warm runs and
/// as many more as fit in `budget`.
pub fn p50_ms(module: &Module, input: &Tensor, budget: Duration) -> Res<f64> {
    let mut ctx = module.make_context();
    let x = std::slice::from_ref(input);
    module.run_with(&mut ctx, x)?;
    module.run_with(&mut ctx, x)?;
    let mut lat = Vec::new();
    let t0 = Instant::now();
    while lat.len() < 5 || t0.elapsed() < budget {
        let t = Instant::now();
        module.run_with(&mut ctx, x)?;
        lat.push(ms(t));
    }
    Ok(percentile(&sorted(&lat), 0.5))
}

/// Median latencies of `other` and `base` on `input`, taking turns in
/// blocks of four runs so that both see the same host conditions without
/// evicting each other's weights on every call; at least one block each.
pub fn paired_p50_ms(
    other: &Module,
    base: &Module,
    input: &Tensor,
    budget: Duration,
) -> Res<(f64, f64)> {
    let x = std::slice::from_ref(input);
    let mut sides = [other, base].map(|m| (m, m.make_context(), Vec::new()));
    let t0 = Instant::now();
    loop {
        for (module, ctx, lat) in &mut sides {
            for _ in 0..4 {
                let t = Instant::now();
                module.run_with(ctx, x)?;
                lat.push(ms(t));
            }
        }
        if t0.elapsed() >= budget {
            break;
        }
    }
    let [(_, _, other), (_, _, base)] = sides;
    Ok((
        percentile(&sorted(&other), 0.5),
        percentile(&sorted(&base), 0.5),
    ))
}

/// The seven buckets operator time is reported in: the operator name
/// `run_profiled` uses, the span name, the metric name. Pooling operators
/// share one bucket; anything not listed lands in the last.
const BUCKETS: [(&str, &str, &str); 7] = [
    ("conv2d", "exec.conv2d", "exec.conv2d_ms"),
    (
        "layout_transform",
        "exec.layout_transform",
        "exec.layout_transform_ms",
    ),
    ("quantize", "exec.quantize", "exec.quantize_ms"),
    ("dequantize", "exec.dequantize", "exec.dequantize_ms"),
    ("dense", "exec.dense", "exec.dense_ms"),
    ("pool", "exec.pool", "exec.pool_ms"),
    ("other", "exec.other", "exec.other_ms"),
];

fn bucket(op: &str) -> usize {
    let name = match op {
        "max_pool" | "avg_pool" | "global_avg_pool" => "pool",
        other => other,
    };
    BUCKETS
        .iter()
        .position(|b| b.0 == name)
        .unwrap_or(BUCKETS.len() - 1)
}

/// Per-bucket operator time of repeated `Module::run_profiled` calls.
#[derive(Debug, Default)]
pub struct ExecProfile {
    runs: Vec<[f64; 7]>,
}

impl ExecProfile {
    /// One profiled run on `input`; returns its output row and wall time.
    /// With a tracer, records `exec.run` under `parent` and one `exec.<op>`
    /// child per bucket. `run_profiled` reports totals per operator kind,
    /// not start times, so the children are laid end to end from the start
    /// of `exec.run`.
    pub fn run(
        &mut self,
        module: &Module,
        input: &Tensor,
        mut span: Option<(&mut Tracer, crate::trace::SpanId, u64)>,
    ) -> Res<(Vec<f32>, Duration)> {
        let exec = span
            .as_mut()
            .map(|(t, parent, op_id)| t.begin("exec.run", Some(*parent), *op_id));
        let t = Instant::now();
        let (outputs, profile) = module.run_profiled(std::slice::from_ref(input))?;
        let dt = t.elapsed();
        let mut row = [0f64; 7];
        for p in &profile {
            row[bucket(p.op)] += p.total_ms;
        }
        if let (Some((tracer, _, op_id)), Some(exec)) = (span, exec) {
            tracer.end(exec);
            let mut at = tracer.start_ns(exec);
            for ((_, span_name, _), ms) in BUCKETS.iter().zip(row) {
                if ms > 0.0 {
                    let end = at + (ms * 1e6) as u64;
                    tracer.record(span_name, at, end, Some(exec), op_id);
                    at = end;
                }
            }
        }
        self.runs.push(row);
        let out = outputs
            .first()
            .ok_or("module has no output")?
            .data()
            .to_vec();
        Ok((out, dt))
    }

    /// Median time per bucket, ms.
    pub fn medians(&self) -> [f64; 7] {
        std::array::from_fn(|b| median(&self.runs.iter().map(|r| r[b]).collect::<Vec<_>>()))
    }
}

/// Sets `exec.<bucket>_ms` from per-bucket times; returns their sum.
pub fn report_exec(values: &mut Values, buckets: [f64; 7]) -> f64 {
    for ((_, _, name), v) in BUCKETS.into_iter().zip(buckets) {
        values.set(name, v);
    }
    buckets.iter().sum()
}

/// What a compiled module says about itself: node and transform counts, the
/// memory plan, and the convolution work per run with the bytes it touches
/// (computed from tensor sizes, not measured).
pub fn module_metrics(values: &mut Values, module: &Module, conv_ms: f64) {
    let batch = module.input_shapes().first().map_or(1, |s| s.dims()[0]) as u64;
    let (mut macs, mut bytes) = (0u64, 0u64);
    for node in &module.graph().nodes {
        let Op::Conv2d {
            params: p, quant, ..
        } = &node.op
        else {
            continue;
        };
        let elem = if quant.is_some() { 1 } else { 4 };
        macs += p.macs() * batch;
        let input = batch * (p.in_channels * p.in_h * p.in_w) as u64 * elem;
        let weights =
            (p.out_channels * p.in_channels_per_group() * p.kernel_h * p.kernel_w) as u64 * elem;
        let output = batch * (p.out_channels * p.out_h() * p.out_w()) as u64 * 4;
        bytes += input + weights + output;
    }
    values.set("graph.nodes_out", module.graph().len() as f64);
    values.set("graph.transforms", module.transform_count() as f64);
    values.set(
        "kernels.conv_gmacs_per_s",
        macs as f64 / 1e9 / (conv_ms / 1e3),
    );
    values.set("kernels.conv_mb_moved", bytes as f64 / 1e6);
    let mem = module.memory_report();
    values.set("memory.arena_mb", mem.planned_peak_bytes as f64 / 1e6);
    values.set(
        "memory.saved_pct",
        100.0 * (1.0 - mem.planned_peak_bytes as f64 / mem.naive_bytes.max(1) as f64),
    );
    values.set("memory.scratch_kb", mem.scratch_bytes as f64 / 1e3);
}

/// The traced run: the same loop with spans, plus every per-layer number
/// that can be had by timing calls into public functions.
pub fn trace(workload: Workload, case: &ModelCase, cfg: &Cfg) -> Res<Outcome> {
    let mut values = Values::default();
    let scale = cfg.scale(case.kind);
    let inputs = seeded_inputs(cfg.seed, scale, case.check_inputs)?;
    let opts = o3();

    let t = Instant::now();
    let graph = build(case.kind, scale, WEIGHT_SEED);
    values.set("models.build_ms", ms(t));
    values.set("graph.nodes_in", graph.len() as f64);

    let mut db = SchemeDatabase::new();
    let staged = staged_pipeline(&graph, &opts, &mut db)?;
    values.set("graph.passes_ms", staged.passes_ms);
    values.set("search.local_ms", staged.local_ms);
    values.set("search.global_ms", staged.global_ms);
    values.set("search.workloads", staged.workloads as f64);

    // The f32 compile on the now-warm database, then (workload 3) the
    // quantized compile on the same database: the difference is what
    // quantization adds.
    let pool = Arc::new(ThreadPool::new(host::threads()));
    let f32_case = ModelCase {
        int8: false,
        ..*case
    };
    let t = Instant::now();
    let mut compiled = compile_case(&f32_case, &graph, &opts, pool.clone(), &mut db)?;
    let warm_ms = ms(t);
    values.set("search.warm_db_compile_ms", warm_ms);
    values.set("compile.total_ms", staged.local_ms + warm_ms);
    if case.int8 {
        let t = Instant::now();
        compiled = compile_case(case, &graph, &opts, pool.clone(), &mut db)?;
        let extra = ms(t) - warm_ms;
        values.set("quantize.extra_ms", extra);
        values.set("compile.total_ms", staged.local_ms + warm_ms + extra);
    }
    values.set("compile.fallbacks", compiled.fallbacks as f64);
    if let Some(q) = &compiled.quant {
        values.set("quantize.convs_int8", q.quantized as f64);
        values.set("quantize.convs_f32", q.skipped as f64);
        values.set("quantize.max_abs_err", f64::from(q.max_abs_error));
    }
    let module = compiled.module;
    let mut ctx = module.make_context();
    let expected = first_outputs(&module, &mut ctx, &inputs)?;
    first_outputs(&module, &mut ctx, &inputs)?;

    // Exact counts over a fixed number of warm runs.
    const COUNTED_RUNS: u64 = 8;
    let (allocs0, regions0) = (host::allocations(), pool.regions_run());
    for i in 0..COUNTED_RUNS as usize {
        module.run_with(&mut ctx, std::slice::from_ref(&inputs[i % inputs.len()]))?;
    }
    values.set(
        "exec.allocs_per_run",
        (host::allocations() - allocs0) as f64 / COUNTED_RUNS as f64,
    );
    values.set(
        "threadpool.regions_per_run",
        (pool.regions_run() - regions0) as f64 / COUNTED_RUNS as f64,
    );

    // Half the window, untraced and traced calls taking turns in blocks of
    // BLOCK_S, so that both see the same host conditions (the host drifts
    // by the second; call-by-call turns would make the two contexts evict
    // each other). The untraced calls are the base every ratio below
    // divides by.
    const BLOCK_S: f64 = 0.75;
    let mut plain = Window::with_capacity(1 << 15);
    let mut traced = Window::with_capacity(1 << 15);
    let mut tracer = Tracer::new(Instant::now(), 1 << 18);
    let mut profile = ExecProfile::default();
    {
        let mut run_plain = plain_op(&module, &mut ctx, &inputs, &expected);
        let mut run_traced = |i: u64| -> Res<(Duration, bool)> {
            let k = i as usize % inputs.len();
            let op = tracer.begin("client.op", None, i);
            let (out, dt) = profile.run(&module, &inputs[k], Some((&mut tracer, op, i)))?;
            tracer.end(op);
            Ok((dt, same_output(&expected[k], &out)))
        };
        let cpu0 = host::cpu_ms();
        let t0 = Instant::now();
        while t0.elapsed() < cfg.window() / 2 {
            for (w, run) in [
                (
                    &mut plain,
                    &mut run_plain as &mut dyn FnMut(u64) -> Res<(Duration, bool)>,
                ),
                (&mut traced, &mut run_traced),
            ] {
                let block = Instant::now();
                while block.elapsed().as_secs_f64() < BLOCK_S {
                    let (dt, ok) = run(w.attempted)?;
                    w.push(dt.as_secs_f64() * 1e3, t0.elapsed().as_secs_f64(), ok);
                }
            }
        }
        // Each kind of call is charged the time it ran for.
        let cpu_ms = host::cpu_ms() - cpu0;
        let busy = |w: &Window| w.latency_ms.iter().sum::<f64>() / 1e3;
        let total = busy(&plain) + busy(&traced);
        for w in [&mut plain, &mut traced] {
            w.elapsed_s = busy(w);
            w.cpu_ms = cpu_ms * w.elapsed_s / total;
        }
    }
    let plain_p50 = plain.p(0.5);
    client_metrics(&mut values, &plain);
    let buckets = profile.medians();
    let covered = report_exec(&mut values, buckets);
    values.set("exec.profile_cover", covered / plain_p50);
    values.set(
        "trace.overhead_pct",
        100.0 * (traced.p(0.5) / plain_p50 - 1.0),
    );
    module_metrics(&mut values, &module, buckets[0]);

    // The same model as a default `compile()` user gets it (analytical
    // search), and on one thread; both relative to the measured module.
    let probe_budget = cfg.window() / 10;
    let mut analytical = opts;
    analytical.search = SearchStrategy::Analytical;
    let by_model = compile_case(
        case,
        &graph,
        &analytical,
        pool.clone(),
        &mut SchemeDatabase::new(),
    )?;
    let (other, base) = paired_p50_ms(&by_model.module, &module, &inputs[0], probe_budget)?;
    values.set("search.analytical_regret", other / base);
    drop(by_model);
    let single = compile_case(case, &graph, &opts, Arc::new(Sequential), &mut db)?;
    let (other, base) = paired_p50_ms(&single.module, &module, &inputs[0], probe_budget)?;
    values.set("threadpool.speedup_2t", other / base);
    drop(single);
    drop(graph);

    probes::fixed_shapes(&mut values, &pool, cfg.smoke)?;

    let trace = Trace::merge(vec![tracer]);
    values.set("trace.dropped_spans", trace.dropped as f64);
    trace.write(
        &cfg.results_dir
            .join(format!("{}.trace.json", workload.name())),
    )?;

    let verdict = oracle_check(case.kind, scale, case.int8, &inputs, &expected)?;
    values.set("exec.output_max_abs_err", f64::from(verdict.max_abs_err));
    Ok(judged(
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        verdict.wrong,
        inputs.len(),
        values,
    ))
}
