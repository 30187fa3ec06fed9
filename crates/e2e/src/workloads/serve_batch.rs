//! Workload 4: MobileNet compiled at batch 4 behind a `ShardedEngine`
//! (1 replica, 2 workers, default `ServeOptions`), driven in process by one
//! generator thread that keeps 8 reusable request slots in flight.

use std::sync::Arc;
use std::time::{Duration, Instant};

use neocpu::{Module, Request, ServeOptions, ShardedEngine};
use neocpu_models::{build, ModelKind};
use neocpu_net::{ModelSpec, WireDtype};
use neocpu_search::SchemeDatabase;
use neocpu_tensor::{Layout, Tensor};
use neocpu_threadpool::ThreadPool;

use super::model_latency::{module_metrics, p50_ms, report_exec, staged_pipeline, ExecProfile};
use super::{
    client_metrics, end_to_end, judged, ms, oracle_check, repeat_setup, same_output, seeded_inputs,
    Cfg, Window, Workload,
};
use crate::metrics::{Outcome, Values};
use crate::trace::{SpanId, Trace, Tracer};
use crate::{host, probes, Res};

const KIND: ModelKind = ModelKind::MobileNet;
const BATCH: usize = 4;
/// Requests the generator keeps in flight: two full batches, one per worker.
const IN_FLIGHT: usize = 8;
const CHECK_INPUTS: usize = 3;
const SETUP_REPS: usize = 3;

fn spec(cfg: &Cfg) -> ModelSpec {
    ModelSpec::serving(KIND, WireDtype::F32, !cfg.smoke, BATCH)
}

struct Served {
    engine: ShardedEngine,
    slots: Vec<Arc<Request>>,
}

impl Served {
    fn start(module: Arc<Module>, replicas: usize, opts: &ServeOptions) -> Res<Self> {
        let engine = ShardedEngine::new(module, replicas, opts)?;
        let slots = (0..IN_FLIGHT).map(|_| engine.make_request()).collect();
        Ok(Self { engine, slots })
    }

    /// One request through slot 0; its score row.
    fn infer(&self, input: &Tensor) -> Res<Vec<f32>> {
        let slot = &self.slots[0];
        slot.fill(input)?;
        self.engine.submit(slot)?;
        slot.wait()?;
        Ok(slot.with_outputs(|o| o[0].data().to_vec())?)
    }

    /// Keeps every slot in flight for `window`, waiting on the oldest and
    /// refilling it; each request is timed from submit to the return of its
    /// wait. With a tracer, each request is a `client.op` span around a
    /// `serve.submit_wait` span.
    fn drive(
        &self,
        inputs: &[Tensor],
        expected: &[Vec<f32>],
        window: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Res<Window> {
        let mut w = Window::with_capacity(1 << 16);
        let mut sent: Vec<(Instant, usize, SpanId, SpanId)> = Vec::with_capacity(IN_FLIGHT);
        let mut op_id = 0u64;
        let mut send = |slot: &Arc<Request>, tracer: &mut Option<&mut Tracer>| -> Res<_> {
            let k = op_id as usize % inputs.len();
            let spans = tracer.as_mut().map_or((0, 0), |t| {
                let op = t.begin("client.op", None, op_id);
                (op, t.begin("serve.submit_wait", Some(op), op_id))
            });
            slot.fill(&inputs[k])?;
            let at = Instant::now();
            self.engine.submit(slot)?;
            op_id += 1;
            Ok((at, k, spans.0, spans.1))
        };
        let cpu0 = host::cpu_ms();
        let t0 = Instant::now();
        for slot in &self.slots {
            sent.push(send(slot, &mut tracer)?);
        }
        let mut in_flight = IN_FLIGHT;
        let mut oldest = 0;
        while in_flight > 0 {
            let slot = &self.slots[oldest];
            let (at, k, op, wait) = sent[oldest];
            let outcome = slot.wait();
            let (latency_ms, done_s) = (ms(at), t0.elapsed().as_secs_f64());
            if let Some(t) = tracer.as_mut() {
                t.end(wait);
                t.end(op);
            }
            let ok = outcome.is_ok()
                && slot
                    .with_outputs(|o| same_output(&expected[k], o[0].data()))
                    .unwrap_or(false);
            w.push(latency_ms, done_s, ok);
            if t0.elapsed() < window {
                sent[oldest] = send(slot, &mut tracer)?;
            } else {
                in_flight -= 1;
            }
            oldest = (oldest + 1) % IN_FLIGHT;
        }
        w.elapsed_s = t0.elapsed().as_secs_f64();
        w.cpu_ms = host::cpu_ms() - cpu0;
        Ok(w)
    }
}

/// The untraced run.
pub fn run(cfg: &Cfg) -> Res<Outcome> {
    let scale = cfg.scale(KIND);
    let inputs = seeded_inputs(cfg.seed, scale, CHECK_INPUTS)?;
    let (served, setup_s) = repeat_setup(SETUP_REPS, || {
        let (module, _) = spec(cfg).compile()?;
        let served = Served::start(module, 1, &ServeOptions::default())?;
        served.infer(&inputs[0])?;
        Ok(served)
    })?;
    let expected: Vec<Vec<f32>> = inputs.iter().map(|x| served.infer(x)).collect::<Res<_>>()?;
    served.drive(&inputs, &expected, cfg.window() / 15, None)?; // warm both workers

    let w = served.drive(&inputs, &expected, cfg.window(), None)?;
    let mut values = Values::default();
    end_to_end(&mut values, w.quietest_p50(), w.best_rate(), &setup_s);
    drop(served);

    let verdict = oracle_check(KIND, scale, false, &inputs, &expected)?;
    Ok(judged(
        w.attempted,
        w.failed,
        verdict.wrong,
        inputs.len(),
        values,
    ))
}

/// Sets the `serve.*` and `shard.stolen` counters from an engine's report.
pub fn engine_metrics(values: &mut Values, reports: &[neocpu::ServeReport]) {
    let n = reports.len().max(1) as f64;
    let sum = |f: fn(&neocpu::ServeReport) -> f64| reports.iter().map(f).sum::<f64>();
    let mean_batch = sum(|r| r.mean_batch) / n;
    values.set("serve.mean_batch", mean_batch);
    values.set(
        "serve.batch_fill",
        sum(|r| r.mean_batch / r.module_batch.max(1) as f64) / n,
    );
    values.set(
        "serve.queue_hwm",
        reports.iter().map(|r| r.queue_depth_hwm).max().unwrap_or(0) as f64,
    );
    values.set("serve.shed", sum(|r| r.shed as f64));
    values.set(
        "serve.deadline_exceeded",
        sum(|r| r.deadline_exceeded as f64),
    );
    values.set("serve.respawns", sum(|r| r.respawns as f64));
    values.set("shard.stolen", sum(|r| r.stolen as f64));
}

/// A full-batch input: `image` in every row.
pub fn batch_input(image: &Tensor, batch: usize) -> Res<Tensor> {
    let dims = image.shape().dims();
    let mut data = Vec::with_capacity(image.data().len() * batch);
    for _ in 0..batch {
        data.extend_from_slice(image.data());
    }
    Ok(Tensor::from_vec(
        data,
        [batch, dims[1], dims[2], dims[3]],
        Layout::Nchw,
    )?)
}

/// The traced run.
pub fn trace(workload: Workload, cfg: &Cfg) -> Res<Outcome> {
    let mut values = Values::default();
    let scale = cfg.scale(KIND);
    let inputs = seeded_inputs(cfg.seed, scale, CHECK_INPUTS)?;

    let t = Instant::now();
    let graph = build(KIND, spec(cfg).scale, super::WEIGHT_SEED);
    values.set("models.build_ms", ms(t));
    values.set("graph.nodes_in", graph.len() as f64);
    // Serving compiles at O2 (uniform plan, no search).
    let staged = staged_pipeline(
        &graph,
        &neocpu::CompileOptions::level(neocpu::OptLevel::O2),
        &mut SchemeDatabase::new(),
    )?;
    values.set("graph.passes_ms", staged.passes_ms);
    drop(graph);
    let t = Instant::now();
    let (module, _) = spec(cfg).compile()?;
    values.set("compile.total_ms", ms(t));

    let served = Served::start(module.clone(), 1, &ServeOptions::default())?;
    let expected: Vec<Vec<f32>> = inputs.iter().map(|x| served.infer(x)).collect::<Res<_>>()?;
    served.drive(&inputs, &expected, cfg.window() / 15, None)?;

    // A sixth of the window each: untraced, traced, and the 2 × 1 fleet; the
    // probes around them take the rest.
    let sixth = cfg.window() / 6;
    let plain = served.drive(&inputs, &expected, sixth, None)?;
    client_metrics(&mut values, &plain);
    let mut tracer = Tracer::new(Instant::now(), 1 << 18);
    let traced = served.drive(&inputs, &expected, sixth, Some(&mut tracer))?;
    values.set(
        "trace.overhead_pct",
        100.0 * (traced.p(0.5) / plain.p(0.5) - 1.0),
    );
    engine_metrics(&mut values, &[served.engine.report().fleet]);
    drop(served);

    let two = Served::start(
        module.clone(),
        2,
        &ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        },
    )?;
    two.drive(&inputs, &expected, cfg.window() / 15, None)?;
    let split = two.drive(&inputs, &expected, sixth, None)?;
    values.set("shard.speedup_2r", split.rate() / plain.rate());
    drop(two);

    // What one full batch costs with no engine around it.
    let full = batch_input(&inputs[0], BATCH)?;
    let batch_ms = p50_ms(&module, &full, cfg.window() / 10)?;
    values.set("exec.batch_run_ms", batch_ms);
    values.set("serve.engine_latency_p50_ms", plain.p(0.5));
    values.set("serve.overhead_ms", plain.p(0.5) - batch_ms);
    let mut profile = ExecProfile::default();
    for _ in 0..5 {
        profile.run(&module, &full, None)?;
    }
    let buckets = profile.medians();
    let covered = report_exec(&mut values, buckets);
    values.set("exec.profile_cover", covered / batch_ms);
    module_metrics(&mut values, &module, buckets[0]);

    probes::fixed_shapes(&mut values, &ThreadPool::new(host::threads()), cfg.smoke)?;
    let trace = Trace::merge(vec![tracer]);
    values.set("trace.dropped_spans", trace.dropped as f64);
    trace.write(
        &cfg.results_dir
            .join(format!("{}.trace.json", workload.name())),
    )?;

    let verdict = oracle_check(KIND, scale, false, &inputs, &expected)?;
    values.set("exec.output_max_abs_err", f64::from(verdict.max_abs_err));
    Ok(judged(
        plain.attempted + traced.attempted + split.attempted,
        plain.failed + traced.failed + split.failed,
        verdict.wrong,
        inputs.len(),
        values,
    ))
}
