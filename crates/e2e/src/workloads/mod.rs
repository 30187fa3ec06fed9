//! The five workloads and what they share: run configuration, seeded
//! inputs, the O0 oracle, and the end-to-end metric arithmetic.

pub mod model_latency;
pub mod serve_batch;
pub mod wire;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use neocpu::{compile, CompileOptions, CpuTarget, OptLevel, DEFAULT_INT8_ERROR_BUDGET};
use neocpu_models::{build, ModelKind, ModelScale};
use neocpu_tensor::{Layout, Tensor};

use crate::metrics::{Outcome, Values};
use crate::rng::Rng;
use crate::stats::{best_rate, median, percentile, quietest_p50, sorted, supported_tail};
use crate::{host, Res};

/// Seed of every model's weights. The models are the program under test and
/// stay the same across runs; `--seed` varies only what is fed to them.
pub const WEIGHT_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Resnet50Latency,
    MobilenetLatency,
    MobilenetInt8Latency,
    ServeBatchThroughput,
    WireOpenLoop,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Resnet50Latency,
        Workload::MobilenetLatency,
        Workload::MobilenetInt8Latency,
        Workload::ServeBatchThroughput,
        Workload::WireOpenLoop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Resnet50Latency => "resnet50_latency",
            Workload::MobilenetLatency => "mobilenet_latency",
            Workload::MobilenetInt8Latency => "mobilenet_int8_latency",
            Workload::ServeBatchThroughput => "serve_batch_throughput",
            Workload::WireOpenLoop => "wire_open_loop",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload once: untraced for the end-to-end metrics, traced
    /// for the per-layer ones.
    pub fn run(self, cfg: &Cfg, traced: bool) -> Res<Outcome> {
        use model_latency::ModelCase;
        let case = match self {
            // ResNet-50's search takes ~7 s and its O0 oracle ~5 s per image,
            // so it sets up once and checks one image; see the README.
            Workload::Resnet50Latency => ModelCase {
                kind: ModelKind::ResNet50,
                int8: false,
                setup_reps: 1,
                check_inputs: 1,
            },
            Workload::MobilenetLatency => ModelCase {
                kind: ModelKind::MobileNet,
                int8: false,
                setup_reps: 3,
                check_inputs: 3,
            },
            Workload::MobilenetInt8Latency => ModelCase {
                kind: ModelKind::MobileNet,
                int8: true,
                setup_reps: 3,
                check_inputs: 3,
            },
            Workload::ServeBatchThroughput => {
                return if traced {
                    serve_batch::trace(self, cfg)
                } else {
                    serve_batch::run(cfg)
                }
            }
            Workload::WireOpenLoop => {
                return if traced {
                    wire::trace(self, cfg)
                } else {
                    wire::run(cfg)
                }
            }
        };
        if traced {
            model_latency::trace(self, &case, cfg)
        } else {
            model_latency::run(&case, cfg)
        }
    }
}

/// One run's configuration.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Tiny models, so the whole path finishes in seconds (tests).
    pub smoke: bool,
    /// Where the traced run writes `<workload>.trace.json`.
    pub results_dir: PathBuf,
}

impl Cfg {
    pub fn scale(&self, kind: ModelKind) -> ModelScale {
        if self.smoke {
            ModelScale::tiny(kind)
        } else {
            ModelScale::full(kind)
        }
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// `count` single-image NCHW inputs for `scale`, a function of `seed` alone.
pub fn seeded_inputs(seed: u64, scale: ModelScale, count: usize) -> Res<Vec<Tensor>> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| {
            Tensor::random(
                [1, 3, scale.input, scale.input],
                Layout::Nchw,
                rng.next_u64(),
                1.0,
            )
            .map_err(Into::into)
        })
        .collect()
}

/// Sets the system up `reps` times, each from nothing (the previous instance
/// is dropped first, as a restart would), timing each; returns the last
/// instance and the times in seconds.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> Res<T>) -> Res<(T, Vec<f64>)> {
    let mut times = Vec::with_capacity(reps);
    let mut live = None;
    for _ in 0..reps {
        drop(live.take());
        let t0 = Instant::now();
        live = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((live.ok_or("set-up must run at least once")?, times))
}

/// What the oracle found for one set of outputs.
#[derive(Debug, Default, Clone, Copy)]
pub struct OracleVerdict {
    pub max_abs_err: f32,
    /// Inputs whose output strayed beyond the tolerance.
    pub wrong: usize,
}

/// Checks `got[i]` — the program's output row for `inputs[i]` — against an
/// independently compiled `OptLevel::O0` module of the same model (plain
/// NCHW direct convolution: no layout planning, no search, no int8).
///
/// The tolerance is relative to the largest reference score, because a
/// 1000-way softmax over random weights puts every score near 1e-3, where
/// the absolute budgets would accept an all-zero row: 1e-3 × max|ref| for
/// f32 (measured: at most 5e-6 × max|ref|) and 4 ×
/// `DEFAULT_INT8_ERROR_BUDGET` × max|ref| for int8 (measured: at most 0.061
/// × max|ref| over 656 tiny-scale rows, 0.0035 at full scale). The factor 4:
/// the library's absolute budget of 0.05 is what a logit error of 0.2 does
/// to a score of ½ (p(1 − p) = ¼); 0.2 × max|ref| asks the same of scores
/// of any size.
pub fn oracle_check(
    kind: ModelKind,
    scale: ModelScale,
    int8: bool,
    inputs: &[Tensor],
    got: &[Vec<f32>],
) -> Res<OracleVerdict> {
    let graph = build(kind, scale.with_batch(1), WEIGHT_SEED);
    let opts = CompileOptions::level(OptLevel::O0).with_threads(host::threads());
    let reference = compile(&graph, &CpuTarget::host(), &opts)?;
    let rel = if int8 {
        4.0 * DEFAULT_INT8_ERROR_BUDGET
    } else {
        1e-3
    };
    let mut verdict = OracleVerdict::default();
    for (x, y) in inputs.iter().zip(got) {
        let want = reference.run(std::slice::from_ref(x))?;
        let want = want[0].data();
        let err = max_abs_diff(want, y);
        let peak = want.iter().fold(0f32, |m, v| m.max(v.abs()));
        verdict.max_abs_err = verdict.max_abs_err.max(err);
        // A NaN or a row of the wrong length comes back as an infinite error.
        if err > rel * peak {
            eprintln!(
                "oracle: {} (int8 {int8}): error {err} exceeds {rel} x the largest score {peak}",
                kind.name()
            );
            verdict.wrong += 1;
        }
    }
    Ok(verdict)
}

/// Folds the oracle's verdict into a run's counts: a rejected reference
/// output taints its share of the operations that were compared with it.
pub fn judged(
    attempted: u64,
    failed: u64,
    wrong: usize,
    checked: usize,
    values: Values,
) -> Outcome {
    let failed = (failed + attempted * wrong as u64 / checked.max(1) as u64).min(attempted);
    Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        values,
    }
}

/// Largest element-wise distance; infinite when the lengths differ.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    if a.len() != b.len() {
        return f32::INFINITY;
    }
    a.iter().zip(b).fold(0f32, |m, (x, y)| {
        let d = (x - y).abs();
        if d.is_nan() {
            f32::INFINITY
        } else {
            m.max(d)
        }
    })
}

/// Whether a later output equals the first output the program produced for
/// the same input. The executor partitions work statically, so a repeat is
/// expected bit for bit; the slack only forgives a differently rounded tail.
pub fn same_output(first: &[f32], later: &[f32]) -> bool {
    max_abs_diff(first, later) <= 1e-6
}

/// The samples of a measured window, in completion order, with the process
/// readings taken when it closed (before the oracle, whose memory and CPU
/// are the benchmark's own).
#[derive(Debug, Default)]
pub struct Window {
    pub latency_ms: Vec<f64>,
    /// When each operation completed, in seconds since the window opened.
    pub done_s: Vec<f64>,
    /// Operations attempted (each one image).
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    pub cpu_ms: f64,
}

impl Window {
    pub fn with_capacity(samples: usize) -> Self {
        Self {
            latency_ms: Vec::with_capacity(samples),
            done_s: Vec::with_capacity(samples),
            ..Self::default()
        }
    }

    /// Records one completed operation.
    pub fn push(&mut self, latency_ms: f64, done_s: f64, ok: bool) {
        self.latency_ms.push(latency_ms);
        self.done_s.push(done_s);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn good_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// Checked-correct operations per second over the whole window.
    pub fn rate(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed_s
    }

    pub fn p(&self, q: f64) -> f64 {
        percentile(&sorted(&self.latency_ms), q)
    }

    /// The lowest slice median of the window's latencies.
    pub fn quietest_p50(&self) -> f64 {
        quietest_p50(&self.latency_ms)
    }

    /// The highest slice rate of checked-correct operations.
    pub fn best_rate(&self) -> f64 {
        best_rate(&self.done_s) * self.good_share()
    }
}

/// Fills in the end-to-end metrics. Callers take `latency_p50_ms` and
/// `images_per_s` from the quietest of the window's slices
/// (`stats::quietest_p50`, `stats::best_rate`); peak memory is read here,
/// when the window has just closed, and set-up time is the median of the
/// repeats.
pub fn end_to_end(values: &mut Values, latency_p50_ms: f64, images_per_s: f64, setup_s: &[f64]) {
    values.set("latency_p50_ms", latency_p50_ms);
    values.set("images_per_s", images_per_s);
    values.set("peak_rss_mb", host::peak_rss_mb());
    values.set("setup_s", median(setup_s));
}

/// Client-side per-layer metrics every traced run reports the same way,
/// over the whole window.
pub fn client_metrics(values: &mut Values, w: &Window) {
    let lat = sorted(&w.latency_ms);
    if supported_tail(lat.len()).is_none_or(|q| q < 0.9) {
        eprintln!(
            "warning: {} latency samples keep fewer than ten beyond p90; highest supported percentile: {:?}",
            lat.len(),
            supported_tail(lat.len())
        );
    }
    values.set("client.samples", lat.len() as f64);
    values.set("client.latency_p50_ms", percentile(&lat, 0.5));
    values.set("client.latency_p90_ms", percentile(&lat, 0.9));
    values.set("client.latency_p99_ms", percentile(&lat, 0.99));
    values.set(
        "client.latency_max_ms",
        lat.last().copied().unwrap_or(f64::NAN),
    );
    values.set("client.images_per_s", w.rate());
    values.set(
        "client.fail_share",
        100.0 * w.failed as f64 / w.attempted.max(1) as f64,
    );
    values.set("proc.cpu_ms_per_op", w.cpu_ms / w.attempted.max(1) as f64);
}
