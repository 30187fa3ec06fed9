//! Benchmark harness regenerating the NeoCPU evaluation (§4).
//!
//! Each experiment of the paper maps to a binary in `src/bin` built on the
//! runners here:
//!
//! | Paper artifact | Runner | Binary |
//! |---|---|---|
//! | Table 2a/b/c — overall latency, 15 models × 3 stacks | [`run_table2`] | `table2` |
//! | Table 3 — per-optimization ablation speedups | [`run_table3`] | `table3` |
//! | Figure 4 — thread-pool strong scaling | [`run_fig4`] | `fig4` |
//! | §3.3.2 — PBQP vs DP quality | [`run_pbqp_quality`] | `pbqp_quality` |
//! | §3.3.1 — local-search behaviour per workload | [`run_local_search`] | `local_search` |
//!
//! Microbenchmarks (Criterion) for the conv template, thread pools, layout
//! transforms, and the solvers live in `benches/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::Arc;
use std::time::Instant;

use neocpu::{compile_with_pool, CompileOptions, CpuTarget, Module, OptLevel, SearchStrategy};
use neocpu_kernels::conv::{conv2d_nchwc, conv2d_nchwc_u8, Conv2dParams, ConvQuant, Epilogue};
use neocpu_kernels::quantize::quantize_dense_weights;
use neocpu_models::{build, ModelKind, ModelScale};
use neocpu_search::{AnalyticalModel, CostModel, SchemeDatabase};
use neocpu_tensor::{DType, Layout, Tensor};
use neocpu_threadpool::{OmpLikePool, Parallelism, Sequential, ThreadPool};

/// Common harness configuration parsed from CLI flags.
#[derive(Debug, Clone)]
pub struct HarnessCfg {
    /// Use the paper's full-size workloads (default: reduced).
    pub full: bool,
    /// Timed repetitions per configuration (the paper uses 1000).
    pub reps: usize,
    /// Warm-up runs.
    pub warmup: usize,
    /// Threads for end-to-end runs.
    pub threads: usize,
    /// Model subset (empty = experiment default).
    pub models: Vec<ModelKind>,
}

impl Default for HarnessCfg {
    fn default() -> Self {
        Self {
            full: false,
            reps: 5,
            warmup: 1,
            threads: 1,
            models: Vec::new(),
        }
    }
}

impl HarnessCfg {
    /// Parses `--full`, `--reps N`, `--warmup N`, `--threads N` and
    /// `--models a,b` from `std::env::args`.
    pub fn from_args() -> Self {
        let mut cfg = Self::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => cfg.full = true,
                "--reps" if i + 1 < args.len() => {
                    cfg.reps = args[i + 1].parse().unwrap_or(cfg.reps);
                    i += 1;
                }
                "--warmup" if i + 1 < args.len() => {
                    cfg.warmup = args[i + 1].parse().unwrap_or(cfg.warmup);
                    i += 1;
                }
                "--threads" if i + 1 < args.len() => {
                    cfg.threads = args[i + 1].parse().unwrap_or(cfg.threads);
                    i += 1;
                }
                "--models" if i + 1 < args.len() => {
                    cfg.models = args[i + 1].split(',').filter_map(ModelKind::parse).collect();
                    i += 1;
                }
                other => eprintln!("ignoring unknown flag {other}"),
            }
            i += 1;
        }
        cfg
    }

    /// The scale this run uses for `kind`.
    pub fn scale(&self, kind: ModelKind) -> ModelScale {
        if self.full {
            ModelScale::full(kind)
        } else {
            ModelScale::tiny(kind)
        }
    }
}

/// Mean and standard error of repeated latency measurements, in ms —
/// Table 2's "mean value of 1000 runs and the corresponding standard
/// error" format.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Standard error of the mean (ms).
    pub std_err_ms: f64,
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}, {:.2}", self.mean_ms, self.std_err_ms)
    }
}

/// Times `reps` inferences of `module` on `input`.
pub fn measure(module: &Module, input: &Tensor, warmup: usize, reps: usize) -> Stats {
    for _ in 0..warmup {
        module.run(std::slice::from_ref(input)).expect("warm-up inference");
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        module.run(std::slice::from_ref(input)).expect("timed inference");
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>()
        / samples.len().max(2).saturating_sub(1) as f64;
    Stats { mean_ms: mean, std_err_ms: (var / samples.len() as f64).sqrt() }
}

/// The three software stacks Table 2 compares, mapped onto this
/// reproduction (see EXPERIMENTS.md for the mapping rationale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// MXNet+MKL-DNN-like: well-tuned blocked kernels called per-op
    /// (transform in/out around every CONV), epilogue fusion, OpenMP-style
    /// pool.
    LibraryStyle,
    /// TensorFlow-like: same per-op library calls but without epilogue
    /// fusion, OpenMP-style pool.
    TfLike,
    /// NeoCPU: globally searched layouts, fusion, custom SPSC pool.
    NeoCpu,
}

impl Stack {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Self::LibraryStyle => "library-style",
            Self::TfLike => "tf-like",
            Self::NeoCpu => "NeoCPU",
        }
    }

    fn options(&self, threads: usize, full: bool) -> (CompileOptions, bool) {
        // Returns (options, use_custom_pool).
        match self {
            Self::LibraryStyle => {
                let mut o = CompileOptions::level(OptLevel::O1).with_threads(threads);
                o.fuse = true;
                (o, false)
            }
            Self::TfLike => {
                let mut o = CompileOptions::level(OptLevel::O1).with_threads(threads);
                o.fuse = false;
                (o, false)
            }
            Self::NeoCpu => {
                let mut o = CompileOptions::level(OptLevel::O3).with_threads(threads);
                o.search = if full {
                    SearchStrategy::Hybrid { preselect: 8, repeats: 1 }
                } else {
                    SearchStrategy::Hybrid { preselect: 6, repeats: 1 }
                };
                (o, true)
            }
        }
    }
}

fn make_pool(threads: usize, custom: bool) -> Arc<dyn Parallelism> {
    if threads <= 1 {
        Arc::new(Sequential)
    } else if custom {
        Arc::new(ThreadPool::new(threads))
    } else {
        Arc::new(OmpLikePool::new(threads))
    }
}

/// Compiles `kind` under `stack` and measures its latency.
pub fn bench_stack(
    kind: ModelKind,
    stack: Stack,
    cfg: &HarnessCfg,
    db: &mut SchemeDatabase,
) -> Stats {
    let scale = cfg.scale(kind);
    let graph = build(kind, scale, 42);
    let target = CpuTarget::host();
    let (opts, custom) = stack.options(cfg.threads, cfg.full);
    let pool = make_pool(cfg.threads, custom);
    let module =
        compile_with_pool(&graph, &target, &opts, pool, db).expect("compilation succeeds");
    let input = Tensor::random([1, 3, scale.input, scale.input], Layout::Nchw, 7, 1.0)
        .expect("valid input");
    measure(&module, &input, cfg.warmup, cfg.reps)
}

/// One workload row of the int8-vs-f32 conv microbenchmark.
#[derive(Debug, Clone)]
pub struct Int8MicroRow {
    /// Workload label.
    pub name: String,
    /// Best-of f32 template time (µs) at the AVX2 lane cap.
    pub f32_us: f64,
    /// Best-of int8 template time (µs) at the AVX2 lane cap.
    pub int8_us: f64,
    /// Throughput ratio `f32_us / int8_us`.
    pub speedup: f64,
}

/// SIMD-lane cap pinning the microbenchmark to the AVX2 paths (8-lane f32
/// FMA strips; the int8 kernel's 32-byte `maddubs` strips) even on hosts
/// with AVX-512.
pub const INT8_MICRO_MAX_LANES: usize = 8;

/// AVX2-shaped candidates (`oc_bn == 8`, quad-packable `ic_bn`) for `p`,
/// preselected to the analytically best `keep` under `cost` — the search
/// crate's preselect-then-measure idiom.
fn avx2_candidates(
    p: &Conv2dParams,
    cost: impl Fn(&Conv2dParams, &neocpu_kernels::ConvSchedule) -> f32,
    keep: usize,
) -> Vec<neocpu_kernels::ConvSchedule> {
    let mut cands: Vec<neocpu_kernels::ConvSchedule> =
        neocpu_kernels::ConvSchedule::candidates(p, 64)
            .into_iter()
            .filter(|s| s.oc_bn == 8 && s.ic_bn.is_multiple_of(4))
            .collect();
    if cands.is_empty() {
        cands.push(neocpu_kernels::ConvSchedule::fallback_for(p));
    }
    cands.sort_by(|a, b| cost(p, a).total_cmp(&cost(p, b)));
    cands.truncate(keep.max(1));
    cands
}

/// Best-of-`reps` time (µs) of one f32 blocked conv under `max_lanes`.
fn time_f32_conv(
    p: &Conv2dParams,
    s: &neocpu_kernels::ConvSchedule,
    warmup: usize,
    reps: usize,
    max_lanes: usize,
) -> f64 {
    let input = Tensor::random([1, p.in_channels, p.in_h, p.in_w], Layout::NchwC(s.ic_bn), 1, 1.0)
        .expect("valid microbenchmark input");
    let weights = Tensor::random(
        [p.out_channels, p.in_channels, p.kernel_h, p.kernel_w],
        Layout::OihwIo { i: s.ic_bn, o: s.oc_bn },
        2,
        1.0,
    )
    .expect("valid microbenchmark weights");
    let mut out = Tensor::zeros([1, p.out_channels, p.out_h(), p.out_w()], Layout::NchwC(s.oc_bn))
        .expect("valid microbenchmark output");
    let mut best = f64::INFINITY;
    for i in 0..warmup + reps {
        let t0 = Instant::now();
        conv2d_nchwc(
            &input,
            &weights,
            &mut out,
            p,
            s,
            &Epilogue::none(),
            &Sequential,
            max_lanes,
            None,
        )
        .expect("schedule validated for workload");
        if i >= warmup {
            best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    best
}

/// Best-of-`reps` time (µs) of the same workload through the quad-packed
/// `u8×i8` int8 template at the AVX2 lane cap.
fn time_int8_conv(
    p: &Conv2dParams,
    s: &neocpu_kernels::ConvSchedule,
    warmup: usize,
    reps: usize,
) -> f64 {
    let mut input =
        Tensor::zeros_dtyped([1, p.in_channels, p.in_h, p.in_w], Layout::NchwC(s.ic_bn), DType::U8)
            .expect("valid microbenchmark input");
    let mut state = 0x243f_6a88u32;
    for b in input.data_u8_mut() {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        *b = (state >> 24) as u8;
    }
    let wsrc = Tensor::random(
        [p.out_channels, p.in_channels, p.kernel_h, p.kernel_w],
        Layout::Oihw,
        2,
        1.0,
    )
    .expect("valid microbenchmark weights");
    let qw = quantize_dense_weights(&wsrc, s.ic_bn, s.oc_bn).expect("quad-packable workload");
    let mult: Vec<f32> = qw.scales.iter().map(|sw| sw / 127.0).collect();
    let mut out = Tensor::zeros([1, p.out_channels, p.out_h(), p.out_w()], Layout::NchwC(s.oc_bn))
        .expect("valid microbenchmark output");
    let mut best = f64::INFINITY;
    for i in 0..warmup + reps {
        let t0 = Instant::now();
        conv2d_nchwc_u8(
            &input,
            &qw.tensor,
            &mut out,
            p,
            s,
            &ConvQuant { mult: &mult, zero_point: 128 },
            &Epilogue::none(),
            &Sequential,
            INT8_MICRO_MAX_LANES,
            None,
        )
        .expect("schedule validated for workload");
        if i >= warmup {
            best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    best
}

/// The int8-vs-f32 conv-layer microbenchmark backing the dtype-selection
/// claim: representative ResNet-50 dense conv layers timed through the f32
/// and quad-packed int8 `NCHW[x]c` templates under the *same* AVX2 lane
/// cap, each dtype using its analytically best AVX2-shaped schedule.
pub fn int8_micro(cfg: &HarnessCfg) -> Vec<Int8MicroRow> {
    let d = if cfg.full { 1 } else { 4 };
    let workloads = [
        (format!("3x3 C{}->{} @56x56", 64 / d, 64 / d), Conv2dParams::square(64 / d, 64 / d, 56, 3, 1, 1)),
        (format!("3x3 C{}->{} @28x28", 128 / d, 128 / d), Conv2dParams::square(128 / d, 128 / d, 28, 3, 1, 1)),
        (format!("3x3 C{}->{} @14x14", 256 / d, 256 / d), Conv2dParams::square(256 / d, 256 / d, 14, 3, 1, 1)),
        (format!("1x1 C{}->{} @56x56", 64 / d, 256 / d), Conv2dParams::square(64 / d, 256 / d, 56, 1, 1, 0)),
        (format!("1x1 C{}->{} @14x14", 512 / d, 512 / d), Conv2dParams::square(512 / d, 512 / d, 14, 1, 1, 0)),
    ];
    let model = AnalyticalModel { vec_lanes: INT8_MICRO_MAX_LANES, ..Default::default() };
    let (warmup, reps) = (cfg.warmup.max(1), cfg.reps.clamp(3, 50));
    let keep = 6;
    workloads
        .into_iter()
        .map(|(name, p)| {
            let f32_us = avx2_candidates(&p, |p, s| model.conv_time(p, s), keep)
                .iter()
                .map(|s| time_f32_conv(&p, s, warmup, reps, INT8_MICRO_MAX_LANES))
                .fold(f64::INFINITY, f64::min);
            let int8_us = avx2_candidates(&p, |p, s| model.conv_time_i8(p, s), keep)
                .iter()
                .map(|s| time_int8_conv(&p, s, warmup, reps))
                .fold(f64::INFINITY, f64::min);
            Int8MicroRow { name, f32_us, int8_us, speedup: f32_us / int8_us }
        })
        .collect()
}

/// Geometric-mean speedup of a microbenchmark run.
pub fn int8_geomean(rows: &[Int8MicroRow]) -> f64 {
    if rows.is_empty() {
        return f64::NAN;
    }
    (rows.iter().map(|r| r.speedup.ln()).sum::<f64>() / rows.len() as f64).exp()
}

/// One row of the searched-dataflow-vs-fixed-output-stationary sweep
/// (EXPERIMENTS.md E13).
#[derive(Debug, Clone)]
pub struct DataflowSweepRow {
    /// Workload label (mirrors the `conv_reg_n`/`conv_isa` microbenchmarks).
    pub name: String,
    /// Best measured time (µs) over the fixed output-stationary candidates.
    pub os_us: f64,
    /// Best measured time (µs) with the dataflow searched as a dimension.
    pub best_us: f64,
    /// Dataflow of the measured winner (`os`/`sr`).
    pub best_dataflow: &'static str,
    /// Throughput ratio `os_us / best_us` (≥ 1 by construction: the
    /// searched space contains every output-stationary candidate).
    pub speedup: f64,
}

/// The dataflow sweep (E13): the `conv_reg_n`/`conv_isa` microbenchmark
/// workloads, each timed with the schedule's dataflow fixed to
/// output-stationary vs searched over both dataflows. Candidates are
/// preselected per tier by the analytical model (AVX-512 / AVX2 / scalar
/// lane caps mirror `conv_isa`), then timed on the real template.
pub fn dataflow_sweep(cfg: &HarnessCfg) -> Vec<DataflowSweepRow> {
    use neocpu_kernels::conv::Dataflow;
    let workloads = [
        ("reg_n: 3x3 C64->64 @56x56 avx512", Conv2dParams::square(64, 64, 56, 3, 1, 1), usize::MAX),
        ("isa: 3x3 C64->64 @28x28 avx512", Conv2dParams::square(64, 64, 28, 3, 1, 1), usize::MAX),
        ("isa: 3x3 C64->64 @28x28 avx2", Conv2dParams::square(64, 64, 28, 3, 1, 1), 8),
        ("isa: 3x3 C64->64 @28x28 scalar", Conv2dParams::square(64, 64, 28, 3, 1, 1), 1),
    ];
    let (warmup, reps) = (cfg.warmup.max(1), cfg.reps.clamp(3, 50));
    let keep = 4;
    workloads
        .into_iter()
        .map(|(name, p, lanes)| {
            // The per-tier model mirrors what the lane cap does at runtime
            // (cost.rs `efficiency` keys vector width off oc_bn).
            let model = match lanes {
                8 => AnalyticalModel { vec_lanes: 8, ..Default::default() },
                1 => AnalyticalModel { vec_lanes: 1, ..Default::default() },
                _ => AnalyticalModel::default(),
            };
            let best_for = |dataflows: &[Dataflow]| -> (f64, Dataflow) {
                let mut cands: Vec<neocpu_kernels::ConvSchedule> =
                    neocpu_kernels::ConvSchedule::candidates(&p, 64)
                        .into_iter()
                        .filter(|s| dataflows.contains(&s.dataflow))
                        .collect();
                cands.sort_by(|a, b| model.conv_time(&p, a).total_cmp(&model.conv_time(&p, b)));
                cands.truncate(keep);
                cands
                    .iter()
                    .map(|s| (time_f32_conv(&p, s, warmup, reps, lanes), s.dataflow))
                    .fold((f64::INFINITY, Dataflow::OutputStationary), |acc, cur| {
                        if cur.0 < acc.0 { cur } else { acc }
                    })
            };
            let (os_us, _) = best_for(&[Dataflow::OutputStationary]);
            let (searched_us, searched_df) = best_for(&Dataflow::ALL);
            // The searched space is a superset of the fixed-OS space, so
            // the sweep reports min(best OS, best searched) — preselect
            // truncation must never make "searched" look slower than OS.
            let (best_us, best_df) = if searched_us <= os_us {
                (searched_us, searched_df)
            } else {
                (os_us, Dataflow::OutputStationary)
            };
            DataflowSweepRow {
                name: name.to_string(),
                os_us,
                best_us,
                best_dataflow: best_df.token(),
                speedup: os_us / best_us,
            }
        })
        .collect()
}

/// Table 2: overall latency of every model under the three stacks.
pub fn run_table2(cfg: &HarnessCfg) {
    let models = if cfg.models.is_empty() { neocpu_models::zoo() } else { cfg.models.clone() };
    let mut db = SchemeDatabase::new();
    println!(
        "Table 2 — overall performance (ms/inference: mean, std-err; {} scale, {} reps, {} threads)",
        if cfg.full { "FULL" } else { "reduced" },
        cfg.reps,
        cfg.threads,
    );
    println!(
        "{:<16} {:>20} {:>20} {:>20}  best",
        "Unit: ms",
        Stack::LibraryStyle.label(),
        Stack::TfLike.label(),
        Stack::NeoCpu.label()
    );
    let mut neo_wins = 0usize;
    let mut total = 0usize;
    for kind in models {
        let lib = bench_stack(kind, Stack::LibraryStyle, cfg, &mut db);
        let tf = bench_stack(kind, Stack::TfLike, cfg, &mut db);
        let neo = bench_stack(kind, Stack::NeoCpu, cfg, &mut db);
        let best = [(lib.mean_ms, "library-style"), (tf.mean_ms, "tf-like"), (neo.mean_ms, "NeoCPU")]
            .into_iter()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("three entries")
            .1;
        if best == "NeoCPU" {
            neo_wins += 1;
        }
        total += 1;
        println!(
            "{:<16} {:>20} {:>20} {:>20}  {best}",
            kind.name(),
            lib.to_string(),
            tf.to_string(),
            neo.to_string()
        );
    }
    println!("\nNeoCPU best on {neo_wins}/{total} models (paper: 13/15 Intel, 14/15 AMD, 15/15 ARM)");

    // Int8-vs-f32 conv-layer microbenchmark under the AVX2 lane cap — the
    // dtype dimension the global search trades off per layer.
    let micro = int8_micro(cfg);
    println!(
        "\nInt8 vs f32 conv layers (same workload, best AVX2 schedule per dtype, max_lanes={INT8_MICRO_MAX_LANES}):"
    );
    println!("{:<24} {:>12} {:>12} {:>9}", "workload", "f32 (µs)", "int8 (µs)", "speedup");
    for r in &micro {
        println!(
            "{:<24} {:>12.1} {:>12.1} {:>8.2}x",
            r.name, r.f32_us, r.int8_us, r.speedup
        );
    }
    let geomean = int8_geomean(&micro);
    println!("geomean int8 speedup: {geomean:.2}x (acceptance floor: 1.50x)");

    // E13: searched dataflow vs the fixed output-stationary strip on the
    // conv_reg_n/conv_isa workloads.
    let dfs = dataflow_sweep(cfg);
    println!("\nDataflow sweep (best searched dataflow vs fixed output-stationary):");
    println!("{:<34} {:>10} {:>12} {:>9} {:>9}", "workload", "os (µs)", "searched (µs)", "winner", "speedup");
    for r in &dfs {
        println!(
            "{:<34} {:>10.1} {:>12.1} {:>9} {:>8.2}x",
            r.name, r.os_us, r.best_us, r.best_dataflow, r.speedup
        );
    }
}

/// Table 3: ablation — speedup over the NCHW baseline as each optimization
/// is stacked (Layout Opt. → Transform Elim. → Global Search).
pub fn run_table3(cfg: &HarnessCfg) {
    use ModelKind::*;
    let models = if cfg.models.is_empty() {
        vec![ResNet50, Vgg19, DenseNet201, InceptionV3, SsdResNet50]
    } else {
        cfg.models.clone()
    };
    let mut db = SchemeDatabase::new();
    let target = CpuTarget::host();
    println!(
        "Table 3 — individual optimization speedups over the NCHW baseline ({} scale)",
        if cfg.full { "FULL" } else { "reduced" }
    );
    println!(
        "{:<18} {:>10} {:>12} {:>15} {:>14}",
        "Speedup", "Baseline", "Layout Opt.", "Transform Elim.", "Global Search"
    );
    for kind in models {
        let scale = cfg.scale(kind);
        let graph = build(kind, scale, 42);
        let input = Tensor::random([1, 3, scale.input, scale.input], Layout::Nchw, 7, 1.0)
            .expect("valid input");
        let mut row = Vec::new();
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            let mut opts = CompileOptions::level(level).with_threads(cfg.threads);
            if level == OptLevel::O3 {
                opts.search = SearchStrategy::Hybrid { preselect: 6, repeats: 1 };
            }
            let pool = make_pool(cfg.threads, true);
            let module = compile_with_pool(&graph, &target, &opts, pool, &mut db)
                .expect("compilation succeeds");
            // The O0 baseline is expensive; fewer reps suffice for a ratio.
            let reps = if level == OptLevel::O0 { cfg.reps.clamp(1, 3) } else { cfg.reps };
            row.push(measure(&module, &input, cfg.warmup.min(1), reps).mean_ms);
        }
        println!(
            "{:<18} {:>10.2} {:>12.2} {:>15.2} {:>14.2}",
            kind.name(),
            1.0,
            row[0] / row[1],
            row[0] / row[2],
            row[0] / row[3],
        );
    }
    println!("\n(paper at full scale: Layout Opt. 4.08–8.33×, Transform Elim. 5.51–9.33×, Global Search 6.89–12.49×)");
}

/// Figure 4: images/sec as a function of thread count for the custom pool
/// vs the OpenMP-like pool, measured at every thread count the host can
/// run in parallel (up to 8).
pub fn run_fig4(cfg: &HarnessCfg) {
    use ModelKind::*;
    let models = if cfg.models.is_empty() {
        vec![ResNet50, Vgg19, InceptionV3]
    } else {
        cfg.models.clone()
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut db = SchemeDatabase::new();
    let target = CpuTarget::host();

    for kind in models {
        let scale = cfg.scale(kind);
        let graph = build(kind, scale, 42);
        let input = Tensor::random([1, 3, scale.input, scale.input], Layout::Nchw, 7, 1.0)
            .expect("valid input");
        let opts = CompileOptions::level(OptLevel::O2);
        println!("\nFigure 4 — {} (batch 1), {host_cores} hardware threads:", kind.name());
        println!("{:>8} {:>16} {:>16}", "threads", "custom (img/s)", "omp-like (img/s)");
        for n in 1..=host_cores.min(8) {
            let mut row = Vec::new();
            for custom in [true, false] {
                let pool = make_pool(n, custom);
                let m = compile_with_pool(&graph, &target, &opts, pool, &mut db)
                    .expect("compilation succeeds");
                let s = measure(&m, &input, cfg.warmup, cfg.reps);
                row.push(1e3 / s.mean_ms);
            }
            println!("{n:>8} {:>16.2} {:>16.2}", row[0], row[1]);
        }
    }
    println!("\n(paper: the custom pool scales further than every OpenMP-backed stack in Figures 4a-4c)");
}

/// §3.3.2 validation: PBQP quality vs DP across the model zoo, with solve
/// times (the paper: DP ≈ 1 min, PBQP ≈ 10 s, quality ≥ 88%).
pub fn run_pbqp_quality(cfg: &HarnessCfg) {
    use neocpu_graph::passes::{fuse_ops, simplify_inference};
    use neocpu_search::{extract_problem, global::solve_dp, global::solve_pbqp, local_search,
        LocalSearchCfg};

    let models = if cfg.models.is_empty() { neocpu_models::zoo() } else { cfg.models.clone() };
    println!("PBQP vs DP quality across the zoo (analytical cost tables)");
    println!(
        "{:<16} {:>6} {:>7} {:>7} {:>11} {:>11} {:>9} {:>10} {:>10}",
        "model", "convs", "edges", "forest", "DP obj(ms)", "PBQP obj", "dp/pbqp", "DP (µs)", "PBQP (µs)"
    );
    for kind in models {
        let g = build(kind, cfg.scale(kind), 3);
        let g = fuse_ops(&simplify_inference(&g).expect("simplify")).expect("fuse");
        let model = CpuTarget::host().analytical_model();
        let lcfg = LocalSearchCfg { keep: 6, ..Default::default() };
        let mut ranked =
            |_, p: &neocpu_kernels::Conv2dParams| local_search(p, &model, &lcfg);
        let problem = extract_problem(&g, &mut ranked, &model).expect("extract");
        let t0 = Instant::now();
        let dp = solve_dp(&problem);
        let dp_us = t0.elapsed().as_secs_f64() * 1e6;
        let t0 = Instant::now();
        let pb = solve_pbqp(&problem);
        let pb_us = t0.elapsed().as_secs_f64() * 1e6;
        let (dpo, pbo) = (problem.objective(&dp), problem.objective(&pb));
        println!(
            "{:<16} {:>6} {:>7} {:>7} {:>11.3} {:>11.3} {:>8.1}% {:>10.0} {:>10.0}",
            kind.name(),
            problem.nodes.len(),
            problem.edges.len(),
            problem.is_forest(),
            dpo * 1e3,
            pbo * 1e3,
            100.0 * dpo as f64 / pbo.max(f32::EPSILON) as f64,
            dp_us,
            pb_us,
        );
    }
    println!(
        "\n(paper: PBQP achieves at least 88% of the best available result; >100% here means\n\
         PBQP beat the Algorithm 2 DP, which is itself approximate on non-forest graphs)"
    );
}

/// §3.3.1: local-search report for ResNet-50's distinct conv workloads.
pub fn run_local_search(cfg: &HarnessCfg) {
    use neocpu_kernels::conv::ConvSchedule;
    use neocpu_search::{local_search, LocalSearchCfg, TimedMeasurer};

    let kind = cfg.models.first().copied().unwrap_or(ModelKind::ResNet50);
    let scale = cfg.scale(kind);
    let graph = build(kind, scale, 3);
    let timed = TimedMeasurer { repeats: cfg.reps.clamp(1, 3), warmup: 1, max_lanes: usize::MAX };
    let lcfg = LocalSearchCfg { preselect: Some(10), keep: 3, ..Default::default() };
    let mut db = SchemeDatabase::new();
    let mut distinct = 0;
    println!(
        "Local search over {}'s conv workloads ({} scale; timed on the real template)",
        kind.name(),
        if cfg.full { "FULL" } else { "reduced" }
    );
    let t0 = Instant::now();
    for id in graph.conv_ids() {
        let neocpu_graph::Op::Conv2d { params, .. } = &graph.nodes[id].op else { unreachable!() };
        let p = *params;
        let space = ConvSchedule::candidates(&p, 64).len();
        let before = db.len();
        db.get_or_insert_with("host", &p, || local_search(&p, &timed, &lcfg));
        if db.len() > before {
            distinct += 1;
            let best = db.get("host", &p).expect("inserted")[0];
            println!(
                "C{:4}→{:4} @{:3}x{:<3} k{}x{} s{}: space {:4}, best (ic={:2}, oc={:2}, reg_n={:2}, unroll={}) {:9.1} µs",
                p.in_channels, p.out_channels, p.in_h, p.in_w, p.kernel_h, p.kernel_w,
                p.stride_h, space,
                best.schedule.ic_bn, best.schedule.oc_bn, best.schedule.reg_n,
                best.schedule.unroll_ker, best.time * 1e6,
            );
        }
    }
    println!(
        "\n{} convolutions → {distinct} distinct workloads, searched in {:.1}s \
         (paper: 20 workloads for ResNet-50, ~6h exhaustive on 18-core Skylake)",
        graph.conv_ids().len(),
        t0.elapsed().as_secs_f64()
    );
}
