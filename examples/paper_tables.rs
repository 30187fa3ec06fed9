//! The paper's evaluation (§4), one subcommand per artifact:
//!
//! | Subcommand | Paper artifact |
//! |---|---|
//! | `table2` | Table 2 — overall latency, every model × three stacks, then the int8-vs-f32 and dataflow conv micro tables |
//! | `table3` | Table 3 — per-optimization ablation speedups over the NCHW baseline |
//! | `fig4` | Figure 4 — custom pool vs OpenMP-like pool, images/s per thread count |
//! | `pbqp_quality` | §3.3.2 — PBQP vs DP objective and solve time across the zoo |
//! | `local_search` | §3.3.1 — the local search per distinct conv workload |
//!
//! ```text
//! cargo run --release --example paper_tables -- <subcommand> \
//!     [--full] [--reps N] [--warmup N] [--threads N] [--models a,b]
//! ```
//!
//! Reduced-scale models, 5 reps, 1 warm-up and 1 thread by default;
//! `--full` builds the paper-size workloads. It prints and asserts nothing:
//! the numbers are one host's. The gated benchmark is `crates/e2e`.

use std::time::Instant;

use neocpu::{
    compile_with_db, CompileOptions, CpuTarget, Module, OptLevel, PoolChoice, SearchStrategy,
};
use neocpu_graph::passes::{fuse_ops, simplify_inference};
use neocpu_graph::{Graph, Op};
use neocpu_kernels::conv::{
    conv2d_nchwc_u8, Conv2dParams, ConvQuant, ConvSchedule, Dataflow, Epilogue,
};
use neocpu_kernels::quantize::quantize_dense_weights;
use neocpu_models::{build, ModelKind, ModelScale};
use neocpu_search::global::{solve_dp, solve_pbqp};
use neocpu_search::{
    extract_problem, local_search, AnalyticalModel, CostModel, LocalSearchCfg, SchemeDatabase,
    TimedMeasurer,
};
use neocpu_tensor::{DType, Layout, Tensor};
use neocpu_threadpool::Sequential;

/// The flags every subcommand takes.
#[derive(Debug)]
struct Cfg {
    /// Paper-size workloads instead of the reduced ones.
    full: bool,
    /// Timed repetitions per configuration (the paper uses 1000).
    reps: usize,
    /// Warm-up runs.
    warmup: usize,
    /// Threads for end-to-end runs.
    threads: usize,
    /// Model subset (empty = the subcommand's default).
    models: Vec<ModelKind>,
}

impl Cfg {
    fn parse(args: &[String]) -> Self {
        let mut cfg = Self { full: false, reps: 5, warmup: 1, threads: 1, models: Vec::new() };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--full" => cfg.full = true,
                "--models" => {
                    if let Some(list) = args.next() {
                        cfg.models = list.split(',').filter_map(ModelKind::parse).collect();
                    }
                }
                "--reps" | "--warmup" | "--threads" => {
                    let slot = match flag.as_str() {
                        "--reps" => &mut cfg.reps,
                        "--warmup" => &mut cfg.warmup,
                        _ => &mut cfg.threads,
                    };
                    *slot = args.next().and_then(|v| v.parse().ok()).unwrap_or(*slot);
                }
                other => eprintln!("ignoring unknown flag {other}"),
            }
        }
        cfg
    }

    fn scale(&self, kind: ModelKind) -> ModelScale {
        if self.full {
            ModelScale::full(kind)
        } else {
            ModelScale::tiny(kind)
        }
    }

    fn scale_label(&self) -> &'static str {
        if self.full {
            "FULL"
        } else {
            "reduced"
        }
    }

    fn models_or(&self, default: Vec<ModelKind>) -> Vec<ModelKind> {
        if self.models.is_empty() {
            default
        } else {
            self.models.clone()
        }
    }
}

/// A model (weight seed 42) and a random batch-1 input for it.
fn model_and_input(kind: ModelKind, scale: ModelScale) -> (Graph, Tensor) {
    let input = Tensor::random([1, 3, scale.input, scale.input], Layout::Nchw, 7, 1.0)
        .expect("valid input");
    (build(kind, scale, 42), input)
}

/// Mean and standard error of `reps` timed inferences, in ms — Table 2's
/// "mean value of 1000 runs and the corresponding standard error".
fn measure(module: &Module, input: &Tensor, warmup: usize, reps: usize) -> (f64, f64) {
    let run = || module.run(std::slice::from_ref(input)).expect("inference");
    for _ in 0..warmup {
        run();
    }
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>()
        / samples.len().max(2).saturating_sub(1) as f64;
    (mean, (var / n).sqrt())
}

/// The three software stacks of Table 2, mapped onto this reproduction
/// (EXPERIMENTS.md E2 gives the rationale):
/// - library-style (MXNet + MKL-DNN): blocked kernels called per op with
///   transforms in and out of every conv, epilogue fusion, OpenMP-like pool;
/// - tf-like: the same without epilogue fusion;
/// - NeoCPU: searched layouts, fusion, the custom pool.
const STACKS: [&str; 3] = ["library-style", "tf-like", "NeoCPU"];

fn stack_options(stack: &str, cfg: &Cfg) -> CompileOptions {
    if stack == "NeoCPU" {
        let mut o = CompileOptions::level(OptLevel::O3)
            .with_threads(cfg.threads)
            .with_pool(PoolChoice::Custom);
        let preselect = if cfg.full { 8 } else { 6 };
        o.search = SearchStrategy::Hybrid { preselect, repeats: 1 };
        return o;
    }
    let mut o = CompileOptions::level(OptLevel::O1)
        .with_threads(cfg.threads)
        .with_pool(PoolChoice::OmpLike);
    o.fuse = stack == "library-style";
    o
}

/// SIMD-lane cap pinning the int8-vs-f32 micro table to the AVX2 paths
/// (8-lane f32 FMA strips, 32-byte `maddubs` int8 strips) even on hosts
/// with AVX-512.
const INT8_MICRO_MAX_LANES: usize = 8;

/// The `keep` analytically best AVX2-shaped candidates (`oc_bn == 8`,
/// quad-packable `ic_bn`) for `p` under `cost`.
fn avx2_candidates(
    p: &Conv2dParams,
    cost: impl Fn(&Conv2dParams, &ConvSchedule) -> f32,
    keep: usize,
) -> Vec<ConvSchedule> {
    let mut cands: Vec<ConvSchedule> = ConvSchedule::candidates(p, 64)
        .into_iter()
        .filter(|s| s.oc_bn == 8 && s.ic_bn.is_multiple_of(4))
        .collect();
    cands.sort_by(|a, b| cost(p, a).total_cmp(&cost(p, b)));
    cands.truncate(keep.max(1));
    cands
}

/// Best-of-`reps` time (µs) of one f32 blocked conv under `max_lanes`.
fn time_f32_conv(
    p: &Conv2dParams,
    s: &ConvSchedule,
    warmup: usize,
    reps: usize,
    max_lanes: usize,
) -> f64 {
    f64::from(TimedMeasurer { repeats: reps, warmup, max_lanes }.conv_time(p, s)) * 1e6
}

/// Best-of-`reps` time (µs) of the same workload through the quad-packed
/// `u8×i8` template at the AVX2 lane cap.
fn time_int8_conv(p: &Conv2dParams, s: &ConvSchedule, warmup: usize, reps: usize) -> f64 {
    let mut input =
        Tensor::zeros_dtyped([1, p.in_channels, p.in_h, p.in_w], Layout::NchwC(s.ic_bn), DType::U8)
            .expect("valid micro input");
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
    .expect("valid micro weights");
    let qw = quantize_dense_weights(&wsrc, s.ic_bn, s.oc_bn).expect("quad-packable workload");
    let mult: Vec<f32> = qw.scales.iter().map(|sw| sw / 127.0).collect();
    let mut out = Tensor::zeros([1, p.out_channels, p.out_h(), p.out_w()], Layout::NchwC(s.oc_bn))
        .expect("valid micro output");
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

/// The int8-vs-f32 micro table behind the dtype dimension of the global
/// search: representative ResNet-50 dense convs through the f32 and
/// quad-packed int8 templates under the same AVX2 lane cap, each dtype at
/// its analytically best AVX2-shaped schedules.
fn print_int8_micro(cfg: &Cfg) {
    let d = if cfg.full { 1 } else { 4 };
    let workloads = [
        (3, 64, 64, 56),
        (3, 128, 128, 28),
        (3, 256, 256, 14),
        (1, 64, 256, 56),
        (1, 512, 512, 14),
    ];
    let model = AnalyticalModel { vec_lanes: INT8_MICRO_MAX_LANES, ..Default::default() };
    let (warmup, reps) = (cfg.warmup.max(1), cfg.reps.clamp(3, 50));
    let keep = 6;
    println!(
        "\nInt8 vs f32 conv layers (same workload, best AVX2 schedule per dtype, max_lanes={INT8_MICRO_MAX_LANES}):"
    );
    println!("{:<24} {:>12} {:>12} {:>9}", "workload", "f32 (µs)", "int8 (µs)", "speedup");
    let mut log_sum = 0.0;
    for (k, cin, cout, hw) in workloads {
        let (cin, cout) = (cin / d, cout / d);
        let p = Conv2dParams::square(cin, cout, hw, k, 1, k / 2);
        let f32_us = avx2_candidates(&p, |p, s| model.conv_time(p, s), keep)
            .iter()
            .map(|s| time_f32_conv(&p, s, warmup, reps, INT8_MICRO_MAX_LANES))
            .fold(f64::INFINITY, f64::min);
        let int8_us = avx2_candidates(&p, |p, s| model.conv_time_i8(p, s), keep)
            .iter()
            .map(|s| time_int8_conv(&p, s, warmup, reps))
            .fold(f64::INFINITY, f64::min);
        let speedup = f32_us / int8_us;
        log_sum += speedup.ln();
        let name = format!("{k}x{k} C{cin}->{cout} @{hw}x{hw}");
        println!("{name:<24} {f32_us:>12.1} {int8_us:>12.1} {speedup:>8.2}x");
    }
    let geomean = (log_sum / workloads.len() as f64).exp();
    println!("geomean int8 speedup: {geomean:.2}x (acceptance floor: 1.50x)");
}

/// The dataflow sweep (EXPERIMENTS.md E13): each workload timed with the
/// dataflow fixed to output-stationary and searched over both, candidates
/// preselected per tier by the analytical model (lane caps AVX-512 / AVX2 /
/// scalar), then timed on the real template.
fn print_dataflow_sweep(cfg: &Cfg) {
    let workloads = [
        ("reg_n: 3x3 C64->64 @56x56 avx512", 56, usize::MAX),
        ("isa: 3x3 C64->64 @28x28 avx512", 28, usize::MAX),
        ("isa: 3x3 C64->64 @28x28 avx2", 28, 8),
        ("isa: 3x3 C64->64 @28x28 scalar", 28, 1),
    ];
    let (warmup, reps) = (cfg.warmup.max(1), cfg.reps.clamp(3, 50));
    let keep = 4;
    println!("\nDataflow sweep (best searched dataflow vs fixed output-stationary):");
    println!(
        "{:<34} {:>10} {:>12} {:>9} {:>9}",
        "workload", "os (µs)", "searched (µs)", "winner", "speedup"
    );
    for (name, hw, lanes) in workloads {
        let p = Conv2dParams::square(64, 64, hw, 3, 1, 1);
        // The per-tier model mirrors what the lane cap does at runtime.
        let model = match lanes {
            8 | 1 => AnalyticalModel { vec_lanes: lanes, ..Default::default() },
            _ => AnalyticalModel::default(),
        };
        let best_for = |dataflows: &[Dataflow]| -> (f64, Dataflow) {
            let mut cands: Vec<ConvSchedule> = ConvSchedule::candidates(&p, 64)
                .into_iter()
                .filter(|s| dataflows.contains(&s.dataflow))
                .collect();
            cands.sort_by(|a, b| model.conv_time(&p, a).total_cmp(&model.conv_time(&p, b)));
            cands.truncate(keep);
            cands
                .iter()
                .map(|s| (time_f32_conv(&p, s, warmup, reps, lanes), s.dataflow))
                .fold((f64::INFINITY, Dataflow::OutputStationary), |acc, cur| {
                    if cur.0 < acc.0 {
                        cur
                    } else {
                        acc
                    }
                })
        };
        let (os_us, _) = best_for(&[Dataflow::OutputStationary]);
        // The searched space holds every output-stationary candidate, so a
        // preselect cut must never make "searched" look slower than OS.
        let (best_us, best_df) = match best_for(&Dataflow::ALL) {
            (us, df) if us <= os_us => (us, df),
            _ => (os_us, Dataflow::OutputStationary),
        };
        println!(
            "{name:<34} {os_us:>10.1} {best_us:>12.1} {:>9} {:>8.2}x",
            best_df.token(),
            os_us / best_us
        );
    }
}

/// Table 2: overall latency of every model under the three stacks.
fn table2(cfg: &Cfg) {
    let models = cfg.models_or(neocpu_models::zoo());
    let mut db = SchemeDatabase::new();
    let target = CpuTarget::host();
    println!(
        "Table 2 — overall performance (ms/inference: mean, std-err; {} scale, {} reps, {} threads)",
        cfg.scale_label(),
        cfg.reps,
        cfg.threads,
    );
    println!("{:<16} {:>20} {:>20} {:>20}  best", "Unit: ms", STACKS[0], STACKS[1], STACKS[2]);
    let (mut neo_wins, total) = (0, models.len());
    for kind in models {
        let (graph, input) = model_and_input(kind, cfg.scale(kind));
        let stats = STACKS.map(|stack| {
            let module = compile_with_db(&graph, &target, &stack_options(stack, cfg), &mut db)
                .expect("compilation succeeds");
            measure(&module, &input, cfg.warmup, cfg.reps)
        });
        let best = (0..3).min_by(|&a, &b| stats[a].0.total_cmp(&stats[b].0)).expect("three stacks");
        neo_wins += usize::from(best == 2);
        let [lib, tf, neo] = stats.map(|(mean, err)| format!("{mean:.2}, {err:.2}"));
        println!("{:<16} {lib:>20} {tf:>20} {neo:>20}  {}", kind.name(), STACKS[best]);
    }
    println!("\nNeoCPU best on {neo_wins}/{total} models (paper: 13/15 Intel, 14/15 AMD, 15/15 ARM)");
    print_int8_micro(cfg);
    print_dataflow_sweep(cfg);
}

/// Table 3: speedup over the NCHW baseline as each optimization is
/// stacked (Layout Opt. → Transform Elim. → Global Search).
fn table3(cfg: &Cfg) {
    use ModelKind::*;
    let models = cfg.models_or(vec![ResNet50, Vgg19, DenseNet201, InceptionV3, SsdResNet50]);
    let mut db = SchemeDatabase::new();
    let target = CpuTarget::host();
    println!(
        "Table 3 — individual optimization speedups over the NCHW baseline ({} scale)",
        cfg.scale_label()
    );
    println!(
        "{:<18} {:>10} {:>12} {:>15} {:>14}",
        "Speedup", "Baseline", "Layout Opt.", "Transform Elim.", "Global Search"
    );
    for kind in models {
        let (graph, input) = model_and_input(kind, cfg.scale(kind));
        let ms = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3].map(|level| {
            let mut opts = CompileOptions::level(level)
                .with_threads(cfg.threads)
                .with_pool(PoolChoice::Custom);
            if level == OptLevel::O3 {
                opts.search = SearchStrategy::Hybrid { preselect: 6, repeats: 1 };
            }
            let module =
                compile_with_db(&graph, &target, &opts, &mut db).expect("compilation succeeds");
            // The O0 baseline is expensive; fewer reps suffice for a ratio.
            let reps = if level == OptLevel::O0 { cfg.reps.clamp(1, 3) } else { cfg.reps };
            measure(&module, &input, cfg.warmup.min(1), reps).0
        });
        println!(
            "{:<18} {:>10.2} {:>12.2} {:>15.2} {:>14.2}",
            kind.name(),
            1.0,
            ms[0] / ms[1],
            ms[0] / ms[2],
            ms[0] / ms[3],
        );
    }
    println!("\n(paper at full scale: Layout Opt. 4.08–8.33×, Transform Elim. 5.51–9.33×, Global Search 6.89–12.49×)");
}

/// Figure 4: images/s per thread count for the custom pool vs the
/// OpenMP-like pool, at every thread count the host runs in parallel (up
/// to 8).
fn fig4(cfg: &Cfg) {
    use ModelKind::*;
    let models = cfg.models_or(vec![ResNet50, Vgg19, InceptionV3]);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut db = SchemeDatabase::new();
    let target = CpuTarget::host();
    for kind in models {
        let (graph, input) = model_and_input(kind, cfg.scale(kind));
        println!("\nFigure 4 — {} (batch 1), {host_cores} hardware threads:", kind.name());
        println!("{:>8} {:>16} {:>16}", "threads", "custom (img/s)", "omp-like (img/s)");
        for n in 1..=host_cores.min(8) {
            let [custom, omp] = [PoolChoice::Custom, PoolChoice::OmpLike].map(|pool| {
                let opts = CompileOptions::level(OptLevel::O2).with_threads(n).with_pool(pool);
                let module =
                    compile_with_db(&graph, &target, &opts, &mut db).expect("compilation succeeds");
                1e3 / measure(&module, &input, cfg.warmup, cfg.reps).0
            });
            println!("{n:>8} {custom:>16.2} {omp:>16.2}");
        }
    }
    println!("\n(paper: the custom pool scales further than every OpenMP-backed stack in Figures 4a-4c)");
}

/// §3.3.2: PBQP quality vs DP across the zoo on the analytical cost
/// tables, with solve times (the paper: DP ≈ 1 min, PBQP ≈ 10 s, quality
/// ≥ 88%).
fn pbqp_quality(cfg: &Cfg) {
    let models = cfg.models_or(neocpu_models::zoo());
    println!("PBQP vs DP quality across the zoo (analytical cost tables)");
    println!(
        "{:<16} {:>6} {:>7} {:>7} {:>11} {:>11} {:>9} {:>10} {:>10}",
        "model", "convs", "edges", "forest", "DP obj(ms)", "PBQP obj", "dp/pbqp", "DP (µs)", "PBQP (µs)"
    );
    let model = CpuTarget::host().analytical_model();
    let lcfg = LocalSearchCfg { keep: 6, ..Default::default() };
    for kind in models {
        let g = build(kind, cfg.scale(kind), 3);
        let g = fuse_ops(&simplify_inference(&g).expect("simplify")).expect("fuse");
        let mut ranked = |_, p: &Conv2dParams| local_search(p, &model, &lcfg);
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

/// §3.3.1: the local search over one model's distinct conv workloads
/// (default ResNet-50), timed on the real template.
fn local_search_report(cfg: &Cfg) {
    let kind = cfg.models.first().copied().unwrap_or(ModelKind::ResNet50);
    let graph = build(kind, cfg.scale(kind), 3);
    let timed = TimedMeasurer { repeats: cfg.reps.clamp(1, 3), warmup: 1, max_lanes: usize::MAX };
    let lcfg = LocalSearchCfg { preselect: Some(10), keep: 3, ..Default::default() };
    let mut db = SchemeDatabase::new();
    println!(
        "Local search over {}'s conv workloads ({} scale; timed on the real template)",
        kind.name(),
        cfg.scale_label()
    );
    let t0 = Instant::now();
    for id in graph.conv_ids() {
        let Op::Conv2d { params: p, .. } = &graph.nodes[id].op else {
            unreachable!("conv_ids yields convs")
        };
        let before = db.len();
        db.get_or_insert_with("host", p, || local_search(p, &timed, &lcfg));
        if db.len() > before {
            let best = db.get("host", p).expect("inserted")[0];
            let s = best.schedule;
            println!(
                "C{:4}→{:4} @{:3}x{:<3} k{}x{} s{}: space {:4}, best (ic={:2}, oc={:2}, reg_n={:2}) {:9.1} µs",
                p.in_channels, p.out_channels, p.in_h, p.in_w, p.kernel_h, p.kernel_w,
                p.stride_h, ConvSchedule::candidates(p, 64).len(),
                s.ic_bn, s.oc_bn, s.reg_n, best.time * 1e6,
            );
        }
    }
    println!(
        "\n{} convolutions → {} distinct workloads, searched in {:.1}s \
         (paper: 20 workloads for ResNet-50, ~6h exhaustive on 18-core Skylake)",
        graph.conv_ids().len(),
        db.len(),
        t0.elapsed().as_secs_f64()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run: fn(&Cfg) = match args.first().map(String::as_str) {
        Some("table2") => table2,
        Some("table3") => table3,
        Some("fig4") => fig4,
        Some("pbqp_quality") => pbqp_quality,
        Some("local_search") => local_search_report,
        _ => {
            eprintln!(
                "usage: paper_tables <table2|table3|fig4|pbqp_quality|local_search> \
                 [--full] [--reps N] [--warmup N] [--threads N] [--models a,b]"
            );
            std::process::exit(2);
        }
    };
    run(&Cfg::parse(&args[1..]));
}
