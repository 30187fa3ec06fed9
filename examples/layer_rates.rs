//! Per-layer conv rates: for each distinct convolution workload of
//! ResNet-50 and MobileNet, f32 and u8, the schedule the hybrid search
//! chooses (analytical preselect 8, timed), the strips its rows are cut
//! into, and the single-thread time and rate of that schedule — for a u8
//! row also the time with a requantizing epilogue into a u8 output, the
//! form a conv with a folded `Quantize` runs in. A closing `quantize`
//! section gives the rate of the quantize primitive on one and two threads
//! and, per model, how many `Quantize` boundaries of the int8 module fold
//! and why the others stay.
//!
//! ```text
//! cargo run --release --example layer_rates
//! ```
//!
//! This is the table EXPERIMENTS.md E16 and E17 are made from and the first
//! thing to run after touching a strip or the row driver. It prints and
//! asserts nothing: the numbers are one host's.

use std::time::Instant;

use neocpu::{compile_quantized, CompileOptions, CpuTarget, OptLevel, QuantizeOptions};
use neocpu_graph::passes::{fuse_ops, simplify_inference};
use neocpu_graph::Op;
use neocpu_kernels::conv::{
    conv2d_nchwc_u8, strip_plan, Conv2dParams, ConvQuant, ConvSchedule, Epilogue,
};
use neocpu_kernels::quantize::{
    quantize_dense_weights, quantize_dw_weights, quantize_slice_par, QuantizedWeights,
};
use neocpu_models::{build, ModelKind, ModelScale};
use neocpu_search::{local_search, CostModel, LocalSearchCfg, TimedMeasurer};
use neocpu_tensor::{DType, Layout, Tensor};
use neocpu_threadpool::{Parallelism, Sequential, ThreadPool};

const PRESELECT: usize = 8;
const REPEATS: usize = 3;

/// The distinct conv workloads of a model, in order of first appearance.
fn workloads(kind: ModelKind) -> Vec<Conv2dParams> {
    let graph = build(kind, ModelScale::full(kind), 7);
    let graph = fuse_ops(&simplify_inference(&graph).expect("simplify")).expect("fuse");
    let mut seen = Vec::new();
    for id in graph.conv_ids() {
        if let Op::Conv2d { params, .. } = &graph.nodes[id].op {
            if !seen.contains(params) {
                seen.push(*params);
            }
        }
    }
    seen
}

/// `16×12+4`: the strips of one strip row, runs of equal length folded.
fn plan_text(p: &Conv2dParams, s: &ConvSchedule, max_lanes: usize) -> String {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for rn in strip_plan(s.oc_bn, max_lanes, s.dataflow, p.kernel_w, s.reg_n, p.strip_row().1) {
        match runs.last_mut() {
            Some((len, count)) if *len == rn => *count += 1,
            _ => runs.push((rn, 1)),
        }
    }
    let parts: Vec<String> = runs
        .iter()
        .map(|&(len, count)| if count == 1 { len.to_string() } else { format!("{len}×{count}") })
        .collect();
    parts.join("+")
}

/// Best schedule and seconds of the hybrid f32 search.
fn f32_best(p: &Conv2dParams, target: &CpuTarget) -> Option<(ConvSchedule, f64)> {
    let measurer = TimedMeasurer { repeats: REPEATS, warmup: 1, max_lanes: target.max_lanes() };
    let cfg = LocalSearchCfg {
        preselect: Some(PRESELECT),
        preselect_model: target.analytical_model(),
        keep: 1,
        ..LocalSearchCfg::default()
    };
    local_search(p, &measurer, &cfg).first().map(|r| (r.schedule, f64::from(r.time)))
}

/// Best-of-`REPEATS` seconds of the u8×i8 template under `s`, storing f32 or
/// — with a requantizing epilogue — u8.
fn u8_secs(
    p: &Conv2dParams,
    s: &ConvSchedule,
    input: &Tensor,
    qw: &QuantizedWeights,
    u8_out: bool,
    max_lanes: usize,
) -> f64 {
    let mult: Vec<f32> = qw.scales.iter().map(|w| w / 127.0).collect();
    let out_dims = [1, p.out_channels, p.out_h(), p.out_w()];
    let dtype = if u8_out { DType::U8 } else { DType::F32 };
    let mut out =
        Tensor::zeros_dtyped(out_dims, Layout::NchwC(s.oc_bn), dtype).expect("output shape");
    let quant = ConvQuant { mult: &mult, zero_point: 128 };
    let epilogue = Epilogue { requant: u8_out.then_some((0.05, 128)), ..Epilogue::none() };
    let mut secs = f64::INFINITY;
    for i in 0..=REPEATS {
        let t = Instant::now();
        conv2d_nchwc_u8(
            input, &qw.tensor, &mut out, p, s, &quant, &epilogue, &Sequential, max_lanes, None,
        )
        .expect("candidate validated against the workload");
        if i > 0 {
            secs = secs.min(t.elapsed().as_secs_f64());
        }
    }
    secs
}

/// Best schedule of the same search over the u8×i8 template — the int8
/// analytical model preselects, the real kernel is timed storing f32 — with
/// its seconds storing f32 and storing u8. `None` for a workload no int8
/// schedule serves (the 3-channel stem).
fn u8_best(p: &Conv2dParams, target: &CpuTarget) -> Option<(ConvSchedule, f64, f64)> {
    let model = target.analytical_model();
    let mut candidates: Vec<ConvSchedule> = ConvSchedule::candidates(p, 64)
        .into_iter()
        .filter(|s| model.conv_time_i8(p, s).is_finite())
        .collect();
    candidates.sort_by(|a, b| model.conv_time_i8(p, a).total_cmp(&model.conv_time_i8(p, b)));
    candidates.truncate(PRESELECT);
    let w_dims = [p.out_channels, p.in_channels_per_group(), p.kernel_h, p.kernel_w];
    let weights = Tensor::random(w_dims, Layout::Oihw, 2, 1.0).expect("weight shape");
    let mut best: Option<(ConvSchedule, f64, f64)> = None;
    for s in candidates {
        let in_dims = [1, p.in_channels, p.in_h, p.in_w];
        let mut input = Tensor::zeros_dtyped(in_dims, Layout::NchwC(s.ic_bn), DType::U8)
            .expect("candidate blocks divide the workload");
        for (i, b) in input.data_u8_mut().iter_mut().enumerate() {
            *b = (i * 37 % 251) as u8;
        }
        let qw = if p.is_depthwise() {
            quantize_dw_weights(&weights, s.oc_bn)
        } else {
            quantize_dense_weights(&weights, s.ic_bn, s.oc_bn)
        }
        .expect("candidate blocks divide the workload");
        let secs = u8_secs(p, &s, &input, &qw, false, target.max_lanes());
        if best.is_none_or(|(_, b, _)| secs < b) {
            best = Some((s, secs, u8_secs(p, &s, &input, &qw, true, target.max_lanes())));
        }
    }
    best
}

/// GB/s (4 bytes read + 1 written per element, as `kernels.quantize_gbps`
/// counts them) of the quantize primitive over 4 Mi elements on `par`.
fn quantize_gbps(par: &dyn Parallelism, max_lanes: usize) -> f64 {
    const N: usize = 4 << 20;
    let src: Vec<f32> = (0..N).map(|i| (i % 1021) as f32 * 0.01 - 5.0).collect();
    let mut dst = vec![0u8; N];
    let mut secs = f64::INFINITY;
    for _ in 0..=REPEATS {
        let t = Instant::now();
        quantize_slice_par(std::hint::black_box(&src), &mut dst, 4.0 / 127.0, 128, par, max_lanes);
        secs = secs.min(t.elapsed().as_secs_f64());
    }
    (N * 5) as f64 / 1e9 / secs
}

fn main() {
    let target = CpuTarget::host();
    println!("target {} (max_lanes {}), one thread", target.name, target.max_lanes());
    println!(
        "{:<10} {:<22} {:<4} {:<28} {:<14} {:>9} {:>7} {:>9}",
        "model", "workload", "type", "schedule", "strip row", "µs", "GMAC/s", "→u8 µs"
    );
    for kind in [ModelKind::ResNet50, ModelKind::MobileNet] {
        for p in workloads(kind) {
            let shape = format!(
                "{}{}x{} {}→{}@{}²{}",
                if p.is_depthwise() { "dw " } else { "" },
                p.kernel_h,
                p.kernel_w,
                p.in_channels,
                p.out_channels,
                p.out_w(),
                if p.stride_w > 1 { format!(" s{}", p.stride_w) } else { String::new() },
            );
            let f32_row = f32_best(&p, &target).map(|(s, secs)| (s, secs, None));
            let u8_row = u8_best(&p, &target).map(|(s, secs, to_u8)| (s, secs, Some(to_u8)));
            for (dtype, best) in [("f32", f32_row), ("u8", u8_row)] {
                let Some((s, secs, to_u8)) = best else { continue };
                let schedule = format!(
                    "ic{} oc{} rn{} {}{}",
                    s.ic_bn,
                    s.oc_bn,
                    s.reg_n,
                    s.dataflow.token(),
                    if s.unroll_ker { " unroll" } else { "" },
                );
                println!(
                    "{:<10} {:<22} {:<4} {:<28} {:<14} {:>9.1} {:>7.1} {:>9}",
                    kind.name(),
                    shape,
                    dtype,
                    schedule,
                    plan_text(&p, &s, target.max_lanes()),
                    secs * 1e6,
                    p.macs() as f64 / secs / 1e9,
                    to_u8.map_or(String::new(), |t| format!("{:.1}", t * 1e6)),
                );
            }
        }
    }

    println!(
        "quantize   {:.1} GB/s on one thread, {:.1} GB/s on two",
        quantize_gbps(&Sequential, target.max_lanes()),
        quantize_gbps(&ThreadPool::new(2), target.max_lanes()),
    );
    for kind in [ModelKind::ResNet50, ModelKind::MobileNet] {
        let graph = build(kind, ModelScale::full(kind), 7);
        let opts = CompileOptions::level(OptLevel::O3);
        let (_, report) = compile_quantized(&graph, &target, &opts, &QuantizeOptions::default())
            .expect("the zoo compiles");
        let standalone: usize = report.standalone.iter().map(|s| s.elements).sum();
        println!(
            "quantize   {:<10} {} int8 convs: {} boundaries folded ({} elements per image), \
             {} standalone ({} elements)",
            kind.name(),
            report.quantized,
            report.folded,
            report.folded_elements,
            report.standalone.len(),
            standalone,
        );
        for s in &report.standalone {
            println!("quantize     node {:>3}: {:>7} elements, {}", s.node, s.elements, s.reason);
        }
    }
}
