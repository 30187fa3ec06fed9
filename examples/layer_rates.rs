//! Per-layer conv rates: for each distinct convolution workload of
//! ResNet-50 and MobileNet, f32 and u8, the schedule the hybrid search
//! chooses (analytical preselect 8, timed), the strips its rows are cut
//! into, and the single-thread time and rate of that schedule. A u8 row
//! times the form a conv with a folded `Quantize` runs in — bias, ReLU and a
//! requantizing epilogue into a u8 output — and shows, beside the measured
//! best, the int8 analytical model's first pick and what that measures: the
//! model alone picks int8 schedules in a compile, so the ratio of the two
//! columns is that layer's regret. Then the `reg_n` sweep the int8 strip
//! table rests on: `i8_dense` and `i8_dw` at every length their tier holds,
//! per tier (to trial a longer one, add it to the row's `i8 […]` list in
//! `conv/microkernel.rs` and rerun — a length that spills shows as a jump).
//! A closing `quantize` section gives the rate of the quantize primitive on
//! one and two threads and, per model, how many `Quantize` boundaries of the
//! int8 module fold and why the others stay.
//!
//! ```text
//! cargo run --release --example layer_rates
//! ```
//!
//! This is the table EXPERIMENTS.md E16–E18 are made from and the first
//! thing to run after touching a strip or the row driver. It prints and
//! asserts nothing: the numbers are one host's.

use std::time::Instant;

use neocpu::{compile_quantized, CompileOptions, CpuTarget, OptLevel, QuantizeOptions};
use neocpu_graph::passes::{fuse_ops, simplify_inference};
use neocpu_graph::Op;
use neocpu_kernels::conv::{
    conv2d_nchwc_u8, reg_n_candidates, strip_plan, Conv2dParams, ConvQuant,
    ConvSchedule, Dataflow, Epilogue,
};
use neocpu_kernels::quantize::{
    quantize_dense_weights, quantize_dw_weights, quantize_slice_par, QuantizedWeights,
};
use neocpu_models::{build, ModelKind, ModelScale};
use neocpu_search::{local_search, local_search_i8, LocalSearchCfg, TimedMeasurer};
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
fn plan_text(p: &Conv2dParams, s: &ConvSchedule, max_lanes: usize, act: DType) -> String {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let width = p.strip_row().1;
    for rn in strip_plan(s.oc_bn, max_lanes, s.dataflow, p.kernel_w, s.reg_n, width, act) {
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

fn schedule_text(s: &ConvSchedule) -> String {
    format!(
        "ic{} oc{} rn{} {}",
        s.ic_bn,
        s.oc_bn,
        s.reg_n,
        s.dataflow.token(),
    )
}

/// Best schedule and seconds of the hybrid f32 search.
fn f32_best(p: &Conv2dParams, target: &CpuTarget) -> Option<(ConvSchedule, f64)> {
    let measurer = TimedMeasurer { repeats: REPEATS, warmup: 1, max_lanes: target.max_lanes() };
    let cfg = LocalSearchCfg {
        preselect: Some(PRESELECT),
        preselect_model: target.analytical_model(),
        keep: 1,
    };
    local_search(p, &measurer, &cfg).first().map(|r| (r.schedule, f64::from(r.time)))
}

/// Best-of-`REPEATS` seconds of the u8×i8 template under `s` in the form a
/// folded conv runs: bias, ReLU, requantized into a u8 output.
fn u8_secs(p: &Conv2dParams, s: &ConvSchedule, max_lanes: usize) -> f64 {
    let in_dims = [1, p.in_channels, p.in_h, p.in_w];
    let mut input = Tensor::zeros_dtyped(in_dims, Layout::NchwC(s.ic_bn), DType::U8)
        .expect("candidate blocks divide the workload");
    for (i, b) in input.data_u8_mut().iter_mut().enumerate() {
        *b = (i * 37 % 251) as u8;
    }
    let w_dims = [p.out_channels, p.in_channels_per_group(), p.kernel_h, p.kernel_w];
    let weights = Tensor::random(w_dims, Layout::Oihw, 2, 1.0).expect("weight shape");
    let qw: QuantizedWeights = if p.is_depthwise() {
        quantize_dw_weights(&weights, s.oc_bn)
    } else {
        quantize_dense_weights(&weights, s.ic_bn, s.oc_bn)
    }
    .expect("candidate blocks divide the workload");
    let mult: Vec<f32> = qw.scales.iter().map(|w| w / 127.0).collect();
    let bias = vec![0.25f32; p.out_channels];
    let out_dims = [1, p.out_channels, p.out_h(), p.out_w()];
    let mut out = Tensor::zeros_dtyped(out_dims, Layout::NchwC(s.oc_bn), DType::U8)
        .expect("output shape");
    let quant = ConvQuant { mult: &mult, zero_point: 128 };
    let epilogue =
        Epilogue { bias: Some(&bias), relu: true, residual: None, requant: Some((0.05, 128)) };
    let mut secs = f64::INFINITY;
    for i in 0..=REPEATS {
        let t = Instant::now();
        conv2d_nchwc_u8(
            &input, &qw.tensor, &mut out, p, s, &quant, &epilogue, &Sequential, max_lanes, None,
        )
        .expect("candidate validated against the workload");
        if i > 0 {
            secs = secs.min(t.elapsed().as_secs_f64());
        }
    }
    secs
}

/// The int8 side of a compile's search over the u8×i8 template: the
/// compile's int8 local search ranks the schedules the template runs.
/// Returns the model's first pick with its measured seconds, and the
/// measured best of its first `PRESELECT` with its seconds. `None` for a
/// workload no int8 schedule serves (the 3-channel stem).
fn u8_best(p: &Conv2dParams, target: &CpuTarget) -> Option<[(ConvSchedule, f64); 2]> {
    let max_lanes = target.max_lanes();
    let timed: Vec<(ConvSchedule, f64)> =
        local_search_i8(p, &target.analytical_model(), PRESELECT)
            .into_iter()
            .map(|r| (r.schedule, u8_secs(p, &r.schedule, max_lanes)))
            .collect();
    let pick = *timed.first()?;
    let best = *timed.iter().min_by(|a, b| a.1.total_cmp(&b.1))?;
    Some([pick, best])
}

/// The `reg_n` sweep of one tier: each workload at every int8 strip length
/// the tier holds, in the folded form, with the channel blocks fixed.
fn sweep(name: &str, lanes: usize) {
    let workloads = [
        ("i8_dense", Conv2dParams::square(512, 512, 14, 1, 1, 0)),
        ("i8_dense", Conv2dParams::square(128, 128, 28, 3, 1, 1)),
        ("i8_dw", Conv2dParams::depthwise(512, 14, 3, 1, 1)),
        ("i8_dw", Conv2dParams::depthwise(128, 56, 3, 1, 1)),
    ];
    for (body, p) in workloads {
        let ic_bn = if p.is_depthwise() { lanes } else { 64 };
        let mut line = format!("sweep      {name:<7} {body:<9} {:<22}", shape_text(&p));
        for reg_n in reg_n_candidates(lanes, Dataflow::OutputStationary, p.kernel_w, DType::U8) {
            let s = ConvSchedule { ic_bn, oc_bn: lanes, reg_n, ..Default::default() };
            line += &format!(" rn{reg_n} {:.1}", u8_secs(&p, &s, lanes) * 1e6);
        }
        println!("{line} µs");
    }
}

fn shape_text(p: &Conv2dParams) -> String {
    format!(
        "{}{}x{} {}→{}@{}²{}",
        if p.is_depthwise() { "dw " } else { "" },
        p.kernel_h,
        p.kernel_w,
        p.in_channels,
        p.out_channels,
        p.out_w(),
        if p.stride_w > 1 { format!(" s{}", p.stride_w) } else { String::new() },
    )
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
        "{:<10} {:<22} {:<4} {:<28} {:<14} {:>9} {:>7}  model's pick: µs",
        "model", "workload", "type", "schedule", "strip row", "µs", "GMAC/s"
    );
    let mut regret = [0.0f64; 2];
    for kind in [ModelKind::ResNet50, ModelKind::MobileNet] {
        for p in workloads(kind) {
            let row = |act: DType, s: &ConvSchedule, secs: f64, pick: String| {
                println!(
                    "{:<10} {:<22} {:<4} {:<28} {:<14} {:>9.1} {:>7.1}  {pick}",
                    kind.name(),
                    shape_text(&p),
                    act.to_string(),
                    schedule_text(s),
                    plan_text(&p, s, target.max_lanes(), act),
                    secs * 1e6,
                    p.macs() as f64 / secs / 1e9,
                );
            };
            if let Some((s, secs)) = f32_best(&p, &target) {
                row(DType::F32, &s, secs, String::new());
            }
            if let Some([(pick, pick_secs), (best, secs)]) = u8_best(&p, &target) {
                row(DType::U8, &best, secs, format!("{}: {:.1}", schedule_text(&pick), pick_secs * 1e6));
                regret[0] += pick_secs;
                regret[1] += secs;
            }
        }
    }
    println!(
        "u8 layers  model's picks {:.2} ms, measured bests {:.2} ms: regret {:.2}×",
        regret[0] * 1e3,
        regret[1] * 1e3,
        regret[0] / regret[1]
    );
    for (name, lanes) in [("avx2", 8), ("avx512", 16)] {
        if target.max_lanes() >= lanes {
            sweep(name, lanes);
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
