//! Per-layer conv rates: for each distinct convolution workload of
//! ResNet-50 and MobileNet, f32 and u8, the schedule the hybrid search
//! chooses (analytical preselect 8, timed), the strips its rows are cut
//! into, and the single-thread time and rate of that schedule.
//!
//! ```text
//! cargo run --release --example layer_rates
//! ```
//!
//! This is the table EXPERIMENTS.md E16 is made from and the first thing to
//! run after touching a strip or the row driver. It prints and asserts
//! nothing: the numbers are one host's, on one core.

use std::time::Instant;

use neocpu::CpuTarget;
use neocpu_graph::passes::{fuse_ops, simplify_inference};
use neocpu_graph::Op;
use neocpu_kernels::conv::{
    conv2d_nchwc_u8, strip_plan, Conv2dParams, ConvQuant, ConvSchedule, Epilogue,
};
use neocpu_kernels::quantize::{quantize_dense_weights, quantize_dw_weights};
use neocpu_models::{build, ModelKind, ModelScale};
use neocpu_search::{local_search, CostModel, LocalSearchCfg, TimedMeasurer};
use neocpu_tensor::{DType, Layout, Tensor};
use neocpu_threadpool::Sequential;

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

/// Best schedule and seconds of the same search over the u8×i8 template:
/// the int8 analytical model preselects, the real kernel is timed. `None`
/// for a workload no int8 schedule serves (the 3-channel stem).
fn u8_best(p: &Conv2dParams, target: &CpuTarget) -> Option<(ConvSchedule, f64)> {
    let model = target.analytical_model();
    let mut candidates: Vec<ConvSchedule> = ConvSchedule::candidates(p, 64)
        .into_iter()
        .filter(|s| model.conv_time_i8(p, s).is_finite())
        .collect();
    candidates.sort_by(|a, b| model.conv_time_i8(p, a).total_cmp(&model.conv_time_i8(p, b)));
    candidates.truncate(PRESELECT);
    let w_dims = [p.out_channels, p.in_channels_per_group(), p.kernel_h, p.kernel_w];
    let weights = Tensor::random(w_dims, Layout::Oihw, 2, 1.0).expect("weight shape");
    let mut best: Option<(ConvSchedule, f64)> = None;
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
        let mult: Vec<f32> = qw.scales.iter().map(|w| w / 127.0).collect();
        let out_dims = [1, p.out_channels, p.out_h(), p.out_w()];
        let mut out = Tensor::zeros(out_dims, Layout::NchwC(s.oc_bn)).expect("output shape");
        let quant = ConvQuant { mult: &mult, zero_point: 128 };
        let mut secs = f64::INFINITY;
        for i in 0..=REPEATS {
            let t = Instant::now();
            conv2d_nchwc_u8(
                &input,
                &qw.tensor,
                &mut out,
                p,
                &s,
                &quant,
                &Epilogue::none(),
                &Sequential,
                target.max_lanes(),
                None,
            )
            .expect("candidate validated against the workload");
            if i > 0 {
                secs = secs.min(t.elapsed().as_secs_f64());
            }
        }
        if best.is_none_or(|(_, b)| secs < b) {
            best = Some((s, secs));
        }
    }
    best
}

fn main() {
    let target = CpuTarget::host();
    println!("target {} (max_lanes {}), one thread", target.name, target.max_lanes());
    println!(
        "{:<10} {:<22} {:<4} {:<28} {:<14} {:>9} {:>7}",
        "model", "workload", "type", "schedule", "strip row", "µs", "GMAC/s"
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
            for (dtype, best) in [("f32", f32_best(&p, &target)), ("u8", u8_best(&p, &target))] {
                let Some((s, secs)) = best else { continue };
                let schedule = format!(
                    "ic{} oc{} rn{} {}{}",
                    s.ic_bn,
                    s.oc_bn,
                    s.reg_n,
                    s.dataflow.token(),
                    if s.unroll_ker { " unroll" } else { "" },
                );
                println!(
                    "{:<10} {:<22} {:<4} {:<28} {:<14} {:>9.1} {:>7.1}",
                    kind.name(),
                    shape,
                    dtype,
                    schedule,
                    plan_text(&p, &s, target.max_lanes()),
                    secs * 1e6,
                    p.macs() as f64 / secs / 1e9,
                );
            }
        }
    }
}
