//! Post-training int8 quantization (compile-time pass).
//!
//! The int8 path runs eligible scheduled convolutions on their
//! `u8 × i8 → i32` quad-packed kernels, in one compile:
//!
//! 1. **Decide and pack** — while the planned graph's weights are still
//!    plain `OIHW`, each scheduled conv must pass an analytical profit test
//!    (so 3-channel stems and other vectorization-hostile workloads stay
//!    f32 per layer), and the winners' weights are packed to symmetric
//!    per-out-channel i8 ([`Layout`]`::OihwIo4` dense, `OIHW1i[x]o`
//!    depthwise). The planned graph then becomes the f32 module.
//! 2. **Calibrate** — the f32 module runs over calibration inputs; the
//!    executor's per-node hook records the range of every int8 conv's
//!    input, which gives its asymmetric u8 scale and zero point.
//! 3. **Annotate and place** — on a copy of the f32 module's graph (its f32
//!    convs keep the module's blocked weights), each int8 conv takes its
//!    packed weights, its bias folded with the zero-point correction
//!    `bias − m·zp·Σw_q`, and a [`QuantInfo`] with the multiplier
//!    `m[oc] = s_in · s_w[oc]`. Its contract now asks for u8, and the one
//!    placer, `insert_layout_transforms`, adds the [`Op::Quantize`] nodes.
//! 4. **Fold** — a `Quantize` node whose producer is a scheduled conv with
//!    no other consumer disappears into that conv's epilogue (`requant`):
//!    the conv stores the `u8` the next conv reads. The fused byte is
//!    `quantize_value` of the very f32 the pair would have stored, so the
//!    fold moves no output bit; [`QuantizeReport`] carries the census of
//!    folded and standalone boundaries with the reason for each one left.
//! 5. **Accuracy gate** — if the quantized module's outputs differ from the
//!    f32 module's on the calibration set by more than the budget, the
//!    compile *falls back to the f32 module* and reports it.
//!
//! A model thus compiles into a mix of int8 and f32 convs, with dtype
//! chosen per workload by the same search that chooses blocking factors
//! (see `plan_stage` with `int8 = true`).

use std::collections::HashMap;

use neocpu_graph::passes::insert_layout_transforms;
use neocpu_graph::{infer_shapes, Graph, Node, NodeId, Op, QuantInfo};
use neocpu_kernels::conv::fitting_reg_n;
use neocpu_kernels::quantize::{quantize_dense_weights, quantize_dw_weights, QuantizedWeights};
use neocpu_search::{CostModel, SchemeDatabase};
use neocpu_tensor::{DType, Layout, Tensor};

use crate::compile::{finish_module, plan_stage, CompileOptions, CompileReport};
use crate::executor::Module;
use crate::target::CpuTarget;
use crate::{NeoError, Result};

/// Default whole-model max-abs-error budget for the int8 accuracy gate,
/// measured against the f32 module's outputs on the calibration set.
///
/// Classification heads end in softmax, so outputs are probabilities and
/// an absolute tolerance is meaningful across models; feature-map outputs
/// of headless graphs are noisier, and callers with such graphs should set
/// their own budget in [`QuantizeOptions`].
pub const DEFAULT_INT8_ERROR_BUDGET: f32 = 0.05;

/// Options for [`compile_quantized`].
#[derive(Debug, Clone)]
pub struct QuantizeOptions {
    /// Max abs error allowed between quantized and f32 outputs on the
    /// calibration set before the compile falls back to f32.
    pub error_budget: f32,
    /// Calibration input sets (one `Vec<Tensor>` per inference). Empty
    /// means "generate [`QuantizeOptions::auto_runs`] deterministic random
    /// sets from the graph's input shapes".
    pub calibration: Vec<Vec<Tensor>>,
    /// Number of auto-generated calibration runs when none are supplied.
    pub auto_runs: usize,
    /// Seed for auto-generated calibration inputs.
    pub seed: u64,
}

impl Default for QuantizeOptions {
    fn default() -> Self {
        Self {
            error_budget: DEFAULT_INT8_ERROR_BUDGET,
            calibration: Vec::new(),
            auto_runs: 2,
            seed: 0x0ff5e7,
        }
    }
}

/// What the quantization pass did to one compile.
#[derive(Debug, Clone, Default)]
pub struct QuantizeReport {
    /// Scheduled convs now running the int8 kernels.
    pub quantized: usize,
    /// Scheduled convs kept on f32 (ineligible or unprofitable).
    pub skipped: usize,
    /// Max abs output error vs. the f32 module on the calibration set.
    pub max_abs_error: f32,
    /// Whether the accuracy gate rejected the quantized module and the
    /// returned module is the f32 one.
    pub fell_back: bool,
    /// `Quantize` nodes folded into their producer's requantizing epilogue.
    pub folded: usize,
    /// Elements (at the compiled batch) those folded boundaries carry — f32
    /// values no longer stored and re-read.
    pub folded_elements: usize,
    /// The `Quantize` nodes left standalone, in graph order.
    pub standalone: Vec<StandaloneQuantize>,
    /// The underlying compile diagnostics (dropped schemes, fallbacks,
    /// memory plan of the returned module).
    pub compile: CompileReport,
}

/// A `Quantize` node the fold left in the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandaloneQuantize {
    /// Its id in the quantized graph.
    pub node: NodeId,
    /// Why it could not fold: `producer has f32 consumers`, `graph output`,
    /// `behind a layout transform` or `producer is not a scheduled conv`.
    pub reason: &'static str,
    /// Elements it converts per run (at the compiled batch).
    pub elements: usize,
}

/// Compiles `graph` with the int8 quantization pass, using a throwaway
/// scheme database.
///
/// # Errors
///
/// Returns an error if the graph is invalid or a pass fails. An accuracy
/// budget violation is *not* an error — the f32 module is returned with
/// [`QuantizeReport::fell_back`] set.
pub fn compile_quantized(
    graph: &Graph,
    target: &CpuTarget,
    opts: &CompileOptions,
    qopts: &QuantizeOptions,
) -> Result<(Module, QuantizeReport)> {
    let mut db = SchemeDatabase::new();
    compile_quantized_with_db(graph, target, opts, qopts, &mut db)
}

/// Compiles `graph` with the int8 quantization pass, reading/writing
/// schedule candidates (both f32 and `d`-suffixed int8 entries) in `db`.
///
/// # Errors
///
/// See [`compile_quantized`].
pub fn compile_quantized_with_db(
    graph: &Graph,
    target: &CpuTarget,
    opts: &CompileOptions,
    qopts: &QuantizeOptions,
    db: &mut SchemeDatabase,
) -> Result<(Module, QuantizeReport)> {
    let mut report = CompileReport::default();
    let planned = plan_stage(graph, target, opts, db, &mut report, true)?;
    // Which convs go int8 and their packed weights depend on the schedules
    // and the plain weights only, so they are settled before `finish_module`
    // blocks those weights in place.
    let packed = pack_int8_convs(&planned, &target.analytical_model());
    let f32_module = finish_module(planned, target, opts, &mut report)?;

    let calib: Vec<Vec<Tensor>> = if qopts.calibration.is_empty() {
        auto_calibration(&f32_module, qopts)?
    } else {
        qopts.calibration.clone()
    };
    if calib.is_empty() {
        return Err(NeoError::BadInput(
            "int8 compilation needs at least one calibration input set".into(),
        ));
    }

    let stats = calibrate(&f32_module, &packed, &calib)?;
    let mut qreport = QuantizeReport::default();
    // On the f32 module's graph, so the f32 convs share the blocked weights
    // the module holds.
    let unfolded = quantize_convs(
        f32_module.graph().clone(),
        packed,
        &stats,
        target.max_lanes(),
        &mut qreport,
    )?;
    let module = if qreport.quantized == 0 {
        f32_module
    } else {
        let qgraph = fold_quantizes(unfolded, &mut qreport)?;
        let q_module = finish_module(qgraph, target, opts, &mut report)?;
        // Accuracy gate: quantized vs f32 outputs over the calibration set.
        for set in &calib {
            for (a, b) in f32_module.run(set)?.iter().zip(&q_module.run(set)?) {
                qreport.max_abs_error = qreport.max_abs_error.max(a.max_abs_diff(b));
            }
        }
        qreport.fell_back = qreport.max_abs_error > qopts.error_budget;
        if qreport.fell_back {
            f32_module
        } else {
            q_module
        }
    };
    // `finish_module` recorded the last module it built; the report names
    // the one returned.
    report.memory = *module.memory_report();
    qreport.compile = report;
    Ok((module, qreport))
}

/// Deterministic random calibration inputs in the f32 module's input
/// shapes and layouts.
fn auto_calibration(module: &Module, qopts: &QuantizeOptions) -> Result<Vec<Vec<Tensor>>> {
    let inputs: Vec<_> = module.input_shapes().into_iter().zip(module.input_layouts()).collect();
    let mut runs = Vec::with_capacity(qopts.auto_runs.max(1));
    for r in 0..qopts.auto_runs.max(1) {
        let mut set = Vec::with_capacity(inputs.len());
        for (i, (shape, layout)) in inputs.iter().enumerate() {
            let seed = qopts.seed ^ (r as u64).wrapping_mul(0x9e37_79b9) ^ (i as u64) << 32;
            let t = Tensor::random(shape.dims(), *layout, seed, 1.0)
                .map_err(|e| NeoError::BadInput(format!("calibration input: {e}")))?;
            set.push(t);
        }
        runs.push(set);
    }
    Ok(runs)
}

/// Records (min, max) over the calibration set of every value an int8
/// conv reads, by the per-node hook of an arena run as each value is
/// produced. `min` and `max` pass over NaNs (they quantize to the zero
/// point anyway).
fn calibrate(
    module: &Module,
    packed: &[(NodeId, QuantizedWeights)],
    calib: &[Vec<Tensor>],
) -> Result<HashMap<NodeId, (f32, f32)>> {
    let nodes = &module.graph().nodes;
    let wanted: std::collections::HashSet<NodeId> =
        packed.iter().map(|&(id, _)| nodes[id].inputs[0]).collect();
    let mut stats: HashMap<NodeId, (f32, f32)> = HashMap::new();
    for set in calib {
        module.run_hooked(set, Some(&mut |id, t, _| {
            if !wanted.contains(&id) {
                return;
            }
            let (lo, hi) = stats.entry(id).or_insert((f32::INFINITY, f32::NEG_INFINITY));
            for &v in &t.data()[..t.num_elements()] {
                (*lo, *hi) = (lo.min(v), hi.max(v));
            }
        }))?;
    }
    Ok(stats)
}

/// Derives the activation quantization parameters from an observed range.
///
/// The range is widened to include zero so the zero point is always an
/// exact u8 code (padding halos and ReLU floors then quantize without
/// error). A degenerate or non-finite range maps to `(1.0, 0)` — every
/// value quantizes to the zero point and dequantizes to exactly 0.
fn activation_qparams(min: f32, max: f32) -> (f32, u8) {
    let lo = min.min(0.0);
    let hi = max.max(0.0);
    let scale = (hi - lo) / 255.0;
    if !(scale.is_finite() && scale > 0.0) {
        return (1.0, 0);
    }
    let zp = (-lo / scale).round().clamp(0.0, 255.0) as u8;
    (scale, zp)
}

/// Decides which scheduled convs of `planned` go int8 and packs their
/// plain `OIHW` weights to symmetric per-out-channel i8. Each must pass the
/// analytical profit test under the schedule the planner assigned
/// (`conv_time_i8 < conv_time`, infinite for a schedule that
/// `ConvSchedule::validate_int8` refuses, so the test also encodes hard
/// eligibility), and its weights must pack cleanly. Neither depends on
/// calibration.
fn pack_int8_convs(planned: &Graph, model: &impl CostModel) -> Vec<(NodeId, QuantizedWeights)> {
    let pack = |id: NodeId| {
        let Op::Conv2d { params, weight, schedule: Some(s), quant: None, .. } =
            &planned.nodes[id].op
        else {
            return None;
        };
        let t8 = model.conv_time_i8(params, s);
        if !t8.is_finite() || t8 >= model.conv_time(params, s) {
            return None;
        }
        let w = &planned.params[*weight];
        let qw = if params.groups > 1 {
            quantize_dw_weights(w, s.oc_bn)
        } else {
            quantize_dense_weights(w, s.ic_bn, s.oc_bn)
        };
        Some((id, qw.ok()?))
    };
    planned.conv_ids().into_iter().filter_map(pack).collect()
}

/// Puts each packed conv of `g` on the int8 path in place, then places the
/// `Quantize` nodes their u8 inputs need with the one placer
/// (`insert_layout_transforms`). A conv gets its packed weights, the
/// [`QuantInfo`] of its input's calibrated range with the per-out-channel
/// multiplier `m[oc] = s_in · s_w[oc]`, its bias folded with the
/// zero-point correction, and its `reg_n` re-fit to the int8 strips under
/// `max_lanes` (the planner's schedules name f32 strip lengths). A conv
/// whose input has no range stays f32. Every int8 conv still stores f32;
/// `report` gets the conv counts.
fn quantize_convs(
    mut g: Graph,
    packed: Vec<(NodeId, QuantizedWeights)>,
    stats: &HashMap<NodeId, (f32, f32)>,
    max_lanes: usize,
    report: &mut QuantizeReport,
) -> Result<Graph> {
    for (id, qw) in packed {
        let Some(&(lo, hi)) = stats.get(&g.nodes[id].inputs[0]) else { continue };
        let (in_scale, in_zp) = activation_qparams(lo, hi);
        let Op::Conv2d { params, bias, .. } = &g.nodes[id].op else { unreachable!() };
        let oc = params.out_channels;
        let mult: Vec<f32> = qw.scales.iter().map(|&sw| in_scale * sw).collect();
        // Compile-time zero-point correction: with a zp-filled padding halo
        // the exact dequantized conv is `m·Σa_q·w_q − m·zp·Σw_q`, so the
        // second term folds into the bias once, here.
        let folded: Vec<f32> = (0..oc)
            .map(|o| {
                let base = bias.map_or(0.0, |b| g.params[b].data()[o]);
                base - mult[o] * f32::from(in_zp) * qw.tap_sums[o] as f32
            })
            .collect();
        let qweight = g.push_param(qw.tensor);
        let qmult = g.push_param(Tensor::from_vec(mult, [oc], Layout::Flat)?);
        let qbias = g.push_param(Tensor::from_vec(folded, [oc], Layout::Flat)?);
        let Op::Conv2d { params, weight, bias, schedule: Some(s), quant, .. } = &mut g.nodes[id].op
        else {
            unreachable!("only scheduled convs are packed")
        };
        (*weight, *bias) = (qweight, Some(qbias));
        *quant = Some(QuantInfo { in_scale, in_zp, mult: qmult });
        // The module records the strip the u8 template runs.
        s.reg_n = fitting_reg_n(params, s.oc_bn, max_lanes, s.reg_n, DType::U8);
        report.quantized += 1;
    }
    report.skipped = g
        .nodes
        .iter()
        .filter(|n| matches!(n.op, Op::Conv2d { schedule: Some(_), quant: None, .. }))
        .count();
    Ok(insert_layout_transforms(&g)?)
}

/// Folds `conv → Quantize{s, zp}` into `conv{requant (s, zp)}` wherever the
/// `Quantize` is the conv's only consumer (graph outputs count as
/// consumers) and the conv is scheduled: the node disappears and its
/// readers — both branch convs of a shared, memoized `Quantize` — read the
/// conv's `u8` output. Every other `Quantize` stays, and `report` says why.
fn fold_quantizes(g: Graph, report: &mut QuantizeReport) -> Result<Graph> {
    let shapes = infer_shapes(&g)?;
    let fanout = g.fanout();
    let mut nodes: Vec<Node> = Vec::with_capacity(g.len());
    let mut map: Vec<NodeId> = Vec::with_capacity(g.len());
    for (id, node) in g.nodes.iter().enumerate() {
        let inputs: Vec<NodeId> = node.inputs.iter().map(|&i| map[i]).collect();
        if let Op::Quantize { scale, zero_point } = node.op {
            let (producer, elements) = (node.inputs[0], shapes[id].num_elements());
            let reason = match &g.nodes[producer].op {
                Op::Conv2d { schedule: Some(_), requant: None, .. } if fanout[producer] == 1 => {
                    let Op::Conv2d { requant, .. } = &mut nodes[inputs[0]].op else {
                        unreachable!("the map sends a conv to its own copy");
                    };
                    *requant = Some((scale, zero_point));
                    report.folded += 1;
                    report.folded_elements += elements;
                    map.push(inputs[0]);
                    continue;
                }
                Op::Conv2d { schedule: Some(_), .. } if g.outputs.contains(&producer) => {
                    "graph output"
                }
                Op::Conv2d { schedule: Some(_), .. } => "producer has f32 consumers",
                Op::LayoutTransform { .. } => "behind a layout transform",
                _ => "producer is not a scheduled conv",
            };
            report.standalone.push(StandaloneQuantize { node: nodes.len(), reason, elements });
        }
        map.push(nodes.len());
        nodes.push(Node { op: node.op.clone(), inputs });
    }
    let outputs = g.outputs.iter().map(|&o| map[o]).collect();
    Ok(Graph { nodes, params: g.params, outputs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, OptLevel};
    use neocpu_graph::GraphBuilder;

    fn conv_net(channels: usize) -> Graph {
        let mut b = GraphBuilder::new(41);
        let x = b.input([1, channels, 12, 12]);
        let c1 = b.conv_bn_relu(x, 16, 3, 1, 1);
        let c2 = b.conv_bn_relu(c1, 16, 3, 1, 1);
        b.finish(vec![c2])
    }

    #[test]
    fn activation_qparams_are_sane() {
        let (s, zp) = activation_qparams(-1.0, 1.0);
        assert!(s > 0.0 && (zp as i32 - 128).abs() <= 1);
        // One-sided (post-ReLU) range: zero point lands at 0.
        let (s, zp) = activation_qparams(0.0, 6.0);
        assert!(s > 0.0);
        assert_eq!(zp, 0);
        // Degenerate and non-finite ranges degrade deterministically.
        assert_eq!(activation_qparams(0.0, 0.0), (1.0, 0));
        assert_eq!(activation_qparams(f32::INFINITY, f32::NEG_INFINITY), (1.0, 0));
    }

    #[test]
    fn quantized_compile_matches_f32_within_budget() {
        let g = conv_net(8);
        let target = CpuTarget::host();
        let opts = CompileOptions::level(OptLevel::O3);
        let qopts = QuantizeOptions::default();
        let (m, report) = compile_quantized(&g, &target, &opts, &qopts).unwrap();
        assert!(report.quantized >= 1, "no conv quantized: {report:?}");
        assert!(!report.fell_back, "accuracy gate rejected: {report:?}");
        assert!(report.max_abs_error <= qopts.error_budget);
        assert_eq!(report.compile.memory, *m.memory_report(), "the report names another module");

        let input = Tensor::random([1, 8, 12, 12], Layout::Nchw, 77, 1.0).unwrap();
        let f = compile(&g, &target, &opts).unwrap();
        let a = f.run(std::slice::from_ref(&input)).unwrap();
        let b = m.run(std::slice::from_ref(&input)).unwrap();
        // Fresh input (not in the calibration set): error stays in the same
        // regime as the gate's, with slack for out-of-range clipping.
        assert!(
            a[0].max_abs_diff(&b[0]) <= 4.0 * qopts.error_budget,
            "fresh-input error {}",
            a[0].max_abs_diff(&b[0])
        );
    }

    #[test]
    fn three_channel_stem_stays_f32() {
        // ic=3 cannot quad-pack: the stem conv must stay f32 while the
        // following 16-channel conv quantizes — per-layer dtype selection.
        let g = conv_net(3);
        let target = CpuTarget::host();
        let (m, report) = compile_quantized(
            &g,
            &target,
            &CompileOptions::level(OptLevel::O3),
            &QuantizeOptions::default(),
        )
        .unwrap();
        assert_eq!(report.quantized, 1, "{report:?}");
        assert_eq!(report.skipped, 1, "{report:?}");
        let input = Tensor::random([1, 3, 12, 12], Layout::Nchw, 5, 1.0).unwrap();
        m.run(&[input]).unwrap();
    }

    #[test]
    fn impossible_budget_falls_back_to_f32() {
        let g = conv_net(8);
        let target = CpuTarget::host();
        let qopts = QuantizeOptions { error_budget: 0.0, ..Default::default() };
        let (m, report) =
            compile_quantized(&g, &target, &CompileOptions::level(OptLevel::O2), &qopts)
                .unwrap();
        assert!(report.fell_back, "a zero budget cannot pass: {report:?}");
        assert!(report.max_abs_error > 0.0);
        assert_eq!(report.compile.memory, *m.memory_report(), "the report names another module");
        // The returned module is the f32 one: bit-identical to a plain compile.
        let input = Tensor::random([1, 8, 12, 12], Layout::Nchw, 9, 1.0).unwrap();
        let f = compile(&g, &target, &CompileOptions::level(OptLevel::O2)).unwrap();
        let a = f.run(std::slice::from_ref(&input)).unwrap();
        let b = m.run(std::slice::from_ref(&input)).unwrap();
        assert_eq!(a[0].data(), b[0].data());
    }

    fn quantize_nodes(g: &Graph) -> usize {
        g.nodes.iter().filter(|n| matches!(n.op, Op::Quantize { .. })).count()
    }

    #[test]
    fn shared_input_convs_share_one_folded_u8_tensor() {
        let mut b = GraphBuilder::new(17);
        let x = b.input([1, 8, 10, 10]);
        let stem = b.conv_bn_relu(x, 8, 3, 1, 1);
        let l = b.conv_bn_relu(stem, 8, 3, 1, 1);
        let r = b.conv_bn_relu(stem, 8, 3, 1, 1);
        let y = b.add(l, r);
        let g = b.finish(vec![y]);
        let target = CpuTarget::host();
        let (m, report) = compile_quantized(
            &g,
            &target,
            &CompileOptions::level(OptLevel::O2),
            &QuantizeOptions::default(),
        )
        .unwrap();
        assert_eq!(report.quantized, 3, "{report:?}");
        // The branch convs' memoized Quantize folded once, into the stem;
        // the stem's own sits behind the input's blocking transform.
        assert_eq!(report.folded, 1, "{report:?}");
        assert_eq!(report.folded_elements, 8 * 10 * 10);
        let reasons: Vec<_> = report.standalone.iter().map(|s| s.reason).collect();
        assert_eq!(reasons, ["behind a layout transform"], "{report:?}");
        let graph = m.graph();
        assert_eq!(quantize_nodes(graph), 1);
        let requantizing: Vec<NodeId> = (0..graph.len())
            .filter(|&id| matches!(graph.nodes[id].op, Op::Conv2d { requant: Some(_), .. }))
            .collect();
        assert_eq!(requantizing.len(), 1);
        let readers = graph
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Conv2d { quant: Some(_), .. }))
            .filter(|n| n.inputs[0] == requantizing[0])
            .count();
        assert_eq!(readers, 2, "both branch convs read the stem's u8 output");
        let input = Tensor::random([1, 8, 10, 10], Layout::Nchw, 3, 1.0).unwrap();
        m.run(&[input]).unwrap();
    }

    #[test]
    fn a_conv_with_another_reader_keeps_its_standalone_quantize() {
        // `c0` feeds `c1` (through a Quantize) and the residual of the fused
        // `c2 + add + relu`, which the output transform and `c3` both read.
        let mut b = GraphBuilder::new(29);
        let x = b.input([1, 8, 10, 10]);
        let c0 = b.conv_bn_relu(x, 8, 3, 1, 1);
        let c1 = b.conv_bn_relu(c0, 8, 3, 1, 1);
        let c2 = b.conv2d_opts(c1, 8, 3, 1, 1, false);
        let a = b.add(c2, c0);
        let r = b.relu(a);
        let c3 = b.conv_bn_relu(r, 8, 3, 1, 1);
        let g = b.finish(vec![r, c3]);
        let target = CpuTarget::host();
        let opts = CompileOptions::level(OptLevel::O2);
        let planned = plan(&g, &target, &opts);
        let (mut unfolded, counts) = quantize_unfolded(&planned, &any_range(&planned), &target);
        assert_eq!(counts.quantized, 4);
        let reasons = |census: &QuantizeReport| -> Vec<_> {
            census.standalone.iter().map(|s| s.reason).collect()
        };

        // Only `c1 → c2` is a conv whose sole reader is a Quantize.
        let mut census = QuantizeReport::default();
        let folded = fold_quantizes(unfolded.clone(), &mut census).unwrap();
        assert_eq!((census.folded, census.folded_elements), (1, 800), "{census:?}");
        assert_eq!(
            reasons(&census),
            ["behind a layout transform", "producer has f32 consumers", "producer has f32 consumers"]
        );
        for s in &census.standalone {
            assert!(matches!(folded.nodes[s.node].op, Op::Quantize { .. }), "{s:?}");
            assert_eq!(s.elements, 800);
        }
        assert_eq!(quantize_nodes(&folded), 3);
        let module =
            finish_module(folded.clone(), &target, &opts, &mut CompileReport::default()).unwrap();
        let input = Tensor::random([1, 8, 10, 10], Layout::Nchw, 3, 1.0).unwrap();
        module.run(&[input]).unwrap();

        // The same conv as a graph output: its f32 value is asked for.
        let c1 = (0..folded.len())
            .find(|&id| matches!(folded.nodes[id].op, Op::Conv2d { requant: Some(_), .. }))
            .unwrap();
        // Nothing was deleted before it, so the id holds in `unfolded` too.
        unfolded.outputs.push(c1);
        let mut census = QuantizeReport::default();
        fold_quantizes(unfolded, &mut census).unwrap();
        assert_eq!(census.folded, 0);
        assert!(reasons(&census).contains(&"graph output"), "{census:?}");
    }

    /// A u8 edge carries one quantization: a requantizing conv whose
    /// `(scale, zp)` is not the one its reader was calibrated for is a typed
    /// error at the reader, not a module that runs at the wrong scale.
    #[test]
    fn a_requant_its_reader_was_not_calibrated_for_is_rejected() {
        use neocpu_graph::GraphError;
        use neocpu_models::{build, ModelKind, ModelScale};
        let target = CpuTarget::host();
        let opts = CompileOptions::level(OptLevel::O3);
        let kind = ModelKind::MobileNet;
        let planned = plan(&build(kind, ModelScale::tiny(kind), 42), &target, &opts);
        let (unfolded, mut census) = quantize_unfolded(&planned, &any_range(&planned), &target);
        let mut folded = fold_quantizes(unfolded, &mut census).unwrap();
        let finish = |g| finish_module(g, &target, &opts, &mut CompileReport::default());
        finish(folded.clone()).unwrap();

        let requantizing =
            |n: &Node| matches!(n.op, Op::Conv2d { requant: Some(_), .. });
        let producer = folded.nodes.iter().position(requantizing).unwrap();
        let reader = folded.nodes.iter().position(|n| n.inputs.first() == Some(&producer)).unwrap();
        let Op::Conv2d { requant: Some((scale, _)), .. } = &mut folded.nodes[producer].op else {
            unreachable!()
        };
        *scale *= 2.0;
        match finish(folded) {
            Err(NeoError::Graph(GraphError::Layout { node, msg })) => {
                assert_eq!(node, reader, "{msg}");
                assert!(msg.contains("u8 (scale"), "{msg}");
            }
            Err(e) => panic!("expected a layout error at node {reader}, got {e}"),
            Ok(_) => panic!("a conv read u8 at a scale it was not calibrated for"),
        }
    }

    /// Some range for every conv input: which convs go int8 depends on their
    /// workloads and schedules, not on the calibrated values.
    fn any_range(planned: &Graph) -> HashMap<NodeId, (f32, f32)> {
        planned.conv_ids().iter().map(|&c| (planned.nodes[c].inputs[0], (-1.0, 1.0))).collect()
    }

    /// The int8 pass up to the fold, on a planned graph with plain weights:
    /// the graph with its `Quantize` nodes placed, and the conv counts.
    fn quantize_unfolded(
        planned: &Graph,
        stats: &HashMap<NodeId, (f32, f32)>,
        target: &CpuTarget,
    ) -> (Graph, QuantizeReport) {
        let packed = pack_int8_convs(planned, &target.analytical_model());
        let mut counts = QuantizeReport::default();
        let g = quantize_convs(planned.clone(), packed, stats, target.max_lanes(), &mut counts);
        (g.unwrap(), counts)
    }

    /// The planned graph the int8 pass starts from.
    fn plan(g: &Graph, target: &CpuTarget, opts: &CompileOptions) -> Graph {
        let mut report = CompileReport::default();
        plan_stage(g, target, opts, &mut SchemeDatabase::new(), &mut report, true).unwrap()
    }

    #[test]
    fn fold_moves_no_output_bit_on_the_quantized_zoo() {
        use neocpu_models::{build, quantized_zoo, ModelScale};
        let target = CpuTarget::host();
        let opts = CompileOptions::level(OptLevel::O3).with_threads(2);
        for kind in quantized_zoo() {
            let scale = ModelScale::tiny(kind);
            let g = build(kind, scale, 42);
            let mut report = CompileReport::default();
            let planned = plan(&g, &target, &opts);
            let f32_module = finish_module(planned.clone(), &target, &opts, &mut report).unwrap();
            let calib = auto_calibration(&f32_module, &QuantizeOptions::default()).unwrap();
            let packed = pack_int8_convs(&planned, &target.analytical_model());
            let stats = calibrate(&f32_module, &packed, &calib).unwrap();
            let (unfolded, mut census) = quantize_unfolded(&planned, &stats, &target);
            let folded = fold_quantizes(unfolded.clone(), &mut census).unwrap();
            assert!(census.quantized >= 2 && census.folded >= 2, "{}: {census:?}", kind.name());
            assert_eq!(
                quantize_nodes(&unfolded),
                census.folded + census.standalone.len(),
                "{}: every Quantize node is in the census",
                kind.name()
            );
            assert_eq!(quantize_nodes(&folded), census.standalone.len());

            let before = finish_module(unfolded, &target, &opts, &mut report).unwrap();
            let after = finish_module(folded, &target, &opts, &mut report).unwrap();
            let dims = [scale.batch, 3, scale.input, scale.input];
            let input = Tensor::random(dims, Layout::Nchw, 777, 1.0).unwrap();
            let want = before.run(std::slice::from_ref(&input)).unwrap();
            let got = after.run(std::slice::from_ref(&input)).unwrap();
            let reference = after.run_reference(std::slice::from_ref(&input)).unwrap();
            for ((w, g), r) in want.iter().zip(&got).zip(&reference) {
                assert_eq!(w.data(), g.data(), "{}: the fold moved an output", kind.name());
                assert_eq!(g.data(), r.data(), "{}: arena run != reference run", kind.name());
            }
            // u8 intermediates replace f32 ones.
            assert!(
                after.memory_report().planned_peak_bytes <= before.memory_report().planned_peak_bytes
            );
        }
    }

    #[test]
    fn boundary_census_of_the_paper_scale_zoo() {
        use neocpu_models::{build, ModelKind, ModelScale};
        let target = CpuTarget::host();
        let opts = CompileOptions::level(OptLevel::O3);
        for (kind, convs, folded, standalone) in
            [(ModelKind::MobileNet, 26, 26, 0), (ModelKind::ResNet50, 52, 35, 13)]
        {
            let g = build(kind, ModelScale::full(kind), 42);
            let planned = plan(&g, &target, &opts);
            let (unfolded, mut report) = quantize_unfolded(&planned, &any_range(&planned), &target);
            fold_quantizes(unfolded, &mut report).unwrap();
            assert_eq!(
                (report.quantized, report.folded, report.standalone.len()),
                (convs, folded, standalone),
                "{}: {report:?}",
                kind.name()
            );
        }
    }

    #[test]
    fn int8_schemes_land_in_db_under_dtype_key() {
        let g = conv_net(8);
        let target = CpuTarget::host();
        let mut db = SchemeDatabase::new();
        let (_, report) = compile_quantized_with_db(
            &g,
            &target,
            &CompileOptions::level(OptLevel::O3),
            &QuantizeOptions::default(),
            &mut db,
        )
        .unwrap();
        assert!(report.quantized >= 1);
        let text = db.to_text();
        assert!(text.contains("du8"), "missing int8 dtype key:\n{text}");
        // Reload round-trips, and the u8 entries resolve under the dtype key.
        let (reloaded, problems) = SchemeDatabase::from_text(&text);
        assert!(problems.is_empty(), "{problems:?}");
        let p = neocpu_kernels::conv::Conv2dParams::square(16, 16, 12, 3, 1, 1);
        assert!(reloaded.get_dtyped(&target.name, &p, DType::U8).is_some());
    }

    #[test]
    fn invalid_int8_db_entry_is_dropped_with_report() {
        use neocpu_kernels::conv::{Conv2dParams, ConvSchedule};
        use neocpu_search::RankedScheme;
        let g = conv_net(8);
        let target = CpuTarget::skylake_avx512();
        let opts = CompileOptions::level(OptLevel::O3);
        let mut db = SchemeDatabase::new();
        // The second conv's workload, poisoned on its `du8` side only with
        // a schedule whose ic_bn does not divide in_channels.
        let p = Conv2dParams::square(16, 16, 12, 3, 1, 1);
        let bad =
            ConvSchedule { ic_bn: 5, oc_bn: 16, reg_n: 8, ..Default::default() };
        db.put_dtyped(&target.name, &p, DType::U8, vec![RankedScheme { schedule: bad, time: 1e-4 }]);
        let qopts = QuantizeOptions::default();
        let (_, report) = compile_quantized_with_db(&g, &target, &opts, &qopts, &mut db).unwrap();
        let dropped = &report.compile.dropped_schemes;
        assert_eq!(dropped.len(), 1, "{dropped:?}");
        assert_eq!((dropped[0].params, dropped[0].schedule), (p, bad));
        assert!(dropped[0].reason.contains("ic_bn"), "{}", dropped[0].reason);
        // The row left the database with nothing in its place, and the f32
        // side of the workload is untouched by it.
        assert!(db.get_dtyped(&target.name, &p, DType::U8).is_none());
        assert!(db.get(&target.name, &p).is_some());
        // A recompile searches the int8 side afresh and is clean.
        let (_, report2) = compile_quantized_with_db(&g, &target, &opts, &qopts, &mut db).unwrap();
        assert!(report2.compile.is_clean(), "poison resurfaced: {:?}", report2.compile);
    }
}
