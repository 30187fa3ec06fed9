//! Shape and layout inference over the graph.
//!
//! Layout inference is the first half of Figure 2: walk the graph in
//! topological order and compute the layout every edge carries, given the
//! `NCHW[x]c` schedules assigned to the convolutions. The §3.2 operator
//! taxonomy decides how each node treats its input layout.

use neocpu_tensor::{DType, Layout, Shape};

use crate::ir::{Graph, Op};
use crate::{GraphError, Result};

/// The paper's three-way classification of operators by layout behaviour
/// (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutClass {
    /// Processes data without knowing its layout (ReLU, Softmax, Add, …).
    Oblivious,
    /// Needs the layout but handles several (CONV, Pool, BatchNorm, …).
    Tolerant,
    /// Works in exactly one layout; a transform must precede it
    /// (Flatten, Dense).
    Dependent,
}

impl LayoutClass {
    /// Classifies an operator.
    pub fn of(op: &Op) -> Self {
        match op {
            Op::Relu
            | Op::Dropout
            | Op::Softmax
            | Op::Add
            | Op::Quantize { .. }
            | Op::Dequantize { .. } => Self::Oblivious,
            Op::Conv2d { .. }
            | Op::ScaleShift { .. }
            | Op::BatchNorm { .. }
            | Op::Pool { .. }
            | Op::GlobalAvgPool
            | Op::Concat => Self::Tolerant,
            Op::Flatten | Op::Dense { .. } => Self::Dependent,
            // Inputs and transforms sit outside the taxonomy; treat as
            // tolerant for reporting purposes.
            Op::Input { .. } | Op::LayoutTransform { .. } => Self::Tolerant,
        }
    }
}

fn err(node: usize, msg: impl Into<String>) -> GraphError {
    GraphError::Shape { node, msg: msg.into() }
}

fn lerr(node: usize, msg: impl Into<String>) -> GraphError {
    GraphError::Layout { node, msg: msg.into() }
}

/// Computes the logical output shape of every node.
///
/// # Errors
///
/// Returns an error at the first node whose operands are inconsistent.
pub fn infer_shapes(g: &Graph) -> Result<Vec<Shape>> {
    g.validate()?;
    let mut shapes: Vec<Shape> = Vec::with_capacity(g.len());
    for (id, node) in g.nodes.iter().enumerate() {
        let ins: Vec<&Shape> = node.inputs.iter().map(|&i| &shapes[i]).collect();
        let shape = match &node.op {
            Op::Input { shape } => Shape::new(shape.clone()),
            Op::Conv2d { params: p, weight, bias, residual, .. } => {
                let x = ins[0];
                if x.rank() != 4 {
                    return Err(err(id, "conv input must be rank 4"));
                }
                let d = x.dims();
                if d[1] != p.in_channels || d[2] != p.in_h || d[3] != p.in_w {
                    return Err(err(
                        id,
                        format!(
                            "conv input {x} does not match params C={} H={} W={}",
                            p.in_channels, p.in_h, p.in_w
                        ),
                    ));
                }
                if p.groups == 0
                    || !p.in_channels.is_multiple_of(p.groups)
                    || !p.out_channels.is_multiple_of(p.groups)
                {
                    return Err(err(
                        id,
                        format!(
                            "conv groups {} must divide channels {} -> {}",
                            p.groups, p.in_channels, p.out_channels
                        ),
                    ));
                }
                let w = g.params[*weight].shape();
                if w.dims() != [p.out_channels, p.in_channels_per_group(), p.kernel_h, p.kernel_w]
                {
                    return Err(err(id, format!("conv weight {w} does not match params")));
                }
                if let Some(b) = bias {
                    if g.params[*b].num_elements() != p.out_channels {
                        return Err(err(id, "conv bias length mismatch"));
                    }
                }
                let out = Shape::from([d[0], p.out_channels, p.out_h(), p.out_w()]);
                if *residual && ins[1] != &out {
                    return Err(err(id, "conv residual shape mismatch"));
                }
                out
            }
            Op::ScaleShift { scale, shift } => {
                let c = ins[0].dims().get(1).copied().unwrap_or(0);
                if g.params[*scale].num_elements() != c || g.params[*shift].num_elements() != c {
                    return Err(err(id, "scale/shift length must equal channel count"));
                }
                ins[0].clone()
            }
            Op::BatchNorm { gamma, beta, mean, var, .. } => {
                let c = ins[0].dims().get(1).copied().unwrap_or(0);
                for p in [gamma, beta, mean, var] {
                    if g.params[*p].num_elements() != c {
                        return Err(err(id, "batch-norm parameter length mismatch"));
                    }
                }
                ins[0].clone()
            }
            // A transform's target is checked against this shape once, by
            // `infer_layouts`, with every other node's layout.
            Op::Relu
            | Op::Dropout
            | Op::Quantize { .. }
            | Op::Dequantize { .. }
            | Op::LayoutTransform { .. } => ins[0].clone(),
            Op::Pool { params, .. } => {
                let d = ins[0].dims();
                if ins[0].rank() != 4 {
                    return Err(err(id, "pool input must be rank 4"));
                }
                let (oh, ow) = (params.out_h(d[2]), params.out_w(d[3]));
                if oh == 0 || ow == 0 {
                    return Err(err(id, "pool window larger than input"));
                }
                Shape::from([d[0], d[1], oh, ow])
            }
            Op::GlobalAvgPool => {
                let d = ins[0].dims();
                if ins[0].rank() != 4 {
                    return Err(err(id, "global pool input must be rank 4"));
                }
                Shape::from([d[0], d[1], 1, 1])
            }
            Op::Add => {
                if ins[0] != ins[1] {
                    return Err(err(id, format!("add operands {} vs {}", ins[0], ins[1])));
                }
                ins[0].clone()
            }
            Op::Concat => {
                let d0 = ins[0].dims();
                if ins[0].rank() != 4 {
                    return Err(err(id, "concat inputs must be rank 4"));
                }
                let mut c = 0;
                for s in &ins {
                    let d = s.dims();
                    if d[0] != d0[0] || d[2] != d0[2] || d[3] != d0[3] {
                        return Err(err(id, "concat inputs must share batch and spatial dims"));
                    }
                    c += d[1];
                }
                Shape::from([d0[0], c, d0[2], d0[3]])
            }
            Op::Flatten => {
                let d = ins[0].dims();
                if ins[0].rank() != 4 {
                    return Err(err(id, "flatten input must be rank 4"));
                }
                Shape::from([d[0], d[1] * d[2] * d[3]])
            }
            Op::Dense { weight, bias, .. } => {
                if ins[0].rank() != 2 {
                    return Err(err(id, "dense input must be rank 2"));
                }
                let d = ins[0].dims();
                let w = g.params[*weight].shape();
                if w.rank() != 2 || w.dims()[1] != d[1] {
                    return Err(err(id, format!("dense weight {w} vs input {}", ins[0])));
                }
                if let Some(b) = bias {
                    if g.params[*b].num_elements() != w.dims()[0] {
                        return Err(err(id, "dense bias length mismatch"));
                    }
                }
                Shape::from([d[0], w.dims()[0]])
            }
            Op::Softmax => {
                if ins[0].rank() != 2 {
                    return Err(err(id, "softmax input must be rank 2"));
                }
                ins[0].clone()
            }
        };
        shapes.push(shape);
    }
    Ok(shapes)
}

/// Computes the layout every node produces, validating that each operator
/// receives a layout it can handle (the consistency the layout passes must
/// establish) and that each node's layout fits its shape.
///
/// # Errors
///
/// Returns an error at the first node whose input layout is unacceptable or
/// whose layout does not fit its shape.
pub fn infer_layouts(g: &Graph, shapes: &[Shape]) -> Result<Vec<Layout>> {
    let mut layouts: Vec<Layout> = Vec::with_capacity(g.len());
    for (id, node) in g.nodes.iter().enumerate() {
        let ins: Vec<Layout> = node.inputs.iter().map(|&i| layouts[i]).collect();
        let layout = match &node.op {
            Op::Input { shape } => match shape.len() {
                4 => Layout::Nchw,
                2 => Layout::Nc,
                1 => Layout::Flat,
                r => return Err(lerr(id, format!("unsupported input rank {r}"))),
            },
            Op::Conv2d { schedule, residual, .. } => {
                let out = match schedule {
                    Some(s) => {
                        if ins[0] != Layout::NchwC(s.ic_bn) {
                            return Err(lerr(
                                id,
                                format!("scheduled conv needs NCHW{}c input, got {}", s.ic_bn, ins[0]),
                            ));
                        }
                        Layout::NchwC(s.oc_bn)
                    }
                    None => {
                        if ins[0] != Layout::Nchw {
                            return Err(lerr(
                                id,
                                format!("unscheduled conv needs NCHW input, got {}", ins[0]),
                            ));
                        }
                        Layout::Nchw
                    }
                };
                if *residual && ins[1] != out {
                    return Err(lerr(
                        id,
                        format!("conv residual layout {} != output {out}", ins[1]),
                    ));
                }
                out
            }
            Op::ScaleShift { .. } | Op::BatchNorm { .. } | Op::Pool { .. } | Op::GlobalAvgPool => {
                // Layout-tolerant: NCHW or any NCHW[x]c.
                match ins[0] {
                    Layout::Nchw | Layout::NchwC(_) => ins[0],
                    l => return Err(lerr(id, format!("{} cannot handle {l}", node.op.name()))),
                }
            }
            Op::Relu | Op::Dropout | Op::Quantize { .. } | Op::Dequantize { .. } => ins[0],
            Op::Add => {
                if ins[0] != ins[1] {
                    return Err(lerr(id, format!("add layouts {} vs {}", ins[0], ins[1])));
                }
                ins[0]
            }
            Op::Concat => {
                let l0 = ins[0];
                if ins.iter().any(|&l| l != l0) {
                    return Err(lerr(id, "concat inputs must share a layout".to_string()));
                }
                if let Layout::NchwC(x) = l0 {
                    for &inp in &node.inputs {
                        let c = shapes[inp].dims()[1];
                        if !c.is_multiple_of(x) {
                            return Err(lerr(
                                id,
                                format!("concat operand channels {c} not divisible by block {x}"),
                            ));
                        }
                    }
                } else if l0 != Layout::Nchw {
                    return Err(lerr(id, format!("concat cannot handle {l0}")));
                }
                l0
            }
            Op::Flatten => {
                if ins[0] != Layout::Nchw {
                    return Err(lerr(id, format!("flatten requires NCHW, got {}", ins[0])));
                }
                Layout::Nc
            }
            Op::Dense { .. } => {
                if ins[0] != Layout::Nc {
                    return Err(lerr(id, format!("dense requires NC, got {}", ins[0])));
                }
                Layout::Nc
            }
            Op::Softmax => {
                if ins[0] != Layout::Nc {
                    return Err(lerr(id, format!("softmax requires NC, got {}", ins[0])));
                }
                Layout::Nc
            }
            Op::LayoutTransform { to } => *to,
        };
        layout.physical_dims(&shapes[id]).map_err(|e| {
            lerr(id, format!("layout {layout} disagrees with shape {}: {e}", shapes[id]))
        })?;
        layouts.push(layout);
    }
    Ok(layouts)
}

/// Computes the element type every node produces, validating that each
/// operator receives the dtype it requires.
///
/// The dtype discipline is narrow by design: a `u8` edge is produced by
/// `Quantize` or by a scheduled conv whose epilogue requantizes
/// (`requant: Some(_)`, a `Quantize` folded into its producer), and the only
/// ops that accept one are a *quantized* conv (`quant: Some(_)`) and
/// `Dequantize`. Every other operator both requires and produces f32 — a
/// quantized conv without `requant` stores f32 (the microkernel applies the
/// multiplier on store), and a conv's residual is always f32.
///
/// # Errors
///
/// Returns an error at the first node whose input dtype is unacceptable.
pub fn infer_dtypes(g: &Graph) -> Result<Vec<DType>> {
    let mut dtypes: Vec<DType> = Vec::with_capacity(g.len());
    for (id, node) in g.nodes.iter().enumerate() {
        let ins: Vec<DType> = node.inputs.iter().map(|&i| dtypes[i]).collect();
        let require_f32 = |which: usize| -> Result<()> {
            if ins[which] != DType::F32 {
                return Err(lerr(
                    id,
                    format!("{} requires f32 input, got {}", node.op.name(), ins[which]),
                ));
            }
            Ok(())
        };
        let dt = match &node.op {
            Op::Input { .. } => DType::F32,
            Op::Quantize { .. } => {
                require_f32(0)?;
                DType::U8
            }
            Op::Dequantize { .. } => {
                if ins[0] != DType::U8 {
                    return Err(lerr(id, format!("dequantize requires u8 input, got {}", ins[0])));
                }
                DType::F32
            }
            Op::Conv2d { quant, residual, requant, schedule, .. } => {
                match quant {
                    Some(_) => {
                        if ins[0] != DType::U8 {
                            return Err(lerr(
                                id,
                                format!("quantized conv requires u8 input, got {}", ins[0]),
                            ));
                        }
                    }
                    None => require_f32(0)?,
                }
                if *residual {
                    require_f32(1)?;
                }
                match (requant, schedule) {
                    (None, _) => DType::F32,
                    (Some(_), Some(_)) => DType::U8,
                    (Some(_), None) => {
                        return Err(lerr(id, "only a scheduled conv can requantize its output"));
                    }
                }
            }
            _ => {
                for i in 0..ins.len() {
                    require_f32(i)?;
                }
                DType::F32
            }
        };
        dtypes.push(dt);
    }
    Ok(dtypes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use neocpu_kernels::conv::ConvSchedule;

    #[test]
    fn shapes_through_simple_cnn() {
        let mut b = GraphBuilder::new(1);
        let x = b.input([1, 3, 32, 32]);
        let c1 = b.conv2d(x, 16, 3, 1, 1);
        let r = b.relu(c1);
        let p = b.max_pool(r, 2, 2, 0);
        let f = b.flatten(p);
        let d = b.dense(f, 10);
        let s = b.softmax(d);
        let g = b.finish(vec![s]);
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes[c1].dims(), &[1, 16, 32, 32]);
        assert_eq!(shapes[p].dims(), &[1, 16, 16, 16]);
        assert_eq!(shapes[f].dims(), &[1, 16 * 16 * 16]);
        assert_eq!(shapes[s].dims(), &[1, 10]);
    }

    #[test]
    fn layouts_default_to_nchw() {
        let mut b = GraphBuilder::new(1);
        let x = b.input([1, 4, 8, 8]);
        let c = b.conv2d(x, 8, 3, 1, 1);
        let r = b.relu(c);
        let g = b.finish(vec![r]);
        let shapes = infer_shapes(&g).unwrap();
        let layouts = infer_layouts(&g, &shapes).unwrap();
        assert!(layouts.iter().all(|&l| l == Layout::Nchw));
    }

    #[test]
    fn scheduled_conv_demands_blocked_input() {
        let mut b = GraphBuilder::new(1);
        let x = b.input([1, 4, 8, 8]);
        let c = b.conv2d(x, 8, 3, 1, 1);
        let g = b.finish(vec![c]);
        let mut g2 = g.clone();
        if let Op::Conv2d { schedule, .. } = &mut g2.nodes[c].op {
            *schedule = Some(ConvSchedule { ic_bn: 4, oc_bn: 4, reg_n: 4, unroll_ker: false, ..Default::default() });
        }
        let shapes = infer_shapes(&g2).unwrap();
        // Input is NCHW but the conv now demands NCHW4c: inference errors.
        assert!(infer_layouts(&g2, &shapes).is_err());
    }

    #[test]
    fn layout_must_fit_its_nodes_shape() {
        // A 4 → 6 channel conv scheduled with oc_bn 4: its NCHW4c output
        // cannot hold 6 channels.
        let mut b = GraphBuilder::new(1);
        let x = b.input([1, 4, 8, 8]);
        let t = b.conv2d(x, 6, 3, 1, 1);
        let mut g = b.finish(vec![t]);
        let c = g.push(Op::LayoutTransform { to: Layout::NchwC(4) }, vec![x]);
        g.nodes.swap(t, c); // keep topological order: transform before conv
        g.nodes[c].inputs = vec![t];
        g.outputs = vec![c];
        if let Op::Conv2d { schedule, .. } = &mut g.nodes[c].op {
            *schedule = Some(ConvSchedule { ic_bn: 4, oc_bn: 4, reg_n: 4, ..Default::default() });
        }
        let shapes = infer_shapes(&g).unwrap();
        match infer_layouts(&g, &shapes) {
            Err(GraphError::Layout { node, msg }) => {
                assert_eq!(node, c);
                assert!(msg.contains("disagrees with shape"), "message was: {msg}");
            }
            other => panic!("expected a layout error at node {c}, got {other:?}"),
        }
    }

    #[test]
    fn layout_class_taxonomy() {
        assert_eq!(LayoutClass::of(&Op::Relu), LayoutClass::Oblivious);
        assert_eq!(LayoutClass::of(&Op::GlobalAvgPool), LayoutClass::Tolerant);
        assert_eq!(LayoutClass::of(&Op::Flatten), LayoutClass::Dependent);
    }

    #[test]
    fn bad_add_shapes_rejected() {
        let mut b = GraphBuilder::new(1);
        let x = b.input([1, 4, 8, 8]);
        let c1 = b.conv2d(x, 8, 3, 1, 1);
        let c2 = b.conv2d(x, 8, 3, 2, 1); // different spatial dims
        let g_nodes_ok = b.graph_ref().validate().is_ok();
        assert!(g_nodes_ok);
        let a = b.add(c1, c2);
        let g = b.finish(vec![a]);
        assert!(infer_shapes(&g).is_err());
    }

    /// Input → Quantize → quantized Conv2d, built by splicing a `Quantize`
    /// node in front of a builder-made conv.
    fn quantized_conv_graph() -> Graph {
        let mut b = GraphBuilder::new(7);
        let x = b.input([1, 8, 8, 8]);
        let c = b.conv2d(x, 8, 3, 1, 1);
        let mut g = b.finish(vec![c]);
        let mult = g.push_param(
            neocpu_tensor::Tensor::random([8], Layout::Flat, 1, 0.1).unwrap(),
        );
        let q = g.push(Op::Quantize { scale: 0.05, zero_point: 128 }, vec![x]);
        g.nodes.swap(c, q); // keep topological order: quantize before conv
        g.nodes[q].inputs = vec![c];
        if let Op::Conv2d { quant, .. } = &mut g.nodes[q].op {
            *quant = Some(crate::QuantInfo { in_scale: 0.05, in_zp: 128, mult });
        }
        g.outputs = vec![q];
        g
    }

    #[test]
    fn dtypes_through_quantized_conv() {
        let g = quantized_conv_graph();
        let dtypes = infer_dtypes(&g).unwrap();
        assert_eq!(dtypes, vec![DType::F32, DType::U8, DType::F32]);
    }

    #[test]
    fn quantized_conv_rejects_f32_input() {
        let mut g = quantized_conv_graph();
        // Bypass the quantize node: feed the conv the f32 input directly.
        g.nodes[2].inputs = vec![0];
        let err = infer_dtypes(&g).unwrap_err().to_string();
        assert!(err.contains("u8"), "unexpected error: {err}");
    }

    #[test]
    fn plain_ops_reject_u8_input() {
        let mut g = quantized_conv_graph();
        // Turn the quantized conv back into a plain one: u8 in is now wrong.
        if let Op::Conv2d { quant, .. } = &mut g.nodes[2].op {
            *quant = None;
        }
        assert!(infer_dtypes(&g).is_err());
    }

    #[test]
    fn requantizing_conv_feeds_quantized_convs_only() {
        // Input → conv{requant} → quantized conv: the edge between them is u8.
        let mut b = GraphBuilder::new(9);
        let x = b.input([1, 8, 8, 8]);
        let c0 = b.conv2d(x, 8, 3, 1, 1);
        let c1 = b.conv2d(c0, 8, 3, 1, 1);
        let mut g = b.finish(vec![c1]);
        let mult =
            g.push_param(neocpu_tensor::Tensor::random([8], Layout::Flat, 1, 0.1).unwrap());
        let sched = ConvSchedule { ic_bn: 8, oc_bn: 8, ..Default::default() };
        if let Op::Conv2d { schedule, requant, .. } = &mut g.nodes[c0].op {
            (*schedule, *requant) = (Some(sched), Some((0.05, 128)));
        }
        if let Op::Conv2d { schedule, quant, .. } = &mut g.nodes[c1].op {
            *schedule = Some(sched);
            *quant = Some(crate::QuantInfo { in_scale: 0.05, in_zp: 128, mult });
        }
        assert_eq!(infer_dtypes(&g).unwrap(), vec![DType::F32, DType::U8, DType::F32]);

        // An f32 op cannot read the requantized output…
        let mut pooled = g.clone();
        pooled.nodes[c1].op = Op::GlobalAvgPool;
        let err = infer_dtypes(&pooled).unwrap_err().to_string();
        assert!(err.contains("requires f32 input, got u8"), "unexpected error: {err}");
        // …and the NCHW reference path has no requantizing store.
        if let Op::Conv2d { schedule, .. } = &mut g.nodes[c0].op {
            *schedule = None;
        }
        let err = infer_dtypes(&g).unwrap_err().to_string();
        assert!(err.contains("scheduled"), "unexpected error: {err}");
    }

    #[test]
    fn dequantize_round_trips_dtype() {
        let mut b = GraphBuilder::new(8);
        let x = b.input([1, 4, 8, 8]);
        let g0 = b.finish(vec![x]);
        let mut g = g0;
        let q = g.push(Op::Quantize { scale: 0.1, zero_point: 7 }, vec![x]);
        let d = g.push(Op::Dequantize { scale: 0.1, zero_point: 7 }, vec![q]);
        g.outputs = vec![d];
        let dtypes = infer_dtypes(&g).unwrap();
        assert_eq!(dtypes, vec![DType::F32, DType::U8, DType::F32]);
        // Dequantize directly on f32 data is a dtype error.
        g.nodes[d].inputs = vec![x];
        assert!(infer_dtypes(&g).is_err());
    }

    #[test]
    fn quantize_preserves_shape_and_layout() {
        let g = quantized_conv_graph();
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes[1].dims(), shapes[0].dims());
        let layouts = infer_layouts(&g, &shapes).unwrap();
        assert_eq!(layouts[1], layouts[0]);
    }
}
