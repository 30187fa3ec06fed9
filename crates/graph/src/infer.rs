//! Shape and layout inference over the graph, each per-operator rule
//! written once.
//!
//! `node_shape` is the shape rule: [`infer_shapes`] applies it to every
//! node of a graph, and `GraphBuilder` applies it to each node as it is
//! pushed. `layout_contract` is the §3.2 layout rule, the first half of
//! Figure 2: given the layouts a node's inputs arrive in, the layout it
//! needs on each input and the layout it produces. Layout-oblivious
//! operators take whatever arrives, layout-tolerant ones take NCHW or any
//! `NCHW[x]c`, and layout-dependent ones take exactly one layout.
//! `insert_layout_transforms` converts each input to what the contract
//! asks for; [`infer_layouts`] rejects a node whose inputs differ from it.

use neocpu_tensor::{DType, Layout, Shape};

use crate::ir::{Graph, Op};
use crate::{GraphError, Result};

fn lerr(node: usize, msg: impl Into<String>) -> GraphError {
    GraphError::Layout { node, msg: msg.into() }
}

/// The logical output shape of `op` applied to inputs of shape `ins`, or
/// why those operands are inconsistent. Parameter shapes are read from
/// `g`.
pub(crate) fn node_shape(
    g: &Graph,
    op: &Op,
    ins: &[&Shape],
) -> std::result::Result<Shape, String> {
    let of_rank = |rank: usize| {
        if ins[0].rank() == rank {
            Ok(ins[0].dims())
        } else {
            Err(format!("{} input {} must be rank {rank}", op.name(), ins[0]))
        }
    };
    Ok(match op {
        Op::Input { shape } => Shape::new(shape.clone()),
        Op::Conv2d { params: p, weight, bias, residual, .. } => {
            let d = of_rank(4)?;
            if d[1] != p.in_channels || d[2] != p.in_h || d[3] != p.in_w {
                return Err(format!(
                    "conv input {} does not match params C={} H={} W={}",
                    ins[0], p.in_channels, p.in_h, p.in_w
                ));
            }
            if p.groups == 0
                || !p.in_channels.is_multiple_of(p.groups)
                || !p.out_channels.is_multiple_of(p.groups)
            {
                return Err(format!(
                    "conv groups {} must divide channels {} -> {}",
                    p.groups, p.in_channels, p.out_channels
                ));
            }
            let w = g.params[*weight].shape();
            if w.dims() != [p.out_channels, p.in_channels_per_group(), p.kernel_h, p.kernel_w] {
                return Err(format!("conv weight {w} does not match params"));
            }
            if bias.is_some_and(|b| g.params[b].num_elements() != p.out_channels) {
                return Err("conv bias length mismatch".into());
            }
            let out = Shape::from([d[0], p.out_channels, p.out_h(), p.out_w()]);
            if *residual && ins[1] != &out {
                return Err(format!("conv residual {} does not match output {out}", ins[1]));
            }
            out
        }
        Op::ScaleShift { .. } | Op::BatchNorm { .. } => {
            let c = ins[0].dims().get(1).copied().unwrap_or(0);
            if op.param_ids().iter().any(|&p| g.params[p].num_elements() != c) {
                return Err(format!("{} parameters must have {c} entries", op.name()));
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
            let d = of_rank(4)?;
            let (oh, ow) = (params.out_h(d[2]), params.out_w(d[3]));
            if oh == 0 || ow == 0 {
                return Err("pool window larger than input".into());
            }
            Shape::from([d[0], d[1], oh, ow])
        }
        Op::GlobalAvgPool => {
            let d = of_rank(4)?;
            Shape::from([d[0], d[1], 1, 1])
        }
        Op::Add => {
            if ins[0] != ins[1] {
                return Err(format!("add operands {} vs {}", ins[0], ins[1]));
            }
            ins[0].clone()
        }
        Op::Concat => {
            let d0 = of_rank(4)?;
            let mut c = 0;
            for s in ins {
                let d = s.dims();
                if s.rank() != 4 || d[0] != d0[0] || d[2] != d0[2] || d[3] != d0[3] {
                    let first = ins[0];
                    return Err(format!("concat operand {s} must be rank 4 with {first}'s N, H, W"));
                }
                c += d[1];
            }
            Shape::from([d0[0], c, d0[2], d0[3]])
        }
        Op::Flatten => {
            let d = of_rank(4)?;
            Shape::from([d[0], d[1] * d[2] * d[3]])
        }
        Op::Dense { weight, bias, .. } => {
            let d = of_rank(2)?;
            let w = g.params[*weight].shape();
            if w.rank() != 2 || w.dims()[1] != d[1] {
                return Err(format!("dense weight {w} vs input {}", ins[0]));
            }
            if bias.is_some_and(|b| g.params[b].num_elements() != w.dims()[0]) {
                return Err("dense bias length mismatch".into());
            }
            Shape::from([d[0], w.dims()[0]])
        }
        Op::Softmax => {
            of_rank(2)?;
            ins[0].clone()
        }
    })
}

/// Computes the logical output shape of every node by `node_shape`.
///
/// # Errors
///
/// Returns an error at the first node whose operands are inconsistent.
pub fn infer_shapes(g: &Graph) -> Result<Vec<Shape>> {
    g.validate()?;
    let mut shapes: Vec<Shape> = Vec::with_capacity(g.len());
    for (id, node) in g.nodes.iter().enumerate() {
        let ins: Vec<&Shape> = node.inputs.iter().map(|&i| &shapes[i]).collect();
        let shape =
            node_shape(g, &node.op, &ins).map_err(|msg| GraphError::Shape { node: id, msg })?;
        shapes.push(shape);
    }
    Ok(shapes)
}

/// The §3.2 layout rule of `op`, given the layouts its inputs arrive in
/// and their shapes: the layout it needs on each input, and the layout it
/// produces. Fails only for an input rank no layout describes.
pub(crate) fn layout_contract(
    op: &Op,
    ins: &[Layout],
    shapes: &[&Shape],
) -> std::result::Result<(Vec<Layout>, Layout), String> {
    use Layout::{Nc, Nchw, NchwC};
    Ok(match op {
        Op::Input { shape } => match shape.len() {
            4 => (vec![], Nchw),
            2 => (vec![], Nc),
            1 => (vec![], Layout::Flat),
            r => return Err(format!("unsupported input rank {r}")),
        },
        // A scheduled conv reads `NCHW[ic_bn]c` and writes `NCHW[oc_bn]c`,
        // an unscheduled one runs in NCHW; a fused residual arrives in the
        // output's layout.
        Op::Conv2d { schedule, residual, .. } => {
            let (i, o) = schedule.map_or((Nchw, Nchw), |s| (NchwC(s.ic_bn), NchwC(s.oc_bn)));
            let need = if *residual { vec![i, o] } else { vec![i] };
            (need, o)
        }
        // Layout-tolerant: NCHW or any `NCHW[x]c` passes through; anything
        // else comes back to NCHW.
        Op::ScaleShift { .. } | Op::BatchNorm { .. } | Op::Pool { .. } | Op::GlobalAvgPool => {
            let l = match ins[0] {
                l @ (Nchw | NchwC(_)) => l,
                _ => Nchw,
            };
            (vec![l], l)
        }
        // Layout-oblivious.
        Op::Relu | Op::Dropout | Op::Quantize { .. } | Op::Dequantize { .. } => {
            (vec![ins[0]], ins[0])
        }
        Op::LayoutTransform { to } => (vec![ins[0]], *to),
        // Both operands in the first's layout (Figure 3's Elementwise_Add
        // constraint).
        Op::Add => (vec![ins[0]; 2], ins[0]),
        // Keep a blocked layout if some operand's block divides every
        // operand's channel count (the first operand's first, then wider
        // blocks); otherwise NCHW for all.
        Op::Concat => {
            let mut blocks: Vec<usize> = ins
                .iter()
                .filter_map(|&l| match l {
                    NchwC(x) => Some(x),
                    _ => None,
                })
                .collect();
            blocks.sort_unstable_by(|a, b| b.cmp(a));
            if let NchwC(first) = ins[0] {
                blocks.insert(0, first);
            }
            let target = blocks
                .into_iter()
                .find(|&x| shapes.iter().all(|s| s.dims()[1].is_multiple_of(x)))
                .map_or(Nchw, NchwC);
            (vec![target; ins.len()], target)
        }
        // Layout-dependent.
        Op::Flatten => (vec![Nchw], Nc),
        Op::Dense { .. } | Op::Softmax => (vec![Nc], Nc),
    })
}

/// Computes the layout every node produces by `layout_contract`,
/// validating that each node receives the layouts its contract needs (the
/// consistency the layout passes must establish) and that each node's
/// layout fits its shape.
///
/// # Errors
///
/// Returns an error at the first node whose input layout differs from its
/// contract or whose layout does not fit its shape.
pub fn infer_layouts(g: &Graph, shapes: &[Shape]) -> Result<Vec<Layout>> {
    let mut layouts: Vec<Layout> = Vec::with_capacity(g.len());
    for (id, node) in g.nodes.iter().enumerate() {
        let have: Vec<Layout> = node.inputs.iter().map(|&i| layouts[i]).collect();
        let in_shapes: Vec<&Shape> = node.inputs.iter().map(|&i| &shapes[i]).collect();
        let (need, layout) =
            layout_contract(&node.op, &have, &in_shapes).map_err(|msg| lerr(id, msg))?;
        if let Some(k) = have.iter().zip(&need).position(|(h, n)| h != n) {
            let name = node.op.name();
            return Err(lerr(id, format!("{name} needs {} on input {k}, got {}", need[k], have[k])));
        }
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
    fn bad_add_shapes_rejected() {
        let mut b = GraphBuilder::new(1);
        let x = b.input([1, 4, 8, 8]);
        let c1 = b.conv2d(x, 8, 3, 1, 1);
        let c2 = b.conv2d(x, 8, 3, 2, 1); // different spatial dims
        let mut g = b.finish(vec![]);
        let a = g.push(Op::Add, vec![c1, c2]);
        g.outputs = vec![a];
        match infer_shapes(&g) {
            Err(GraphError::Shape { node, msg }) => {
                assert_eq!(node, a);
                assert!(msg.contains("add operands"), "message was: {msg}");
            }
            other => panic!("expected a shape error at node {a}, got {other:?}"),
        }
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
