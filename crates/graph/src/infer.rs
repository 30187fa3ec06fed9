//! Shape and layout inference over the graph, each per-operator rule
//! written once.
//!
//! `node_shape` is the shape rule: [`infer_shapes`] applies it to every
//! node of a graph, and `GraphBuilder` applies it to each node as it is
//! pushed. `layout_contract` is the §3.2 rule for what crosses an edge, the
//! first half of Figure 2 with the element type as a second axis: given the
//! ports a node's inputs arrive in, the port it needs on each input and the
//! port it produces. A port is a layout plus f32 or u8-with-qparams.
//! Layout-oblivious operators take whatever layout arrives,
//! layout-tolerant ones take NCHW or any `NCHW[x]c`, and layout-dependent
//! ones take exactly one layout; a quantized conv reads the u8 its
//! `QuantInfo` names and every other operand is f32.
//! `insert_layout_transforms` converts each input to what the contract
//! asks for — `LayoutTransform` first, then `Quantize` — and
//! [`infer_layouts`] rejects a node whose inputs differ from it.

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

/// What a value carries across an edge: its layout, and its elements —
/// f32, or u8 codes with the `(scale, zero point)` that give them meaning.
/// The scale is kept by its bits, so two ports agree only on the very same
/// quantization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Port {
    pub(crate) layout: Layout,
    pub(crate) quant: Option<(u32, u8)>,
}

impl Port {
    pub(crate) fn f32(layout: Layout) -> Self {
        Self { layout, quant: None }
    }

    pub(crate) fn u8(layout: Layout, scale: f32, zero_point: u8) -> Self {
        Self { layout, quant: Some((scale.to_bits(), zero_point)) }
    }

    fn dtype(self) -> DType {
        if self.quant.is_some() {
            DType::U8
        } else {
            DType::F32
        }
    }
}

impl std::fmt::Display for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.quant {
            None => write!(f, "{} f32", self.layout),
            Some((s, zp)) => write!(f, "{} u8 (scale {}, zp {zp})", self.layout, f32::from_bits(s)),
        }
    }
}

/// The §3.2 rule of `op` for both axes of an edge, given the ports its
/// inputs arrive in and their shapes: the port it needs on each input, and
/// the port it produces. Fails for an input rank no layout describes and
/// for a requantizing conv without a schedule.
pub(crate) fn layout_contract(
    op: &Op,
    ins: &[Port],
    shapes: &[&Shape],
) -> std::result::Result<(Vec<Port>, Port), String> {
    use Layout::{Nc, Nchw, NchwC};
    let f32 = Port::f32;
    Ok(match op {
        Op::Input { shape } => match shape.len() {
            4 => (vec![], f32(Nchw)),
            2 => (vec![], f32(Nc)),
            1 => (vec![], f32(Layout::Flat)),
            r => return Err(format!("unsupported input rank {r}")),
        },
        // A scheduled conv reads `NCHW[ic_bn]c` and writes `NCHW[oc_bn]c`,
        // an unscheduled one runs in NCHW; a fused residual arrives in the
        // output's layout, in f32. A quantized conv reads the u8 its
        // `QuantInfo` was calibrated for; a requantizing one writes u8, and
        // only a scheduled one can (the NCHW path has no requantizing store).
        Op::Conv2d { schedule, residual, quant, requant, .. } => {
            let (i, o) = schedule.map_or((Nchw, Nchw), |s| (NchwC(s.ic_bn), NchwC(s.oc_bn)));
            let mut need = vec![quant.map_or(f32(i), |q| Port::u8(i, q.in_scale, q.in_zp))];
            if *residual {
                need.push(f32(o));
            }
            let out = match (requant, schedule) {
                (None, _) => f32(o),
                (Some((scale, zp)), Some(_)) => Port::u8(o, *scale, *zp),
                (Some(_), None) => {
                    return Err("only a scheduled conv can requantize its output".into())
                }
            };
            (need, out)
        }
        // Layout-tolerant: NCHW or any `NCHW[x]c` passes through; anything
        // else comes back to NCHW.
        Op::ScaleShift { .. } | Op::BatchNorm { .. } | Op::Pool { .. } | Op::GlobalAvgPool => {
            let l = match ins[0].layout {
                l @ (Nchw | NchwC(_)) => l,
                _ => Nchw,
            };
            (vec![f32(l)], f32(l))
        }
        // Layout-oblivious; the conversions change one axis each.
        Op::Relu | Op::Dropout => (vec![f32(ins[0].layout)], f32(ins[0].layout)),
        Op::LayoutTransform { to } => (vec![f32(ins[0].layout)], f32(*to)),
        Op::Quantize { scale, zero_point } => {
            let l = ins[0].layout;
            (vec![f32(l)], Port::u8(l, *scale, *zero_point))
        }
        // Both operands in the first's layout (Figure 3's Elementwise_Add
        // constraint).
        Op::Add => (vec![f32(ins[0].layout); 2], f32(ins[0].layout)),
        // Keep a blocked layout if some operand's block divides every
        // operand's channel count (the first operand's first, then wider
        // blocks); otherwise NCHW for all.
        Op::Concat => {
            let mut blocks: Vec<usize> = ins
                .iter()
                .filter_map(|p| match p.layout {
                    NchwC(x) => Some(x),
                    _ => None,
                })
                .collect();
            blocks.sort_unstable_by(|a, b| b.cmp(a));
            if let NchwC(first) = ins[0].layout {
                blocks.insert(0, first);
            }
            let target = blocks
                .into_iter()
                .find(|&x| shapes.iter().all(|s| s.dims()[1].is_multiple_of(x)))
                .map_or(Nchw, NchwC);
            (vec![f32(target); ins.len()], f32(target))
        }
        // Layout-dependent.
        Op::Flatten => (vec![f32(Nchw)], f32(Nc)),
        Op::Dense { .. } | Op::Softmax => (vec![f32(Nc)], f32(Nc)),
    })
}

/// Computes the layout and the element type every node produces by
/// `layout_contract`, validating that each node receives the ports its
/// contract needs — layout, dtype and, on a u8 edge, the very quantization
/// its reader was calibrated for (the consistency the layout and quantize
/// passes must establish) — and that each node's layout fits its shape.
///
/// # Errors
///
/// Returns an error at the first node whose input differs from its
/// contract or whose layout does not fit its shape.
pub fn infer_layouts(g: &Graph, shapes: &[Shape]) -> Result<(Vec<Layout>, Vec<DType>)> {
    let mut ports: Vec<Port> = Vec::with_capacity(g.len());
    for (id, node) in g.nodes.iter().enumerate() {
        let have: Vec<Port> = node.inputs.iter().map(|&i| ports[i]).collect();
        let in_shapes: Vec<&Shape> = node.inputs.iter().map(|&i| &shapes[i]).collect();
        let (need, port) =
            layout_contract(&node.op, &have, &in_shapes).map_err(|msg| lerr(id, msg))?;
        if let Some(k) = have.iter().zip(&need).position(|(h, n)| h != n) {
            let name = node.op.name();
            return Err(lerr(id, format!("{name} needs {} on input {k}, got {}", need[k], have[k])));
        }
        let layout = port.layout;
        layout.physical_dims(&shapes[id]).map_err(|e| {
            lerr(id, format!("layout {layout} disagrees with shape {}: {e}", shapes[id]))
        })?;
        ports.push(port);
    }
    Ok(ports.iter().map(|p| (p.layout, p.dtype())).unzip())
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
        let (layouts, _) = infer_layouts(&g, &shapes).unwrap();
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
            *schedule = Some(ConvSchedule { ic_bn: 4, oc_bn: 4, reg_n: 4, ..Default::default() });
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

    /// The element type of every node, by the checker.
    fn dtypes(g: &Graph) -> Result<Vec<DType>> {
        infer_layouts(g, &infer_shapes(g)?).map(|(_, dtypes)| dtypes)
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
        assert_eq!(dtypes(&g).unwrap(), vec![DType::F32, DType::U8, DType::F32]);
    }

    #[test]
    fn quantized_conv_rejects_f32_input() {
        let mut g = quantized_conv_graph();
        // Bypass the quantize node: feed the conv the f32 input directly.
        g.nodes[2].inputs = vec![0];
        let err = dtypes(&g).unwrap_err().to_string();
        assert!(err.contains("needs NCHW u8"), "unexpected error: {err}");
    }

    #[test]
    fn plain_ops_reject_u8_input() {
        let mut g = quantized_conv_graph();
        // Turn the quantized conv back into a plain one: u8 in is now wrong.
        if let Op::Conv2d { quant, .. } = &mut g.nodes[2].op {
            *quant = None;
        }
        assert!(dtypes(&g).is_err());
    }

    #[test]
    fn requantizing_conv_feeds_quantized_convs_only() {
        // Input → conv{requant} → quantized conv: the placer adds only the
        // layout transforms, and the edge between the convs is u8.
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
        let mut g = crate::passes::insert_layout_transforms(&g).unwrap();
        assert_eq!(g.transform_count(), 2);
        use DType::{F32, U8};
        assert_eq!(dtypes(&g).unwrap(), vec![F32, F32, U8, F32, F32]);
        let (c0, c1) = (2, 3);

        // An f32 op cannot read the requantized output…
        let mut pooled = g.clone();
        pooled.nodes[c1].op = Op::GlobalAvgPool;
        let err = dtypes(&pooled).unwrap_err().to_string();
        let want = "needs NCHW8c f32 on input 0, got NCHW8c u8";
        assert!(err.contains(want), "unexpected error: {err}");
        // …and the NCHW reference path has no requantizing store.
        if let Op::Conv2d { schedule, .. } = &mut g.nodes[c0].op {
            *schedule = None;
        }
        let err = dtypes(&g).unwrap_err().to_string();
        assert!(err.contains("scheduled"), "unexpected error: {err}");
    }

    #[test]
    fn quantize_preserves_shape_and_layout() {
        let g = quantized_conv_graph();
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes[1].dims(), shapes[0].dims());
        let (layouts, _) = infer_layouts(&g, &shapes).unwrap();
        assert_eq!(layouts[1], layouts[0]);
    }
}
