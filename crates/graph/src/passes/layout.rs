//! Layout planning and `LayoutTransform` placement (§3.2 / Figure 2).
//!
//! Three planners assign `NCHW[x]c` schedules to convolutions:
//!
//! * [`plan_uniform`] — one constant block factor `x` for the whole network
//!   (the §3.2 scheme);
//! * [`plan_assigned`] — per-CONV schedules chosen by the global search
//!   (§3.3);
//! * [`wrap_convs_with_transforms`] — the *library-call* arrangement used
//!   as Table 3's "Layout Opt." row: every CONV runs blocked but converts
//!   its input from NCHW and its output back, paying both transforms.
//!
//! [`insert_layout_transforms`] is the elimination machinery shared by the
//! first two, and the one placer of conversions: walk the graph, track the
//! port (layout and element type) each value carries, and materialize a
//! `LayoutTransform`, then a `Quantize`, only where a consumer's contract
//! (`layout_contract` in `infer.rs`, the rule [`crate::infer_layouts`]
//! checks) needs a different one — with one memo so a value converted to
//! the same port twice shares a single node. A graph that already meets
//! every contract is a fixed point, so the int8 pass annotates convs and
//! calls it again to place only their `Quantize` nodes.

use std::collections::HashMap;

use neocpu_kernels::conv::ConvSchedule;
use neocpu_tensor::{Layout, Shape};

use crate::infer::{infer_shapes, layout_contract, Port};
use crate::ir::{Graph, NodeId, Op};
use crate::{GraphError, Result};

/// Configuration for the uniform (§3.2) layout plan.
#[derive(Debug, Clone, Copy)]
pub struct UniformPlanCfg {
    /// The constant channel-block factor `x` (16 in Figure 2).
    pub block: usize,
    /// Register-blocking factor for every CONV: each takes the longest strip
    /// its template runs that is no longer than this.
    pub reg_n: usize,
}

impl Default for UniformPlanCfg {
    fn default() -> Self {
        Self { block: 16, reg_n: 16 }
    }
}

/// Picks the constant `x` for a whole network: the divisor of the
/// preferred block that divides the most conv channel counts (ties go to
/// the wider block). §3.2 fixes `x` per network, "e.g. 16" — but a network
/// whose channel counts are, say, multiples of 8 only (reduced-scale
/// DenseNets) needs 8 to keep the layout flowing transform-free.
fn pick_uniform_block(g: &Graph, preferred: usize) -> usize {
    let mut channel_counts: Vec<usize> = Vec::new();
    for id in g.conv_ids() {
        let Op::Conv2d { params, .. } = &g.nodes[id].op else { unreachable!() };
        channel_counts.push(params.in_channels);
        channel_counts.push(params.out_channels);
    }
    // Score each candidate block by how many channel counts it divides,
    // weighted by microkernel quality: a full-vector block drives the wide
    // SIMD strip kernel, a half-vector block the narrower one, anything
    // else the scalar fallback — a block that divides everything but runs
    // scalar loses to one that divides most counts at full SIMD width.
    let quality = |d: usize| -> f64 {
        if d == preferred {
            1.0
        } else if d * 2 == preferred {
            0.6
        } else {
            0.15
        }
    };
    let mut best = (0f64, 1usize); // (score, block)
    for d in (2..=preferred).rev() {
        if !preferred.is_multiple_of(d) {
            continue;
        }
        let hits = channel_counts.iter().filter(|&&c| c % d == 0).count();
        let score = hits as f64 * quality(d);
        if score > best.0 {
            best = (score, d);
        }
    }
    best.1
}

/// Assigns the same block factor to every CONV, then inserts the minimal
/// transforms (`O2`, Table 3 "Transform Elim.").
///
/// # Errors
///
/// Returns an error if the graph is invalid.
pub fn plan_uniform(g: &Graph, cfg: &UniformPlanCfg) -> Result<Graph> {
    let mut g = g.clone();
    let block = pick_uniform_block(&g, cfg.block);
    let cfg = UniformPlanCfg { block, ..*cfg };
    for id in g.conv_ids() {
        let Op::Conv2d { params, schedule, .. } = &mut g.nodes[id].op else { unreachable!() };
        *schedule = Some(ConvSchedule::unsearched(params, cfg.block, cfg.reg_n));
    }
    insert_layout_transforms(&g)
}

/// Assigns per-CONV schedules from the global search, then inserts the
/// minimal transforms (`O3`, Table 3 "Global Search").
///
/// Convs absent from `schedules` fall back to the uniform default.
///
/// # Errors
///
/// Returns an error if the graph is invalid or a schedule does not divide
/// its workload.
pub fn plan_assigned(
    g: &Graph,
    schedules: &HashMap<NodeId, ConvSchedule>,
    cfg: &UniformPlanCfg,
) -> Result<Graph> {
    let mut g = g.clone();
    for id in g.conv_ids() {
        let Op::Conv2d { params, schedule, .. } = &mut g.nodes[id].op else { unreachable!() };
        let s = schedules
            .get(&id)
            .copied()
            .unwrap_or_else(|| ConvSchedule::unsearched(params, cfg.block, cfg.reg_n));
        s.validate(params).map_err(GraphError::Kernel)?;
        *schedule = Some(s);
    }
    insert_layout_transforms(&g)
}

/// The "Layout Opt." arrangement (`O1`): every CONV runs in `NCHW[x]c` but
/// the graph stays in NCHW — each CONV is wrapped in its own
/// transform-in / transform-out pair, modeling a framework calling an
/// optimized library op with no graph-level layout flow.
///
/// # Errors
///
/// Returns an error if the graph is invalid.
pub fn wrap_convs_with_transforms(g: &Graph, cfg: &UniformPlanCfg) -> Result<Graph> {
    g.validate()?;
    let mut out = Graph { nodes: Vec::new(), params: g.params.clone(), outputs: Vec::new() };
    let mut remap: Vec<usize> = Vec::with_capacity(g.len());
    for node in &g.nodes {
        let inputs: Vec<usize> = node.inputs.iter().map(|&i| remap[i]).collect();
        match &node.op {
            Op::Conv2d { params, weight, bias, relu, residual, .. } => {
                let s = ConvSchedule::unsearched(params, cfg.block, cfg.reg_n);
                let tin = out.push(
                    Op::LayoutTransform { to: Layout::NchwC(s.ic_bn) },
                    vec![inputs[0]],
                );
                let mut conv_inputs = vec![tin];
                if *residual {
                    // The residual arrives in NCHW and must match the conv's
                    // blocked output.
                    let tres = out.push(
                        Op::LayoutTransform { to: Layout::NchwC(s.oc_bn) },
                        vec![inputs[1]],
                    );
                    conv_inputs.push(tres);
                }
                let conv = out.push(
                    Op::Conv2d {
                        params: *params,
                        weight: *weight,
                        bias: *bias,
                        schedule: Some(s),
                        relu: *relu,
                        residual: *residual,
                        quant: None,
                        requant: None,
                    },
                    conv_inputs,
                );
                let tout = out.push(Op::LayoutTransform { to: Layout::Nchw }, vec![conv]);
                remap.push(tout);
            }
            op => {
                remap.push(out.push(op.clone(), inputs));
            }
        }
    }
    out.outputs = g.outputs.iter().map(|&o| remap[o]).collect();
    Ok(out)
}

/// Inserts the minimal set of `LayoutTransform` and `Quantize` nodes so
/// every operator receives the ports its `layout_contract` needs, letting
/// blocked layouts flow as far as possible (Figure 2, right side). A
/// conversion already in the graph is kept like any other op, so a graph
/// that meets every contract comes back unchanged, and a planned graph
/// whose convs the quantize pass annotated gains exactly their `Quantize`
/// nodes.
///
/// # Errors
///
/// Returns an error if the graph is invalid, an input has a rank no layout
/// describes, or a u8 value would need converting.
pub fn insert_layout_transforms(g: &Graph) -> Result<Graph> {
    let shapes = infer_shapes(g)?;
    let mut p = Placer {
        out: Graph { nodes: Vec::new(), params: g.params.clone(), outputs: Vec::new() },
        ports: Vec::new(),
        memo: HashMap::new(),
    };
    let mut remap: Vec<usize> = Vec::with_capacity(g.len());
    for (id, node) in g.nodes.iter().enumerate() {
        let ins: Vec<usize> = node.inputs.iter().map(|&i| remap[i]).collect();
        let have: Vec<Port> = ins.iter().map(|&i| p.ports[i]).collect();
        let in_shapes: Vec<&Shape> = node.inputs.iter().map(|&i| &shapes[i]).collect();
        let err = |msg| GraphError::Layout { node: id, msg };
        let (need, produced) = layout_contract(&node.op, &have, &in_shapes).map_err(err)?;
        let inputs = ins.iter().zip(need).map(|(&i, want)| p.get_as(i, want));
        let inputs = inputs.collect::<std::result::Result<Vec<_>, _>>().map_err(err)?;
        remap.push(p.out.push(node.op.clone(), inputs));
        p.ports.push(produced);
    }

    // Graph outputs revert to framework-default layouts (Figure 2: "we
    // still have NCHW input and output for the network").
    let mut final_outputs = Vec::with_capacity(g.outputs.len());
    for &o in &g.outputs {
        let src = remap[o];
        let have = p.ports[src];
        let layout = match have.layout {
            Layout::NchwC(_) | Layout::Nhwc => Layout::Nchw,
            l => l,
        };
        let out = p.get_as(src, Port { layout, ..have });
        final_outputs.push(out.map_err(|msg| GraphError::Layout { node: o, msg })?);
    }
    p.out.outputs = final_outputs;
    Ok(p.out)
}

/// The graph `insert_layout_transforms` builds, with the port each new node
/// produces and the conversions made so far.
struct Placer {
    out: Graph,
    ports: Vec<Port>,
    /// Memoized conversions: (new source node, port it converts to) → new
    /// node, so one value converted to the same port twice shares one node.
    memo: HashMap<(usize, Port), usize>,
}

impl Placer {
    /// Obtains `src` (a new-graph id) as `want`: its layout converted first,
    /// then f32 quantized to `want`'s u8. A u8 value is never converted.
    fn get_as(&mut self, src: usize, want: Port) -> std::result::Result<usize, String> {
        let have = self.ports[src];
        if have == want {
            return Ok(src);
        }
        if have.quant.is_some() {
            return Err(format!("cannot convert {have} to {want}"));
        }
        let mut at = src;
        for to in [Port::f32(want.layout), want] {
            if self.ports[at] == to {
                continue;
            }
            let op = match to.quant {
                Some((s, zero_point)) => Op::Quantize { scale: f32::from_bits(s), zero_point },
                None => Op::LayoutTransform { to: to.layout },
            };
            at = *self.memo.entry((at, to)).or_insert_with(|| {
                self.ports.push(to);
                self.out.push(op, vec![at])
            });
        }
        Ok(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{infer_layouts, infer_shapes};
    use crate::passes::{fuse_ops, simplify_inference};
    use crate::GraphBuilder;

    fn chain_graph() -> Graph {
        // conv → relu → pool → conv → relu → flatten → dense → softmax
        let mut b = GraphBuilder::new(11);
        let x = b.input([1, 16, 16, 16]);
        let c1 = b.conv2d(x, 32, 3, 1, 1);
        let r1 = b.relu(c1);
        let p = b.max_pool(r1, 2, 2, 0);
        let c2 = b.conv2d(p, 32, 3, 1, 1);
        let r2 = b.relu(c2);
        let f = b.flatten(r2);
        let d = b.dense(f, 10);
        let s = b.softmax(d);
        b.finish(vec![s])
    }

    fn prepared(g: &Graph) -> Graph {
        fuse_ops(&simplify_inference(g).unwrap()).unwrap()
    }

    #[test]
    fn uniform_plan_inserts_only_boundary_transforms() {
        let g = prepared(&chain_graph());
        let cfg = UniformPlanCfg { block: 16, reg_n: 8 };
        let planned = plan_uniform(&g, &cfg).unwrap();
        // One transform into blocked layout at the entry, one back before
        // flatten: the pool and fused relus pass the blocked layout through.
        assert_eq!(planned.transform_count(), 2);
        let shapes = infer_shapes(&planned).unwrap();
        infer_layouts(&planned, &shapes).unwrap();
    }

    #[test]
    fn wrapped_plan_pays_two_transforms_per_conv() {
        let g = prepared(&chain_graph());
        let cfg = UniformPlanCfg { block: 16, reg_n: 8 };
        let wrapped = wrap_convs_with_transforms(&g, &cfg).unwrap();
        assert_eq!(wrapped.transform_count(), 2 * 2);
        let shapes = infer_shapes(&wrapped).unwrap();
        infer_layouts(&wrapped, &shapes).unwrap();
    }

    #[test]
    fn mismatched_assigned_schedules_insert_reblock() {
        let g = prepared(&chain_graph());
        let convs = g.conv_ids();
        let mut schedules = HashMap::new();
        schedules.insert(
            convs[0],
            ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 8, ..Default::default() },
        );
        schedules.insert(
            convs[1],
            ConvSchedule { ic_bn: 8, oc_bn: 32, reg_n: 8, ..Default::default() },
        );
        let cfg = UniformPlanCfg::default();
        let planned = plan_assigned(&g, &schedules, &cfg).unwrap();
        // Entry transform, 16c→8c reblock between the convs, 32c→NCHW exit.
        assert_eq!(planned.transform_count(), 3);
        let shapes = infer_shapes(&planned).unwrap();
        infer_layouts(&planned, &shapes).unwrap();
    }

    #[test]
    fn residual_graph_keeps_layout_through_skip() {
        let mut b = GraphBuilder::new(12);
        let x = b.input([1, 16, 8, 8]);
        let c0 = b.conv2d(x, 16, 1, 1, 0);
        let c1 = b.conv2d(c0, 16, 3, 1, 1);
        let r1 = b.relu(c1);
        let c2 = b.conv2d(r1, 16, 3, 1, 1);
        let a = b.add(c2, c0);
        let r = b.relu(a);
        let g = prepared(&b.finish(vec![r]));
        let cfg = UniformPlanCfg { block: 16, reg_n: 8 };
        let planned = plan_uniform(&g, &cfg).unwrap();
        // Entry NCHW→16c and exit 16c→NCHW only: the skip connection's
        // blocked tensor feeds the fused residual without any transform.
        assert_eq!(planned.transform_count(), 2);
        let shapes = infer_shapes(&planned).unwrap();
        infer_layouts(&planned, &shapes).unwrap();
    }

    #[test]
    fn concat_falls_back_when_blocks_do_not_divide() {
        let mut b = GraphBuilder::new(13);
        let x = b.input([1, 8, 8, 8]);
        let c1 = b.conv2d(x, 12, 1, 1, 0); // 12 % 8 != 0
        let c2 = b.conv2d(x, 8, 1, 1, 0);
        let cat = b.concat(&[c1, c2]);
        let g = prepared(&b.finish(vec![cat]));
        let cfg = UniformPlanCfg { block: 8, reg_n: 8 };
        let planned = plan_uniform(&g, &cfg).unwrap();
        let shapes = infer_shapes(&planned).unwrap();
        let (layouts, _) = infer_layouts(&planned, &shapes).unwrap();
        // The concat output must be valid; inference passing is the check.
        assert!(layouts.len() == planned.len());
    }

    #[test]
    fn memoized_transform_is_shared_by_consumers() {
        // One producer feeding two convs that need the same blocked layout
        // must create a single transform node.
        let mut b = GraphBuilder::new(14);
        let x = b.input([1, 16, 8, 8]);
        let c1 = b.conv2d(x, 16, 3, 1, 1);
        let c2 = b.conv2d(x, 16, 3, 1, 1);
        let a = b.add(c1, c2);
        let g = prepared(&b.finish(vec![a]));
        let cfg = UniformPlanCfg { block: 16, reg_n: 8 };
        let planned = plan_uniform(&g, &cfg).unwrap();
        // input→16c shared once + exit transform.
        assert_eq!(planned.transform_count(), 2);
    }
}
