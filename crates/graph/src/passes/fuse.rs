//! Operation fusion: merging memory-bound epilogues into convolutions.
//!
//! "The common practice is fusing them to CONVs so as to increase the
//! overall arithmetic intensity" (§2.2). After simplification the patterns
//! left in the evaluated models are:
//!
//! * `Conv → ReLU`                      → conv with fused ReLU;
//! * `Conv → Add(skip) → ReLU`          → conv with fused residual + ReLU
//!   (the ResNet block tail);
//! * `Conv → Add(skip)`                 → conv with fused residual;
//! * `Dense → ReLU`                     → dense with fused ReLU.
//!
//! A pattern only fuses when every intermediate value has a single
//! consumer — fusing a shared value would change semantics.

use std::collections::HashMap;

use crate::ir::{Graph, NodeId, Op};
use crate::Result;

/// What one conv/dense node absorbs.
struct Group {
    /// Root (conv or dense) node id in the old graph.
    root: NodeId,
    /// Old id of the fused residual-add node, plus the *other* operand.
    add: Option<(NodeId, NodeId)>,
    /// Old id of the fused relu node.
    relu: Option<NodeId>,
}

impl Group {
    /// Position in the old graph where the fused node is emitted (the last
    /// member, so all operands are already available).
    fn emit_at(&self) -> NodeId {
        self.relu.or(self.add.map(|(a, _)| a)).unwrap_or(self.root)
    }
}

/// Runs epilogue fusion.
///
/// # Errors
///
/// Returns an error only if the input graph fails validation.
pub fn fuse_ops(g: &Graph) -> Result<Graph> {
    g.validate()?;
    let fanout = g.fanout();
    // Unique consumer of each node, when it has exactly one.
    let mut consumer: Vec<Option<NodeId>> = vec![None; g.len()];
    for (id, node) in g.nodes.iter().enumerate() {
        for &i in &node.inputs {
            consumer[i] = if fanout[i] == 1 { Some(id) } else { None };
        }
    }

    // Plan fusion groups greedily in ascending root order.
    let mut member_of: HashMap<NodeId, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for (id, node) in g.nodes.iter().enumerate() {
        let is_conv = matches!(node.op, Op::Conv2d { residual: false, relu: false, .. });
        let is_dense = matches!(node.op, Op::Dense { relu: false, .. });
        if !is_conv && !is_dense {
            continue;
        }
        if member_of.contains_key(&id) {
            continue;
        }
        let mut group = Group { root: id, add: None, relu: None };
        let mut cur = id;
        if is_conv {
            if let Some(next) = consumer[cur] {
                if matches!(g.nodes[next].op, Op::Add) && !member_of.contains_key(&next) {
                    let other =
                        *g.nodes[next].inputs.iter().find(|&&i| i != cur).unwrap_or(&cur);
                    // A degenerate `add(x, x)` keeps `other == cur`; skip it.
                    if other != cur {
                        group.add = Some((next, other));
                        cur = next;
                    }
                }
            }
        }
        if let Some(next) = consumer[cur] {
            if matches!(g.nodes[next].op, Op::Relu) && !member_of.contains_key(&next) {
                group.relu = Some(next);
            }
        }
        if group.add.is_some() || group.relu.is_some() {
            let gi = groups.len();
            member_of.insert(group.root, gi);
            if let Some((a, _)) = group.add {
                member_of.insert(a, gi);
            }
            if let Some(r) = group.relu {
                member_of.insert(r, gi);
            }
            groups.push(group);
        }
    }

    // Rebuild: fused members are skipped; the fused op is emitted at the
    // group's last position so every operand is already mapped.
    let emit_at: HashMap<NodeId, usize> =
        groups.iter().enumerate().map(|(gi, gr)| (gr.emit_at(), gi)).collect();
    let mut out = Graph { nodes: Vec::new(), params: g.params.clone(), outputs: Vec::new() };
    let mut remap: Vec<usize> = vec![usize::MAX; g.len()];
    for id in 0..g.len() {
        if let Some(&gi) = emit_at.get(&id) {
            let gr = &groups[gi];
            let root = &g.nodes[gr.root];
            let mut inputs: Vec<usize> = root.inputs.iter().map(|&i| remap[i]).collect();
            let op = match &root.op {
                Op::Conv2d { params, weight, bias, schedule, quant, requant, .. } => {
                    if let Some((_, other)) = gr.add {
                        inputs.push(remap[other]);
                    }
                    Op::Conv2d {
                        params: *params,
                        weight: *weight,
                        bias: *bias,
                        schedule: *schedule,
                        relu: gr.relu.is_some(),
                        residual: gr.add.is_some(),
                        quant: *quant,
                        requant: *requant,
                    }
                }
                Op::Dense { weight, bias, .. } => {
                    Op::Dense { weight: *weight, bias: *bias, relu: gr.relu.is_some() }
                }
                _ => unreachable!("group roots are conv or dense"),
            };
            let new = out.push(op, inputs);
            remap[gr.root] = new;
            if let Some((a, _)) = gr.add {
                remap[a] = new;
            }
            if let Some(r) = gr.relu {
                remap[r] = new;
            }
        } else if member_of.contains_key(&id) {
            // Skipped: emitted later at the group's tail position.
        } else {
            let node = &g.nodes[id];
            let inputs: Vec<usize> = node.inputs.iter().map(|&i| remap[i]).collect();
            remap[id] = out.push(node.op.clone(), inputs);
        }
    }
    out.outputs = g.outputs.iter().map(|&o| remap[o]).collect();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::simplify_inference;
    use crate::GraphBuilder;

    fn conv_flags(g: &Graph) -> Vec<(bool, bool)> {
        g.nodes
            .iter()
            .filter_map(|n| match n.op {
                Op::Conv2d { relu, residual, .. } => Some((relu, residual)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn conv_relu_fuses() {
        let mut b = GraphBuilder::new(1);
        let x = b.input([1, 4, 8, 8]);
        let c = b.conv2d(x, 8, 3, 1, 1);
        let r = b.relu(c);
        let g = b.finish(vec![r]);
        let f = fuse_ops(&g).unwrap();
        assert_eq!(conv_flags(&f), vec![(true, false)]);
        assert_eq!(f.len(), 2); // input + fused conv
        f.validate().unwrap();
    }

    #[test]
    fn resnet_tail_fuses_add_and_relu() {
        let mut b = GraphBuilder::new(2);
        let x = b.input([1, 8, 8, 8]);
        let skip = b.conv2d(x, 8, 1, 1, 0);
        let c1 = b.conv2d(x, 8, 3, 1, 1);
        let r1 = b.relu(c1);
        let c2 = b.conv2d(r1, 8, 3, 1, 1);
        let a = b.add(c2, skip);
        let r2 = b.relu(a);
        let g = b.finish(vec![r2]);
        let f = fuse_ops(&g).unwrap();
        // c1 fuses its relu; c2 fuses add + final relu; skip stays plain.
        let flags = conv_flags(&f);
        assert!(flags.contains(&(true, true)));
        assert!(flags.contains(&(true, false)));
        assert!(flags.contains(&(false, false)));
        assert!(f.nodes.iter().all(|n| !matches!(n.op, Op::Add | Op::Relu)));
        f.validate().unwrap();
    }

    #[test]
    fn shared_conv_output_blocks_fusion() {
        let mut b = GraphBuilder::new(3);
        let x = b.input([1, 4, 8, 8]);
        let c = b.conv2d(x, 4, 3, 1, 1);
        let r = b.relu(c);
        let a = b.add(r, c); // c consumed twice
        let g = b.finish(vec![a]);
        let f = fuse_ops(&g).unwrap();
        assert_eq!(conv_flags(&f), vec![(false, false)]);
        assert!(f.nodes.iter().any(|n| matches!(n.op, Op::Relu)));
        f.validate().unwrap();
    }

    #[test]
    fn dense_relu_fuses() {
        let mut b = GraphBuilder::new(4);
        let x = b.input([1, 16]);
        let d = b.dense(x, 8);
        let r = b.relu(d);
        let g = b.finish(vec![r]);
        let f = fuse_ops(&g).unwrap();
        assert!(f
            .nodes
            .iter()
            .any(|n| matches!(n.op, Op::Dense { relu: true, .. })));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn full_resnet_block_after_simplify() {
        // conv-bn-relu ×2 + skip add: simplify then fuse must leave exactly
        // two fused convs and the skip path.
        let mut b = GraphBuilder::new(5);
        let x = b.input([1, 8, 8, 8]);
        let c1 = b.conv_bn_relu(x, 8, 3, 1, 1);
        let c2 = b.conv2d_opts(c1, 8, 3, 1, 1, false);
        let bn2 = b.batch_norm(c2);
        let a = b.add(bn2, x);
        let r = b.relu(a);
        let g = b.finish(vec![r]);
        let s = simplify_inference(&g).unwrap();
        let f = fuse_ops(&s).unwrap();
        let flags = conv_flags(&f);
        assert_eq!(flags.len(), 2);
        assert!(flags.contains(&(true, false)));
        assert!(flags.contains(&(true, true)));
        f.validate().unwrap();
    }
}
