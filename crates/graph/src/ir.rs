//! Graph intermediate representation.
//!
//! A [`Graph`] is an arena of [`Node`]s in topological id order (every edge
//! points from a lower id to a higher id), a parameter store of constant
//! tensors (weights, folded BN statistics), and a list of output node ids.
//! Keeping nodes topologically sorted by construction makes every pass a
//! single forward walk, exactly how Algorithm 2 visits the graph.
//!
//! Parameters are shared handles: cloning a graph, or starting a pass's
//! output from its input's store, copies reference counts, not weights. A
//! pass that changes a weight pushes a new tensor (or replaces the handle)
//! and never writes through a shared one; [`Graph::compact_params`] then
//! drops whatever no node references.

use std::sync::Arc;

use neocpu_kernels::conv::{Conv2dParams, ConvSchedule};
use neocpu_kernels::pool2d::{Pool2dParams, PoolKind};
use neocpu_tensor::{Layout, Tensor};

use crate::{GraphError, Result};

/// Index of a node within its graph.
pub type NodeId = usize;

/// Index of a parameter tensor within its graph.
pub type ParamId = usize;

/// Compile-time quantization state of a `Conv2d` node.
///
/// Set by the quantization pass: the weight parameter has been replaced by
/// an `i8` quad-packed tensor, the bias by the folded
/// `bias − m·zp·Σw_q` correction, and `mult` points at the per-output-
/// channel multiplier `m[oc] = in_scale · s_w[oc]` that maps the integer
/// accumulator back to f32. The node then requires a `u8` input (a
/// `Quantize` node's, or a requantizing conv's) and produces f32 unless its
/// own `requant` is set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantInfo {
    /// Activation quantization scale (from calibration).
    pub in_scale: f32,
    /// Activation zero point; also the padding halo fill value.
    pub in_zp: u8,
    /// Parameter id of the per-out-channel f32 multiplier (`FLAT`).
    pub mult: ParamId,
}

/// An operator node.
///
/// Fusion state is carried on the operator itself: a `Conv2d` with
/// `relu = true` and `residual = true` is the paper's fused
/// CONV+Add+ReLU block and takes a second data input.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// External activation input of the given logical shape.
    Input {
        /// Logical `[N, C, H, W]` (or `[N, C]`) shape.
        shape: Vec<usize>,
    },
    /// 2-D convolution, optionally with fused epilogue ops.
    Conv2d {
        /// Static workload description.
        params: Conv2dParams,
        /// `OIHW` weight parameter.
        weight: ParamId,
        /// Optional per-out-channel bias parameter (`FLAT`).
        bias: Option<ParamId>,
        /// The `NCHW[x]c` schedule chosen by a layout pass; `None` means
        /// "execute in plain NCHW" (the baseline path).
        schedule: Option<ConvSchedule>,
        /// Fused ReLU epilogue.
        relu: bool,
        /// Fused residual add; when set the node has a second input whose
        /// tensor is added before the (optional) ReLU.
        residual: bool,
        /// Int8 quantization state; `None` is the f32 path. See
        /// [`QuantInfo`].
        quant: Option<QuantInfo>,
        /// Output quantization `(scale, zero_point)`: the last stage of the
        /// fused epilogue stores `u8` — a `Quantize` node folded into its
        /// producer. Independent of `quant` (an f32 stem may requantize)
        /// and only valid on a scheduled conv.
        requant: Option<(f32, u8)>,
    },
    /// Affine f32 → u8 quantization (`q = clamp(round(x/scale) + zp, 0,
    /// 255)`; NaN maps to `zp`). Shape- and layout-preserving.
    Quantize {
        /// Quantization scale.
        scale: f32,
        /// Zero point.
        zero_point: u8,
    },
    /// Per-channel affine `y = x·scale + shift` (folded BatchNorm).
    ScaleShift {
        /// Per-channel scale parameter (`FLAT`).
        scale: ParamId,
        /// Per-channel shift parameter (`FLAT`).
        shift: ParamId,
    },
    /// Batch normalization in inference form (pre-folding).
    BatchNorm {
        /// γ parameter.
        gamma: ParamId,
        /// β parameter.
        beta: ParamId,
        /// Running mean.
        mean: ParamId,
        /// Running variance.
        var: ParamId,
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// Rectified linear unit.
    Relu,
    /// Spatial max/avg pooling.
    Pool {
        /// Window geometry.
        params: Pool2dParams,
        /// Reduction kind.
        kind: PoolKind,
    },
    /// Global average pooling to `[N, C, 1, 1]`.
    GlobalAvgPool,
    /// Element-wise addition of two tensors.
    Add,
    /// Channel-dimension concatenation of ≥ 2 tensors.
    Concat,
    /// Collapse `[N, C, H, W]` to `[N, C·H·W]` (layout-dependent).
    Flatten,
    /// Fully connected layer, optionally with fused ReLU.
    Dense {
        /// `OI` weight parameter.
        weight: ParamId,
        /// Optional bias parameter.
        bias: Option<ParamId>,
        /// Fused ReLU epilogue.
        relu: bool,
    },
    /// Row-wise softmax over `NC`.
    Softmax,
    /// Dropout — identity at inference time; removed by simplification.
    Dropout,
    /// Explicit data layout conversion inserted by the layout passes.
    LayoutTransform {
        /// Target layout.
        to: Layout,
    },
}

impl Op {
    /// Number of data inputs this operator requires, if fixed.
    pub fn arity(&self) -> Option<usize> {
        match self {
            Op::Input { .. } => Some(0),
            Op::Conv2d { residual, .. } => Some(if *residual { 2 } else { 1 }),
            Op::Add => Some(2),
            Op::Concat => None, // ≥ 2, validated separately
            _ => Some(1),
        }
    }

    /// Parameter tensors this operator references, in declaration order.
    ///
    /// This is the single source of truth for parameter usage;
    /// [`Graph::validate`] bounds-checks these ids against the graph's
    /// parameter store.
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.clone().param_ids_mut().into_iter().map(|p| *p).collect()
    }

    /// The parameter ids of [`Op::param_ids`], writable — the one match over
    /// the ops that hold parameters, so [`Graph::compact_params`] renumbers
    /// exactly what [`Graph::validate`] checks.
    fn param_ids_mut(&mut self) -> Vec<&mut ParamId> {
        match self {
            Op::Conv2d { weight, bias, quant, .. } => {
                let mut v = vec![weight];
                v.extend(bias.as_mut());
                v.extend(quant.as_mut().map(|q| &mut q.mult));
                v
            }
            Op::Dense { weight, bias, .. } => {
                let mut v = vec![weight];
                v.extend(bias.as_mut());
                v
            }
            Op::ScaleShift { scale, shift } => vec![scale, shift],
            Op::BatchNorm { gamma, beta, mean, var, .. } => vec![gamma, beta, mean, var],
            _ => Vec::new(),
        }
    }

    /// Short operator name for debugging and pass diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Input { .. } => "input",
            Op::Conv2d { .. } => "conv2d",
            Op::ScaleShift { .. } => "scale_shift",
            Op::BatchNorm { .. } => "batch_norm",
            Op::Relu => "relu",
            Op::Pool { kind: PoolKind::Max, .. } => "max_pool",
            Op::Pool { kind: PoolKind::Avg, .. } => "avg_pool",
            Op::GlobalAvgPool => "global_avg_pool",
            Op::Add => "add",
            Op::Concat => "concat",
            Op::Flatten => "flatten",
            Op::Dense { .. } => "dense",
            Op::Softmax => "softmax",
            Op::Dropout => "dropout",
            Op::Quantize { .. } => "quantize",
            Op::LayoutTransform { .. } => "layout_transform",
        }
    }
}

/// A node: an operator applied to the outputs of earlier nodes.
#[derive(Debug, Clone)]
pub struct Node {
    /// The operator.
    pub op: Op,
    /// Producing nodes, all with ids smaller than this node's id.
    pub inputs: Vec<NodeId>,
}

/// A computation graph plus its constant parameters.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Nodes in topological id order.
    pub nodes: Vec<Node>,
    /// Constant parameter tensors referenced by ops, shared with every graph
    /// cloned from or rewritten out of this one.
    pub params: Vec<Arc<Tensor>>,
    /// Output node ids.
    pub outputs: Vec<NodeId>,
}

impl Graph {
    /// Appends a node, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if any input id is not smaller than the new node's id
    /// (construction must be topological); use [`Graph::validate`] for
    /// fallible whole-graph checking.
    pub fn push(&mut self, op: Op, inputs: Vec<NodeId>) -> NodeId {
        let id = self.nodes.len();
        assert!(
            inputs.iter().all(|&i| i < id),
            "graph construction must be topological"
        );
        self.nodes.push(Node { op, inputs });
        id
    }

    /// Adds a parameter tensor, returning its id.
    pub fn push_param(&mut self, t: Tensor) -> ParamId {
        self.params.push(Arc::new(t));
        self.params.len() - 1
    }

    /// Drops every parameter no node references and renumbers the rest in
    /// their old order, rewriting each op's ids ([`QuantInfo::mult`]
    /// included). A tensor several nodes share is kept once.
    ///
    /// # Panics
    ///
    /// Panics if a node references a parameter out of range; run
    /// [`Graph::validate`] first.
    pub fn compact_params(&mut self) {
        let mut used = vec![false; self.params.len()];
        for node in &self.nodes {
            for p in node.op.param_ids() {
                used[p] = true;
            }
        }
        let mut new_id = vec![ParamId::MAX; self.params.len()];
        let mut kept = Vec::new();
        for (id, t) in std::mem::take(&mut self.params).into_iter().enumerate() {
            if used[id] {
                new_id[id] = kept.len();
                kept.push(t);
            }
        }
        for node in &mut self.nodes {
            for p in node.op.param_ids_mut() {
                *p = new_id[*p];
            }
        }
        self.params = kept;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of all convolution nodes.
    pub fn conv_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| matches!(self.nodes[i].op, Op::Conv2d { .. }))
            .collect()
    }

    /// Number of consumers of each node (fan-out), counting graph outputs.
    pub fn fanout(&self) -> Vec<usize> {
        let mut f = vec![0usize; self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                f[i] += 1;
            }
        }
        for &o in &self.outputs {
            f[o] += 1;
        }
        f
    }

    /// Validates structural invariants: topological input order, arities,
    /// parameter references, output ids.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<()> {
        for (id, node) in self.nodes.iter().enumerate() {
            for &inp in &node.inputs {
                if inp >= id {
                    return Err(GraphError::BadNodeRef { node: id, input: inp });
                }
            }
            if let Some(want) = node.op.arity() {
                if node.inputs.len() != want {
                    return Err(GraphError::BadArity {
                        node: id,
                        expected: want,
                        actual: node.inputs.len(),
                    });
                }
            } else if node.inputs.len() < 2 {
                return Err(GraphError::BadArity {
                    node: id,
                    expected: 2,
                    actual: node.inputs.len(),
                });
            }
            for param in node.op.param_ids() {
                if param >= self.params.len() {
                    return Err(GraphError::BadParamRef { node: id, param });
                }
            }
        }
        for &o in &self.outputs {
            if o >= self.nodes.len() {
                return Err(GraphError::BadNodeRef { node: o, input: o });
            }
        }
        Ok(())
    }

    /// Total multiply-accumulate count of all convolutions (batch 1).
    pub fn conv_macs(&self) -> u64 {
        self.nodes
            .iter()
            .filter_map(|n| match &n.op {
                Op::Conv2d { params, .. } => Some(params.macs()),
                _ => None,
            })
            .sum()
    }

    /// Count of `LayoutTransform` nodes — the quantity the §3.2 pass
    /// minimizes; used by tests and the ablation harness.
    pub fn transform_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, Op::LayoutTransform { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_enforces_topological_order() {
        let mut g = Graph::default();
        let a = g.push(Op::Input { shape: vec![1, 3, 8, 8] }, vec![]);
        let b = g.push(Op::Relu, vec![a]);
        assert_eq!(b, 1);
        g.outputs.push(b);
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "topological")]
    fn push_rejects_forward_reference() {
        let mut g = Graph::default();
        g.push(Op::Relu, vec![3]);
    }

    #[test]
    fn validate_catches_bad_arity() {
        let mut g = Graph::default();
        let a = g.push(Op::Input { shape: vec![1, 3, 8, 8] }, vec![]);
        g.nodes.push(Node { op: Op::Add, inputs: vec![a] });
        assert!(matches!(g.validate(), Err(GraphError::BadArity { .. })));
    }

    #[test]
    fn validate_catches_bad_param() {
        let mut g = Graph::default();
        let a = g.push(Op::Input { shape: vec![1, 3, 8, 8] }, vec![]);
        g.nodes.push(Node {
            op: Op::ScaleShift { scale: 0, shift: 1 },
            inputs: vec![a],
        });
        assert!(matches!(g.validate(), Err(GraphError::BadParamRef { node: 1, param: 0 })));
    }

    /// Three convs with biases: the second's weight is replaced by the
    /// first's, a spare tensor is pushed, and the third becomes a quantized
    /// conv whose multiplier is the last parameter.
    #[test]
    fn compact_params_drops_the_unreferenced_and_renumbers_the_rest() {
        use crate::GraphBuilder;

        let mut b = GraphBuilder::new(5);
        let x = b.input([1, 8, 8, 8]);
        let c1 = b.conv2d(x, 8, 3, 1, 1);
        let c2 = b.conv2d(c1, 8, 3, 1, 1);
        let c3 = b.conv2d(c2, 8, 3, 1, 1);
        let mut g = b.finish(vec![c3]);
        let weight_of = |g: &Graph, c: NodeId| match g.nodes[c].op {
            Op::Conv2d { weight, .. } => weight,
            _ => unreachable!(),
        };
        let shared = weight_of(&g, c1);
        let Op::Conv2d { weight, .. } = &mut g.nodes[c2].op else { unreachable!() };
        *weight = shared;
        g.push_param(Tensor::zeros([4], Layout::Flat).unwrap());
        let mult = g.push_param(Tensor::random([8], Layout::Flat, 1, 0.1).unwrap());
        let Op::Conv2d { quant, .. } = &mut g.nodes[c3].op else { unreachable!() };
        *quant = Some(QuantInfo { in_scale: 0.05, in_zp: 128, mult });
        let held = g.params.len();
        let tensors_of = |g: &Graph| -> Vec<Vec<Vec<f32>>> {
            let ids = g.nodes.iter().map(|n| n.op.param_ids());
            ids.map(|ids| ids.iter().map(|&p| g.params[p].data().to_vec()).collect()).collect()
        };
        let before = tensors_of(&g);

        g.compact_params();
        assert_eq!(g.validate(), Ok(()));
        // c2's own weight and the spare tensor are gone; the shared weight
        // is held once.
        assert_eq!(g.params.len(), held - 2);
        assert_eq!(weight_of(&g, c1), weight_of(&g, c2));
        let Op::Conv2d { quant: Some(q), .. } = g.nodes[c3].op else { unreachable!() };
        assert_eq!(q.mult, g.params.len() - 1);
        assert_ne!(q.mult, mult);
        // Every node reads the tensors it read before.
        assert_eq!(tensors_of(&g), before);
    }

    #[test]
    fn fanout_counts_outputs() {
        let mut g = Graph::default();
        let a = g.push(Op::Input { shape: vec![1, 3, 8, 8] }, vec![]);
        let b = g.push(Op::Relu, vec![a]);
        let c = g.push(Op::Relu, vec![a]);
        g.outputs = vec![b, c];
        assert_eq!(g.fanout(), vec![2, 1, 1]);
    }
}
