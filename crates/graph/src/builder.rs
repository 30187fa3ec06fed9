//! Ergonomic graph construction with deterministic parameter
//! initialization.
//!
//! The model zoo builds every network through this builder. Weights are
//! seeded pseudo-randomly with fan-in-scaled ranges (Xavier-style) so deep
//! stacks keep activations well-conditioned — the reproduction validates
//! semantics by reference-vs-optimized equivalence, not ImageNet accuracy,
//! so any fixed, well-scaled weights serve (see DESIGN.md).

use neocpu_kernels::conv::Conv2dParams;
use neocpu_kernels::pool2d::{Pool2dParams, PoolKind};
use neocpu_tensor::{Layout, Shape, Tensor};

use crate::infer::node_shape;
use crate::ir::{Graph, NodeId, Op};

/// Incremental graph builder that tracks output shapes as nodes are added.
pub struct GraphBuilder {
    graph: Graph,
    shapes: Vec<Shape>,
    seed: u64,
}

impl GraphBuilder {
    /// Creates a builder whose parameters derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { graph: Graph::default(), shapes: Vec::new(), seed }
    }

    fn next_seed(&mut self) -> u64 {
        self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.seed
    }

    /// Appends a node and records its shape by the graph's shape rule.
    ///
    /// # Panics
    ///
    /// Panics at a node whose operands are inconsistent (builder misuse),
    /// naming its op.
    fn push(&mut self, op: Op, inputs: Vec<NodeId>) -> NodeId {
        let ins: Vec<&Shape> = inputs.iter().map(|&i| &self.shapes[i]).collect();
        let shape = node_shape(&self.graph, &op, &ins)
            .unwrap_or_else(|msg| panic!("{} at node {}: {msg}", op.name(), self.graph.len()));
        self.shapes.push(shape);
        self.graph.push(op, inputs)
    }

    /// Shape of an already-added node.
    pub fn shape(&self, id: NodeId) -> &Shape {
        &self.shapes[id]
    }

    /// Adds an external input.
    pub fn input(&mut self, shape: impl Into<Vec<usize>>) -> NodeId {
        self.push(Op::Input { shape: shape.into() }, vec![])
    }

    /// Adds a convolution over `x` with the given geometry, drawing its
    /// `OIHW` weight and then, if asked, its bias.
    fn conv(&mut self, x: NodeId, params: Conv2dParams, bias: bool) -> NodeId {
        let (oc, icg) = (params.out_channels, params.in_channels_per_group());
        let (kh, kw) = (params.kernel_h, params.kernel_w);
        let scale = (3.0 / (icg * kh * kw) as f32).sqrt();
        let seed = self.next_seed();
        let weight = self.graph.push_param(
            Tensor::random([oc, icg, kh, kw], Layout::Oihw, seed, scale)
                .expect("conv weight shape is always valid"),
        );
        let bias = bias.then(|| {
            let seed = self.next_seed();
            self.graph.push_param(
                Tensor::random([oc], Layout::Flat, seed, 0.1).expect("bias shape is always valid"),
            )
        });
        self.push(
            Op::Conv2d { params, weight, bias, schedule: None, relu: false, residual: false, quant: None, requant: None },
            vec![x],
        )
    }

    /// The `[N, C, H, W]` dims of a conv input.
    fn conv_input(&self, x: NodeId) -> [usize; 4] {
        self.shapes[x].dims().try_into().expect("conv2d input must be rank 4")
    }

    /// Adds a (biased) convolution with square kernel geometry.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 4 (builder misuse).
    pub fn conv2d(&mut self, x: NodeId, out_c: usize, kernel: usize, stride: usize, pad: usize) -> NodeId {
        self.conv2d_opts(x, out_c, kernel, stride, pad, true)
    }

    /// Adds a convolution, optionally without bias (ResNet-style convs that
    /// are always followed by BatchNorm omit it).
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 4.
    pub fn conv2d_opts(
        &mut self,
        x: NodeId,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
    ) -> NodeId {
        self.conv2d_rect(x, out_c, (kernel, kernel), (stride, stride), (pad, pad), bias)
    }

    /// Adds a convolution with rectangular kernel/stride/padding (needed by
    /// Inception-v3's factorized 1×7/7×1 convolutions).
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 4.
    pub fn conv2d_rect(
        &mut self,
        x: NodeId,
        out_c: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        pad: (usize, usize),
        bias: bool,
    ) -> NodeId {
        let [_, c, h, w] = self.conv_input(x);
        let params = Conv2dParams {
            in_channels: c,
            out_channels: out_c,
            in_h: h,
            in_w: w,
            kernel_h: kernel.0,
            kernel_w: kernel.1,
            stride_h: stride.0,
            stride_w: stride.1,
            pad_h: pad.0,
            pad_w: pad.1,
            groups: 1,
        };
        self.conv(x, params, bias)
    }

    /// Adds a depthwise convolution (`groups == channels`, one `kh×kw`
    /// filter per channel), optionally without bias.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 4.
    pub fn depthwise_conv2d(
        &mut self,
        x: NodeId,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
    ) -> NodeId {
        let [_, c, h, w] = self.conv_input(x);
        let params = Conv2dParams { in_w: w, ..Conv2dParams::depthwise(c, h, kernel, stride, pad) };
        self.conv(x, params, bias)
    }

    /// depthwise conv → BN → ReLU, the MobileNet separable-block half.
    pub fn dw_conv_bn_relu(
        &mut self,
        x: NodeId,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> NodeId {
        let c = self.depthwise_conv2d(x, kernel, stride, pad, false);
        let b = self.batch_norm(c);
        self.relu(b)
    }

    /// conv (rect) → BN → ReLU, the Inception building block.
    pub fn conv_bn_relu_rect(
        &mut self,
        x: NodeId,
        out_c: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        pad: (usize, usize),
    ) -> NodeId {
        let c = self.conv2d_rect(x, out_c, kernel, stride, pad, false);
        let b = self.batch_norm(c);
        self.relu(b)
    }

    /// Adds an inference-mode BatchNorm with plausible running statistics.
    pub fn batch_norm(&mut self, x: NodeId) -> NodeId {
        let c = self.shapes[x].dims()[1];
        let mk = |b: &mut Self, lo: f32, hi: f32| {
            let seed = b.next_seed();
            let t = Tensor::random([c], Layout::Flat, seed, 1.0).expect("flat shape valid");
            let data: Vec<f32> =
                t.data().iter().map(|v| lo + (v + 1.0) * 0.5 * (hi - lo)).collect();
            b.graph
                .push_param(Tensor::from_vec(data, [c], Layout::Flat).expect("flat shape valid"))
        };
        let gamma = mk(self, 0.5, 1.5);
        let beta = mk(self, -0.3, 0.3);
        let mean = mk(self, -0.2, 0.2);
        let var = mk(self, 0.5, 1.5);
        self.push(Op::BatchNorm { gamma, beta, mean, var, eps: 1e-5 }, vec![x])
    }

    /// Adds a ReLU.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        self.push(Op::Relu, vec![x])
    }

    /// Adds a dropout node (identity at inference; exercised by the
    /// simplification pass).
    pub fn dropout(&mut self, x: NodeId) -> NodeId {
        self.push(Op::Dropout, vec![x])
    }

    fn pool(&mut self, x: NodeId, params: Pool2dParams, kind: PoolKind) -> NodeId {
        self.push(Op::Pool { params, kind }, vec![x])
    }

    /// Adds a square max pool.
    pub fn max_pool(&mut self, x: NodeId, kernel: usize, stride: usize, pad: usize) -> NodeId {
        self.pool(x, Pool2dParams::square(kernel, stride, pad), PoolKind::Max)
    }

    /// Adds a square average pool.
    pub fn avg_pool(&mut self, x: NodeId, kernel: usize, stride: usize, pad: usize) -> NodeId {
        self.pool(x, Pool2dParams::square(kernel, stride, pad), PoolKind::Avg)
    }

    /// Adds a global average pool (`[N, C, 1, 1]`).
    pub fn global_avg_pool(&mut self, x: NodeId) -> NodeId {
        self.push(Op::GlobalAvgPool, vec![x])
    }

    /// Adds an element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if the operands' shapes differ.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Add, vec![a, b])
    }

    /// Adds a channel concatenation.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two inputs are given or they do not share rank
    /// 4, batch and spatial dims.
    pub fn concat(&mut self, xs: &[NodeId]) -> NodeId {
        assert!(xs.len() >= 2, "concat needs at least two inputs");
        self.push(Op::Concat, xs.to_vec())
    }

    /// Adds a flatten to rank 2.
    pub fn flatten(&mut self, x: NodeId) -> NodeId {
        self.push(Op::Flatten, vec![x])
    }

    /// Adds a biased dense (fully connected) layer.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 2.
    pub fn dense(&mut self, x: NodeId, out_f: usize) -> NodeId {
        let d = self.shapes[x].dims().to_vec();
        assert_eq!(d.len(), 2, "dense input must be rank 2");
        let fan_in = d[1] as f32;
        let scale = (3.0 / fan_in).sqrt();
        let seed = self.next_seed();
        let weight = self.graph.push_param(
            Tensor::random([out_f, d[1]], Layout::Oi, seed, scale).expect("dense weight valid"),
        );
        let seed = self.next_seed();
        let bias = Some(self.graph.push_param(
            Tensor::random([out_f], Layout::Flat, seed, 0.1).expect("bias shape valid"),
        ));
        self.push(Op::Dense { weight, bias, relu: false }, vec![x])
    }

    /// Adds a softmax over `NC`.
    pub fn softmax(&mut self, x: NodeId) -> NodeId {
        self.push(Op::Softmax, vec![x])
    }

    /// The ubiquitous conv → BN → ReLU block.
    pub fn conv_bn_relu(
        &mut self,
        x: NodeId,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> NodeId {
        let c = self.conv2d_opts(x, out_c, kernel, stride, pad, false);
        let b = self.batch_norm(c);
        self.relu(b)
    }

    /// Finalizes the graph with the given outputs.
    pub fn finish(mut self, outputs: Vec<NodeId>) -> Graph {
        self.graph.outputs = outputs;
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::infer_shapes;

    #[test]
    fn builder_shapes_match_inference() {
        let mut b = GraphBuilder::new(7);
        let x = b.input([1, 3, 16, 16]);
        let c = b.conv_bn_relu(x, 8, 3, 2, 1);
        let p = b.avg_pool(c, 2, 2, 0);
        let g1 = b.global_avg_pool(p);
        let f = b.flatten(g1);
        let d = b.dense(f, 5);
        let s = b.softmax(d);
        let g = b.finish(vec![s]);
        let shapes = infer_shapes(&g).unwrap();
        for (id, s) in shapes.iter().enumerate() {
            assert!(s.dims().iter().product::<usize>() > 0, "node {id}");
        }
        assert_eq!(shapes[s.min(shapes.len() - 1)].dims(), &[1, 5]);
    }

    #[test]
    #[should_panic(expected = "add at node 3: add operands [1x8x8x8] vs [1x8x4x4]")]
    fn mismatched_add_panics_at_the_add() {
        let mut b = GraphBuilder::new(1);
        let x = b.input([1, 4, 8, 8]);
        let c1 = b.conv2d(x, 8, 3, 1, 1);
        let c2 = b.conv2d(x, 8, 3, 2, 1); // different spatial dims
        b.add(c1, c2);
    }

    #[test]
    fn parameters_are_deterministic_per_seed() {
        let build = |seed| {
            let mut b = GraphBuilder::new(seed);
            let x = b.input([1, 3, 8, 8]);
            let c = b.conv2d(x, 4, 3, 1, 1);
            b.finish(vec![c])
        };
        let g1 = build(42);
        let g2 = build(42);
        let g3 = build(43);
        assert_eq!(g1.params[0].data(), g2.params[0].data());
        assert_ne!(g1.params[0].data(), g3.params[0].data());
    }

    #[test]
    fn weight_scale_shrinks_with_fan_in() {
        let mut b = GraphBuilder::new(1);
        let x = b.input([1, 512, 4, 4]);
        let c = b.conv2d(x, 4, 3, 1, 1);
        let g = b.finish(vec![c]);
        let max = g.params[0].data().iter().fold(0f32, |m, v| m.max(v.abs()));
        // fan_in = 512*9 → scale ≈ 0.0255.
        assert!(max < 0.03, "weights too large: {max}");
    }
}
