//! Inference simplification: dropout elision and BatchNorm folding.
//!
//! Inherited from the original TVM stack (§3): at inference time dropout is
//! the identity, and BatchNorm is a per-channel affine transform whose
//! coefficients are known at compile time. When the BatchNorm directly
//! follows a convolution that no other node consumes, the affine transform
//! folds *into the convolution's weights and bias* and the node disappears
//! entirely; otherwise it becomes an explicit [`Op::ScaleShift`] with
//! precomputed coefficients.

use neocpu_kernels::elementwise::batchnorm_fold;
use neocpu_tensor::{Layout, Tensor};

use crate::ir::{Graph, Op};
use crate::Result;

/// Runs dropout elision and BatchNorm folding.
///
/// # Errors
///
/// Returns an error only if the input graph fails validation.
pub fn simplify_inference(g: &Graph) -> Result<Graph> {
    g.validate()?;
    let fanout = g.fanout();
    let mut out = Graph { nodes: Vec::new(), params: g.params.clone(), outputs: Vec::new() };
    // Maps old node id → new node id (dropout maps to its input's image).
    let mut remap: Vec<usize> = Vec::with_capacity(g.len());

    for node in &g.nodes {
        let inputs: Vec<usize> = node.inputs.iter().map(|&i| remap[i]).collect();
        match &node.op {
            Op::Dropout => {
                remap.push(inputs[0]);
            }
            Op::BatchNorm { gamma, beta, mean, var, eps } => {
                let (scale, shift) = batchnorm_fold(
                    out.params[*gamma].data(),
                    out.params[*beta].data(),
                    out.params[*mean].data(),
                    out.params[*var].data(),
                    *eps,
                );
                let producer = inputs[0];
                let foldable = matches!(out.nodes[producer].op, Op::Conv2d { .. })
                    && fanout[node.inputs[0]] == 1;
                if foldable {
                    fold_into_conv(&mut out, producer, &scale, &shift);
                    remap.push(producer);
                } else {
                    let c = scale.len();
                    let scale_p = out.push_param(
                        Tensor::from_vec(scale, [c], Layout::Flat).expect("flat shape valid"),
                    );
                    let shift_p = out.push_param(
                        Tensor::from_vec(shift, [c], Layout::Flat).expect("flat shape valid"),
                    );
                    let new =
                        out.push(Op::ScaleShift { scale: scale_p, shift: shift_p }, inputs);
                    remap.push(new);
                }
            }
            op => {
                let new = out.push(op.clone(), inputs);
                remap.push(new);
            }
        }
    }
    out.outputs = g.outputs.iter().map(|&o| remap[o]).collect();
    Ok(out)
}

/// Scales conv weights per output channel and merges the shift into the
/// bias: `w'ᵒ = w·scale[o]`, `b' = b·scale[o] + shift[o]`.
fn fold_into_conv(g: &mut Graph, conv: usize, scale: &[f32], shift: &[f32]) {
    let Op::Conv2d { params, weight, bias, .. } = &mut g.nodes[conv].op else {
        unreachable!("caller checked the producer is a conv");
    };
    let p = *params;
    let mut w = Tensor::clone(&g.params[*weight]);
    // Per-group input channels, not `in_channels`: depthwise filters hold a
    // single input channel per output channel.
    let per_oc = p.in_channels_per_group() * p.kernel_h * p.kernel_w;
    for (oc, s) in scale.iter().enumerate() {
        for v in &mut w.data_mut()[oc * per_oc..(oc + 1) * per_oc] {
            *v *= s;
        }
    }
    let new_bias: Vec<f32> = match bias {
        Some(b) => g.params[*b]
            .data()
            .iter()
            .zip(scale)
            .zip(shift)
            .map(|((b, s), t)| b * s + t)
            .collect(),
        None => shift.to_vec(),
    };
    let new_weight = g.push_param(w);
    let new_bias_id = g.push_param(
        Tensor::from_vec(new_bias, [p.out_channels], Layout::Flat).expect("flat shape valid"),
    );
    let Op::Conv2d { weight, bias, .. } = &mut g.nodes[conv].op else { unreachable!() };
    *weight = new_weight;
    *bias = Some(new_bias_id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, Op};

    #[test]
    fn dropout_is_removed() {
        let mut b = GraphBuilder::new(1);
        let x = b.input([1, 4, 8, 8]);
        let c = b.conv2d(x, 4, 3, 1, 1);
        let d = b.dropout(c);
        let r = b.relu(d);
        let g = b.finish(vec![r]);
        let s = simplify_inference(&g).unwrap();
        assert!(s.nodes.iter().all(|n| !matches!(n.op, Op::Dropout)));
        assert_eq!(s.len(), g.len() - 1);
        s.validate().unwrap();
    }

    #[test]
    fn batchnorm_after_conv_is_folded_away() {
        let mut b = GraphBuilder::new(2);
        let x = b.input([1, 4, 8, 8]);
        let c = b.conv2d_opts(x, 8, 3, 1, 1, false);
        let bn = b.batch_norm(c);
        let r = b.relu(bn);
        let g = b.finish(vec![r]);
        let s = simplify_inference(&g).unwrap();
        assert!(s.nodes.iter().all(|n| !matches!(n.op, Op::BatchNorm { .. })));
        assert!(s.nodes.iter().all(|n| !matches!(n.op, Op::ScaleShift { .. })));
        // Folding must have attached a bias to the conv.
        let conv = s
            .nodes
            .iter()
            .find_map(|n| match &n.op {
                Op::Conv2d { bias, .. } => Some(bias),
                _ => None,
            })
            .unwrap();
        assert!(conv.is_some());
        s.validate().unwrap();
    }

    #[test]
    fn batchnorm_after_depthwise_conv_folds_without_overrun() {
        // Depthwise weights are [C, 1, kh, kw]; the fold must scale one
        // input channel per output channel (a dense-shaped stride overran
        // the weight buffer).
        let mut b = GraphBuilder::new(8);
        let x = b.input([1, 8, 8, 8]);
        let d = b.dw_conv_bn_relu(x, 3, 1, 1);
        let g = b.finish(vec![d]);
        let s = simplify_inference(&g).unwrap();
        assert!(s.nodes.iter().all(|n| !matches!(n.op, Op::BatchNorm { .. })));
        let (w, bias) = s
            .nodes
            .iter()
            .find_map(|n| match &n.op {
                Op::Conv2d { weight, bias, .. } => Some((*weight, *bias)),
                _ => None,
            })
            .unwrap();
        assert!(bias.is_some());
        assert_eq!(s.params[w].shape().dims(), &[8, 1, 3, 3]);
        s.validate().unwrap();
    }

    #[test]
    fn batchnorm_after_pool_becomes_scale_shift() {
        let mut b = GraphBuilder::new(3);
        let x = b.input([1, 4, 8, 8]);
        let p = b.max_pool(x, 2, 2, 0);
        let bn = b.batch_norm(p);
        let g = b.finish(vec![bn]);
        let s = simplify_inference(&g).unwrap();
        assert!(s.nodes.iter().any(|n| matches!(n.op, Op::ScaleShift { .. })));
        assert!(s.nodes.iter().all(|n| !matches!(n.op, Op::BatchNorm { .. })));
        s.validate().unwrap();
    }

    #[test]
    fn batchnorm_not_folded_when_conv_has_other_consumers() {
        let mut b = GraphBuilder::new(4);
        let x = b.input([1, 4, 8, 8]);
        let c = b.conv2d(x, 4, 3, 1, 1);
        let bn = b.batch_norm(c);
        let a = b.add(bn, c); // second consumer of the conv
        let g = b.finish(vec![a]);
        let s = simplify_inference(&g).unwrap();
        // The conv result is shared, so folding would corrupt the add;
        // a ScaleShift node must appear instead.
        assert!(s.nodes.iter().any(|n| matches!(n.op, Op::ScaleShift { .. })));
        s.validate().unwrap();
    }
}
