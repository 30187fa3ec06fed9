//! Compile-time weight pre-transformation (Figure 2: "Pre-transformed
//! Kernel").
//!
//! Model parameters are invariant across inferences, so the
//! `KCRS → OIHW[x]i[y]o` transform every scheduled convolution needs is
//! applied once at compile time instead of on the inference path.

use std::sync::Arc;

use neocpu_tensor::{transform::to_layout, Layout};

use crate::ir::{Graph, Op};
use crate::Result;

/// Transforms every scheduled conv's weights into the blocked layout its
/// schedule requires. Weights shared by differently-scheduled convs are
/// cloned first, so each conv sees exactly the layout it expects.
///
/// Returns a new graph and leaves `g` as it was; [`precompute_weights_in_place`]
/// does the same to a graph the caller owns.
///
/// # Errors
///
/// Returns an error if the graph fails validation, or if a weight cannot be
/// blocked as scheduled (the schedule validation should make this
/// unreachable in practice).
pub fn precompute_weights(g: &Graph) -> Result<Graph> {
    let mut g = g.clone();
    precompute_weights_in_place(&mut g)?;
    Ok(g)
}

/// [`precompute_weights`] on `g` itself: each blocked weight replaces its
/// plain handle, so a plain tensor no other graph shares is freed as soon as
/// its blocked copy exists.
///
/// # Errors
///
/// See [`precompute_weights`].
pub fn precompute_weights_in_place(g: &mut Graph) -> Result<()> {
    g.validate()?;
    for id in g.conv_ids() {
        let Op::Conv2d { params, weight, schedule, quant, .. } = &g.nodes[id].op else {
            unreachable!()
        };
        let Some(s) = *schedule else { continue };
        // Quantized convs already carry i8 weights packed by the quantize
        // pass (quad-blocked for dense, `OIHW1i[x]o` for depthwise); the
        // f32 blocking transform neither applies nor preserves their dtype.
        if quant.is_some() {
            continue;
        }
        // Depthwise filters carry a single input channel, so the inner
        // blocking factor is pinned to 1 regardless of the schedule's
        // activation blocking.
        let i_bn = if params.groups > 1 { 1 } else { s.ic_bn };
        let want = Layout::OihwIo { i: i_bn, o: s.oc_bn };
        let w = &g.params[*weight];
        if w.layout() == want {
            continue;
        }
        let blocked = to_layout(w, want)?;
        if w.layout() == Layout::Oihw {
            // Check for sharing: if any *other* conv uses this param id we
            // must not mutate it in place.
            let wid = *weight;
            let shared = g
                .nodes
                .iter()
                .enumerate()
                .filter(|(other, n)| {
                    *other != id && matches!(&n.op, Op::Conv2d { weight, .. } if *weight == wid)
                })
                .count()
                > 0;
            if shared {
                let new = g.push_param(blocked);
                let Op::Conv2d { weight, .. } = &mut g.nodes[id].op else { unreachable!() };
                *weight = new;
            } else {
                g.params[wid] = Arc::new(blocked);
            }
        } else {
            // Already blocked with a different factor: re-derive from a
            // fresh copy through OIHW.
            let plain = to_layout(w, Layout::Oihw)?;
            let new = g.push_param(to_layout(&plain, want)?);
            let Op::Conv2d { weight, .. } = &mut g.nodes[id].op else { unreachable!() };
            *weight = new;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{plan_uniform, UniformPlanCfg};
    use crate::{GraphBuilder, GraphError};

    #[test]
    fn weights_become_blocked() {
        let mut b = GraphBuilder::new(1);
        let x = b.input([1, 16, 8, 8]);
        let c = b.conv2d(x, 16, 3, 1, 1);
        let g = b.finish(vec![c]);
        let planned = plan_uniform(&g, &UniformPlanCfg { block: 8, reg_n: 4 })
            .unwrap();
        let pre = precompute_weights(&planned).unwrap();
        let Op::Conv2d { weight, schedule, .. } = &pre.nodes[pre.conv_ids()[0]].op else {
            panic!()
        };
        let s = schedule.unwrap();
        assert_eq!(
            pre.params[*weight].layout(),
            Layout::OihwIo { i: s.ic_bn, o: s.oc_bn }
        );
    }

    #[test]
    fn depthwise_weights_block_with_unit_inner_factor() {
        let mut b = GraphBuilder::new(9);
        let x = b.input([1, 16, 8, 8]);
        let c = b.depthwise_conv2d(x, 3, 1, 1, false);
        let g = b.finish(vec![c]);
        let planned =
            plan_uniform(&g, &UniformPlanCfg { block: 8, reg_n: 4 }).unwrap();
        let pre = precompute_weights(&planned).unwrap();
        let Op::Conv2d { weight, schedule, .. } = &pre.nodes[pre.conv_ids()[0]].op else {
            panic!()
        };
        let s = schedule.unwrap();
        // Depthwise filters have one input channel: i is pinned to 1.
        assert_eq!(pre.params[*weight].layout(), Layout::OihwIo { i: 1, o: s.oc_bn });
    }

    #[test]
    fn out_of_range_weight_is_a_typed_error() {
        let mut b = GraphBuilder::new(4);
        let x = b.input([1, 8, 8, 8]);
        let c = b.conv2d(x, 8, 3, 1, 1);
        let g = b.finish(vec![c]);
        let mut planned =
            plan_uniform(&g, &UniformPlanCfg { block: 8, reg_n: 4 }).unwrap();
        let conv = planned.conv_ids()[0];
        let Op::Conv2d { weight, .. } = &mut planned.nodes[conv].op else { panic!() };
        *weight = 10_000;
        assert_eq!(
            precompute_weights(&planned).unwrap_err(),
            GraphError::BadParamRef { node: conv, param: 10_000 }
        );
    }

    #[test]
    fn unscheduled_convs_keep_plain_weights() {
        let mut b = GraphBuilder::new(2);
        let x = b.input([1, 4, 8, 8]);
        let c = b.conv2d(x, 4, 3, 1, 1);
        let g = b.finish(vec![c]);
        let pre = precompute_weights(&g).unwrap();
        let Op::Conv2d { weight, .. } = &pre.nodes[pre.conv_ids()[0]].op else { panic!() };
        assert_eq!(pre.params[*weight].layout(), Layout::Oihw);
    }

    #[test]
    fn idempotent() {
        let mut b = GraphBuilder::new(3);
        let x = b.input([1, 8, 8, 8]);
        let c = b.conv2d(x, 8, 3, 1, 1);
        let g = b.finish(vec![c]);
        let planned =
            plan_uniform(&g, &UniformPlanCfg { block: 8, reg_n: 4 }).unwrap();
        let once = precompute_weights(&planned).unwrap();
        let twice = precompute_weights(&once).unwrap();
        let Op::Conv2d { weight: w1, .. } = &once.nodes[once.conv_ids()[0]].op else { panic!() };
        let Op::Conv2d { weight: w2, .. } = &twice.nodes[twice.conv_ids()[0]].op else {
            panic!()
        };
        assert_eq!(once.params[*w1].data(), twice.params[*w2].data());
    }
}
