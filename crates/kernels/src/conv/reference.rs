//! Reference direct convolutions in the framework-default layouts.
//!
//! `conv2d_nchw_direct` is the semantics oracle: a plain seven-loop direct
//! convolution with bounds-checked padding. Every optimized path in this
//! crate is tested against it. It doubles as the `O0`/Table 3 "Baseline"
//! row — it is vectorizer-friendly NCHW code with thread-level parallelism
//! but no layout blocking or register tiling.

use neocpu_tensor::{Layout, Tensor};
use neocpu_threadpool::Parallelism;

use super::{Conv2dParams, Epilogue};
use crate::util::SendPtr;
use crate::{KernelError, Result};

fn check_layouts(
    input: &Tensor,
    weights: &Tensor,
    output: &Tensor,
    p: &Conv2dParams,
) -> Result<usize> {
    for (t, want, what) in [
        (input, Layout::Nchw, "input"),
        (weights, Layout::Oihw, "weights"),
        (output, Layout::Nchw, "output"),
    ] {
        if t.layout() != want {
            return Err(KernelError::BadOperand(format!(
                "{what} must be {want}, got {}",
                t.layout()
            )));
        }
    }
    p.check_spatial(input, "input")?;
    if p.groups == 0
        || !p.in_channels.is_multiple_of(p.groups.max(1))
        || !p.out_channels.is_multiple_of(p.groups.max(1))
    {
        return Err(KernelError::BadOperand(format!(
            "groups {} must divide in_channels {} and out_channels {}",
            p.groups, p.in_channels, p.out_channels
        )));
    }
    let id = input.shape().dims();
    let od = output.shape().dims();
    let wd = weights.shape().dims();
    if id[1] != p.in_channels || id[2] != p.in_h || id[3] != p.in_w {
        return Err(KernelError::BadOperand("input shape mismatch".into()));
    }
    if wd != [p.out_channels, p.in_channels_per_group(), p.kernel_h, p.kernel_w] {
        return Err(KernelError::BadOperand("weight shape mismatch".into()));
    }
    if od != [id[0], p.out_channels, p.out_h(), p.out_w()] {
        return Err(KernelError::BadOperand("output shape mismatch".into()));
    }
    Ok(id[0])
}

/// Direct convolution with `NCHW` activations and `OIHW` weights.
///
/// Parallelized over `(batch, out_channel)` — the outermost disjoint chunks
/// of the output, as in §3.1.2 — with an optional fused [`Epilogue`].
/// Grouped convolution (including depthwise, `groups == channels`) is
/// handled by restricting each output channel's reduction to its group's
/// input channels; weights then carry `in_channels / groups` input planes
/// per filter.
///
/// # Errors
///
/// Returns an error if operand layouts/shapes do not match `p`.
pub fn conv2d_nchw_direct(
    input: &Tensor,
    weights: &Tensor,
    output: &mut Tensor,
    p: &Conv2dParams,
    epilogue: &Epilogue<'_>,
    par: &dyn Parallelism,
) -> Result<()> {
    let n = check_layouts(input, weights, output, p)?;
    epilogue.validate(output, p.out_channels)?;
    let (oh, ow) = (p.out_h(), p.out_w());
    let (ih, iw) = (p.in_h, p.in_w);
    let (kh, kw) = (p.kernel_h, p.kernel_w);
    let (cin, cout) = (p.in_channels, p.out_channels);

    let in_data = input.data();
    let w_data = weights.data();
    let res_data = epilogue.residual.map(Tensor::data);
    let out_ptr = SendPtr(output.data_mut().as_mut_ptr());

    let cpg = p.in_channels_per_group();
    let ocpg = cout / p.groups.max(1);
    par.run(n * cout, &|_, range| {
        let out_ptr = out_ptr;
        for job in range {
            let (b, oc) = (job / cout, job % cout);
            let ic0 = (oc / ocpg.max(1)) * cpg;
            for y in 0..oh {
                for x in 0..ow {
                    let mut acc = 0f32;
                    for icg in 0..cpg {
                        let in_plane = (b * cin + ic0 + icg) * ih * iw;
                        let w_plane = (oc * cpg + icg) * kh * kw;
                        for r in 0..kh {
                            let yy = (y * p.stride_h + r) as isize - p.pad_h as isize;
                            if yy < 0 || yy as usize >= ih {
                                continue;
                            }
                            for s in 0..kw {
                                let xx = (x * p.stride_w + s) as isize - p.pad_w as isize;
                                if xx < 0 || xx as usize >= iw {
                                    continue;
                                }
                                let iv = in_data[in_plane + yy as usize * iw + xx as usize];
                                let wv = w_data[w_plane + r * kw + s];
                                acc += iv * wv;
                            }
                        }
                    }
                    if let Some(bias) = epilogue.bias {
                        acc += bias[oc];
                    }
                    let off = ((b * cout + oc) * oh + y) * ow + x;
                    if let Some(res) = res_data {
                        acc += res[off];
                    }
                    if epilogue.relu && acc < 0.0 {
                        acc = 0.0;
                    }
                    // SAFETY: `(b, oc)` jobs are disjoint per the
                    // `Parallelism` contract, so each `off` is written by
                    // exactly one worker.
                    unsafe { *out_ptr.0.add(off) = acc };
                }
            }
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use neocpu_threadpool::Sequential;

    /// Tiny hand-computable case: 1x1 kernel is a channel mix.
    #[test]
    fn one_by_one_conv_is_channel_mix() {
        let p = Conv2dParams::square(2, 1, 2, 1, 1, 0);
        let input = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
            [1, 2, 2, 2],
            Layout::Nchw,
        )
        .unwrap();
        let weights = Tensor::from_vec(vec![1.0, 0.5], [1, 2, 1, 1], Layout::Oihw).unwrap();
        let mut out = Tensor::zeros([1, 1, 2, 2], Layout::Nchw).unwrap();
        conv2d_nchw_direct(&input, &weights, &mut out, &p, &Epilogue::none(), &Sequential)
            .unwrap();
        assert_eq!(out.data(), &[6.0, 12.0, 18.0, 24.0]);
    }

    #[test]
    fn identity_kernel_with_padding() {
        // 3x3 kernel with only center weight 1 => identity under pad 1.
        let p = Conv2dParams::square(1, 1, 3, 3, 1, 1);
        let input =
            Tensor::from_vec((1..=9).map(|v| v as f32).collect(), [1, 1, 3, 3], Layout::Nchw)
                .unwrap();
        let mut w = vec![0.0f32; 9];
        w[4] = 1.0;
        let weights = Tensor::from_vec(w, [1, 1, 3, 3], Layout::Oihw).unwrap();
        let mut out = Tensor::zeros([1, 1, 3, 3], Layout::Nchw).unwrap();
        conv2d_nchw_direct(&input, &weights, &mut out, &p, &Epilogue::none(), &Sequential)
            .unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn epilogue_bias_relu_residual() {
        let p = Conv2dParams::square(1, 2, 2, 1, 1, 0);
        let input =
            Tensor::from_vec(vec![1.0, -1.0, 2.0, -2.0], [1, 1, 2, 2], Layout::Nchw).unwrap();
        let weights = Tensor::from_vec(vec![1.0, -1.0], [2, 1, 1, 1], Layout::Oihw).unwrap();
        let residual = Tensor::from_vec(
            vec![0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
            [1, 2, 2, 2],
            Layout::Nchw,
        )
        .unwrap();
        let bias = [1.0f32, -1.0];
        let mut out = Tensor::zeros([1, 2, 2, 2], Layout::Nchw).unwrap();
        let epi = Epilogue { bias: Some(&bias), relu: true, residual: Some(&residual), requant: None };
        conv2d_nchw_direct(&input, &weights, &mut out, &p, &epi, &Sequential).unwrap();
        // Channel 0: x*1 + 1 + 0.5 then relu.
        assert_eq!(out.at(&[0, 0, 0, 0]), 2.5);
        assert_eq!(out.at(&[0, 0, 0, 1]), 0.5);
        // Channel 1: -x - 1 + 0 then relu.
        assert_eq!(out.at(&[0, 1, 0, 0]), 0.0);
        assert_eq!(out.at(&[0, 1, 0, 1]), 0.0);
        assert_eq!(out.at(&[0, 1, 1, 1]), 1.0);
    }

    #[test]
    fn depthwise_reference_is_per_channel() {
        // Depthwise with per-channel identity-vs-doubling 1x1 filters:
        // channel 0 passes through, channel 1 doubles.
        let p = Conv2dParams { groups: 2, ..Conv2dParams::square(2, 2, 2, 1, 1, 0) };
        let input = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
            [1, 2, 2, 2],
            Layout::Nchw,
        )
        .unwrap();
        let weights = Tensor::from_vec(vec![1.0, 2.0], [2, 1, 1, 1], Layout::Oihw).unwrap();
        let mut out = Tensor::zeros([1, 2, 2, 2], Layout::Nchw).unwrap();
        conv2d_nchw_direct(&input, &weights, &mut out, &p, &Epilogue::none(), &Sequential)
            .unwrap();
        assert_eq!(out.data(), &[1.0, 2.0, 3.0, 4.0, 20.0, 40.0, 60.0, 80.0]);
    }

    #[test]
    fn rejects_bad_operands() {
        let p = Conv2dParams::square(2, 2, 4, 3, 1, 1);
        let input = Tensor::zeros([1, 2, 4, 4], Layout::Nchw).unwrap();
        let weights = Tensor::zeros([2, 2, 3, 3], Layout::Oihw).unwrap();
        let mut bad_out = Tensor::zeros([1, 2, 5, 5], Layout::Nchw).unwrap();
        assert!(conv2d_nchw_direct(
            &input,
            &weights,
            &mut bad_out,
            &p,
            &Epilogue::none(),
            &Sequential
        )
        .is_err());
        let mut out = Tensor::zeros([1, 2, 4, 4], Layout::Nchw).unwrap();
        let blocked = Tensor::zeros([1, 2, 4, 4], Layout::NchwC(2)).unwrap();
        assert!(conv2d_nchw_direct(
            &blocked,
            &weights,
            &mut out,
            &p,
            &Epilogue::none(),
            &Sequential
        )
        .is_err());
    }

    #[test]
    fn parallel_matches_sequential() {
        use neocpu_threadpool::ThreadPool;
        let p = Conv2dParams::square(4, 6, 10, 3, 1, 1);
        let input = Tensor::random([1, 4, 10, 10], Layout::Nchw, 3, 1.0).unwrap();
        let weights = Tensor::random([6, 4, 3, 3], Layout::Oihw, 4, 1.0).unwrap();
        let mut seq = Tensor::zeros([1, 6, 10, 10], Layout::Nchw).unwrap();
        let mut par = Tensor::zeros([1, 6, 10, 10], Layout::Nchw).unwrap();
        conv2d_nchw_direct(&input, &weights, &mut seq, &p, &Epilogue::none(), &Sequential)
            .unwrap();
        let pool = ThreadPool::new(4);
        conv2d_nchw_direct(&input, &weights, &mut par, &p, &Epilogue::none(), &pool).unwrap();
        assert_eq!(seq.data(), par.data());
    }
}
