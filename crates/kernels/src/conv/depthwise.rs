//! The blocked `NCHW[x]c` *depthwise* convolution template.
//!
//! Depthwise convolution (§3.1.1's "other CONV workloads such as …
//! depth-wise CONV" and the MobileNet building block) convolves each
//! channel with its own `1×kh×kw` filter: there is no input-channel
//! reduction, so the input and output channel blockings must agree
//! (`ic_bn == oc_bn == c_bn`) and the weights carry one filter per channel,
//! blocked as `C[x]c·kh·kw` — logically `OIHW` with
//! `in_channels_per_group = 1`, physically `OihwIo { i: 1, o: c_bn }`.
//!
//! The loop structure mirrors Algorithm 1 minus the `ic_outer`/`ic_inner`
//! reduction: parallel over `(n, c_chunk, oh)` rows, register-blocked
//! strips of `reg_n` output pixels along the row, zero padding materialized
//! once into (optionally caller-planned) scratch, and the fused
//! bias/ReLU/residual epilogue applied per finished row.

use neocpu_tensor::{AlignedBuf, Layout, Tensor};
use neocpu_threadpool::Parallelism;

use super::blocked::{pad_nchwc_into, padded_input_len};
use super::microkernel::{self, Geo, Strip};
use super::{Conv2dParams, ConvSchedule, Epilogue, RowEpilogue};
use crate::util::SendPtr;
use crate::{KernelError, Result};

/// Depthwise convolution on blocked layouts: `NCHW[c]c` input,
/// `OIHW1i[c]o` weights (`[C, 1, kh, kw]` logical), `NCHW[c]c` output.
///
/// `max_lanes` and `scratch` behave exactly as in
/// [`conv2d_nchwc`](super::conv2d_nchwc): the former caps the microkernel's
/// SIMD width, the latter optionally supplies the padded-input buffer of
/// [`padded_input_len`] elements (keyed on `c_bn`) so the arena executor
/// never allocates on the hot path.
///
/// # Errors
///
/// Returns an error if `p` is not depthwise, the schedule does not divide
/// the workload (or blocks input/output channels differently), any operand
/// has the wrong layout/shape, or `scratch` has the wrong length.
pub fn depthwise_conv2d_nchwc(
    input: &Tensor,
    weights: &Tensor,
    output: &mut Tensor,
    p: &Conv2dParams,
    schedule: &ConvSchedule,
    epilogue: &Epilogue<'_>,
    par: &dyn Parallelism,
    max_lanes: usize,
    scratch: Option<&mut [f32]>,
) -> Result<()> {
    if !p.is_depthwise() {
        return Err(KernelError::BadOperand(format!(
            "depthwise template requires groups == in_channels == out_channels, \
             got groups {} for {} -> {} channels",
            p.groups, p.in_channels, p.out_channels
        )));
    }
    schedule.validate(p)?;
    let c_bn = schedule.oc_bn;
    if input.layout() != Layout::NchwC(c_bn) {
        return Err(KernelError::BadOperand(format!(
            "input must be NCHW{c_bn}c, got {}",
            input.layout()
        )));
    }
    if weights.layout() != (Layout::OihwIo { i: 1, o: c_bn }) {
        return Err(KernelError::BadOperand(format!(
            "depthwise weights must be OIHW1i{c_bn}o, got {}",
            weights.layout()
        )));
    }
    if output.layout() != Layout::NchwC(c_bn) {
        return Err(KernelError::BadOperand(format!(
            "output must be NCHW{c_bn}c, got {}",
            output.layout()
        )));
    }
    let id = input.shape().dims();
    let od = output.shape().dims();
    let wd = weights.shape().dims();
    let n = id[0];
    if id[1] != p.in_channels || id[2] != p.in_h || id[3] != p.in_w {
        return Err(KernelError::BadOperand("input shape mismatch".into()));
    }
    if wd != [p.out_channels, 1, p.kernel_h, p.kernel_w] {
        return Err(KernelError::BadOperand("depthwise weight shape mismatch".into()));
    }
    if od != [n, p.out_channels, p.out_h(), p.out_w()] {
        return Err(KernelError::BadOperand("output shape mismatch".into()));
    }
    epilogue.validate(output, p.out_channels)?;

    let owned_pad;
    let in_data: &[f32] = if p.pad_h == 0 && p.pad_w == 0 {
        input.data()
    } else {
        let need = padded_input_len(p, c_bn, n);
        match scratch {
            Some(buf) => {
                if buf.len() != need {
                    return Err(KernelError::BadOperand(format!(
                        "depthwise conv scratch length {} != required {need}",
                        buf.len()
                    )));
                }
                pad_nchwc_into(input, p, c_bn, par, &mut *buf);
                buf
            }
            None => {
                // Every element is written by the halo writer, so an
                // uninitialized allocation is sound.
                let mut b = AlignedBuf::uninit(need);
                pad_nchwc_into(input, p, c_bn, par, &mut b);
                owned_pad = b;
                &owned_pad
            }
        }
    };

    let geo = Geo::new(p, schedule, max_lanes, false);
    let (oh, ow) = (p.out_h(), p.out_w());
    let c_chunks = p.out_channels / c_bn;
    let reg_n = schedule.reg_n;
    let sh = p.stride_h;

    let w_data = weights.data();
    let epilogue = RowEpilogue::new(epilogue);
    let out_ptr = SendPtr(output.data_mut().as_mut_ptr());

    let in_batch_stride = c_chunks * geo.ph * geo.pw * c_bn;
    let in_chunk_stride = geo.ph * geo.pw * c_bn;
    let w_chunk_stride = geo.kh * geo.kw * c_bn;
    let jobs = n * c_chunks * oh;

    par.run(jobs, &|_, range| {
        let out_ptr = out_ptr;
        for job in range {
            let b = job / (c_chunks * oh);
            let rest = job % (c_chunks * oh);
            let (cc, y) = (rest / oh, rest % oh);
            let in_cc = in_data[b * in_batch_stride + cc * in_chunk_stride..].as_ptr();
            let w_cc = w_data[cc * w_chunk_stride..].as_ptr();
            let row_off = ((b * c_chunks + cc) * oh + y) * ow * c_bn;
            // SAFETY: jobs are disjoint (n, cc, y) triples → disjoint rows.
            let out_row = unsafe { out_ptr.0.add(row_off) };
            let ih0 = y * sh;
            let mut x0 = 0usize;
            while x0 < ow {
                let rn = reg_n.min(ow - x0);
                // SAFETY: the strip lies inside the row; padded input covers
                // the receptive field `(rn-1)*sw + kw` columns from `iw0`.
                unsafe {
                    let strip = Strip {
                        input: in_cc,
                        weights: w_cc,
                        rn,
                        out: out_row.add(x0 * c_bn),
                        ih0,
                        iw0: x0 * geo.sw,
                    };
                    microkernel::run_strip(&geo, &strip);
                }
                x0 += rn;
            }
            // SAFETY: same disjoint-row argument as above.
            let row = unsafe { std::slice::from_raw_parts_mut(out_row, ow * c_bn) };
            epilogue.apply(row, cc, c_bn, row_off);
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_nchw_direct;
    use neocpu_tensor::transform::to_layout;
    use neocpu_threadpool::{Sequential, ThreadPool};

    /// Runs the same depthwise workload through the grouped NCHW reference
    /// and the blocked depthwise template, returning both outputs in NCHW.
    fn run_both(p: &Conv2dParams, s: &ConvSchedule, batch: usize, seed: u64) -> (Tensor, Tensor) {
        let input = Tensor::random([batch, p.in_channels, p.in_h, p.in_w], Layout::Nchw, seed, 1.0)
            .unwrap();
        let weights =
            Tensor::random([p.out_channels, 1, p.kernel_h, p.kernel_w], Layout::Oihw, seed + 1, 1.0)
                .unwrap();
        let mut ref_out =
            Tensor::zeros([batch, p.out_channels, p.out_h(), p.out_w()], Layout::Nchw).unwrap();
        conv2d_nchw_direct(&input, &weights, &mut ref_out, p, &Epilogue::none(), &Sequential)
            .unwrap();

        let in_b = to_layout(&input, Layout::NchwC(s.ic_bn)).unwrap();
        let w_b = to_layout(&weights, Layout::OihwIo { i: 1, o: s.oc_bn }).unwrap();
        let mut out_b =
            Tensor::zeros([batch, p.out_channels, p.out_h(), p.out_w()], Layout::NchwC(s.oc_bn))
                .unwrap();
        depthwise_conv2d_nchwc(
            &in_b,
            &w_b,
            &mut out_b,
            p,
            s,
            &Epilogue::none(),
            &Sequential,
            usize::MAX,
            None,
        )
        .unwrap();
        let out = to_layout(&out_b, Layout::Nchw).unwrap();
        (ref_out, out)
    }

    #[test]
    fn matches_reference_scalar_blocks() {
        let p = Conv2dParams::depthwise(6, 9, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 3, oc_bn: 3, reg_n: 4, unroll_ker: false, ..Default::default() };
        let (a, b) = run_both(&p, &s, 1, 71);
        assert!(a.approx_eq(&b, 1e-4), "diff {}", a.max_abs_diff(&b));
    }

    #[test]
    fn matches_reference_avx2_blocks() {
        // c_bn = 8 exercises the AVX2 depthwise path where available.
        let p = Conv2dParams::depthwise(16, 14, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 8, oc_bn: 8, reg_n: 8, unroll_ker: true, ..Default::default() };
        let (a, b) = run_both(&p, &s, 1, 72);
        assert!(a.approx_eq(&b, 1e-3), "diff {}", a.max_abs_diff(&b));
    }

    #[test]
    fn matches_reference_avx512_blocks() {
        // c_bn = 16 exercises the AVX-512 depthwise path where available.
        let p = Conv2dParams::depthwise(32, 14, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 16, unroll_ker: false, ..Default::default() };
        let (a, b) = run_both(&p, &s, 1, 73);
        assert!(a.approx_eq(&b, 1e-3), "diff {}", a.max_abs_diff(&b));
    }

    #[test]
    fn matches_reference_with_stride_two_and_tail() {
        // The MobileNet downsampling shape: stride 2, pad 1, odd out width
        // so reg_n = 4 leaves a tail strip.
        let p = Conv2dParams::depthwise(8, 14, 3, 2, 1);
        assert_eq!(p.out_w(), 7);
        let s = ConvSchedule { ic_bn: 8, oc_bn: 8, reg_n: 4, unroll_ker: false, ..Default::default() };
        let (a, b) = run_both(&p, &s, 1, 74);
        assert!(a.approx_eq(&b, 1e-3), "diff {}", a.max_abs_diff(&b));
    }

    #[test]
    fn batch_greater_than_one() {
        let p = Conv2dParams::depthwise(4, 6, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 2, oc_bn: 2, reg_n: 2, unroll_ker: true, ..Default::default() };
        let (a, b) = run_both(&p, &s, 3, 75);
        assert!(a.approx_eq(&b, 1e-4));
    }

    #[test]
    fn parallel_matches_sequential() {
        let p = Conv2dParams::depthwise(16, 12, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 8, oc_bn: 8, reg_n: 8, unroll_ker: false, ..Default::default() };
        let input = Tensor::random([1, 16, 12, 12], Layout::NchwC(8), 81, 1.0).unwrap();
        let weights =
            Tensor::random([16, 1, 3, 3], Layout::OihwIo { i: 1, o: 8 }, 82, 1.0).unwrap();
        let mut seq = Tensor::zeros([1, 16, 12, 12], Layout::NchwC(8)).unwrap();
        let mut par = Tensor::zeros([1, 16, 12, 12], Layout::NchwC(8)).unwrap();
        depthwise_conv2d_nchwc(
            &input, &weights, &mut seq, &p, &s, &Epilogue::none(), &Sequential, usize::MAX, None,
        )
        .unwrap();
        let pool = ThreadPool::new(4);
        depthwise_conv2d_nchwc(
            &input, &weights, &mut par, &p, &s, &Epilogue::none(), &pool, usize::MAX, None,
        )
        .unwrap();
        assert_eq!(seq.data(), par.data());
    }

    #[test]
    fn fused_epilogue_matches_reference_epilogue() {
        let p = Conv2dParams::depthwise(8, 6, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 8, oc_bn: 8, reg_n: 4, unroll_ker: false, ..Default::default() };
        let input = Tensor::random([1, 8, 6, 6], Layout::Nchw, 91, 1.0).unwrap();
        let weights = Tensor::random([8, 1, 3, 3], Layout::Oihw, 92, 1.0).unwrap();
        let residual = Tensor::random([1, 8, 6, 6], Layout::Nchw, 93, 1.0).unwrap();
        let bias: Vec<f32> = (0..8).map(|i| i as f32 * 0.1 - 0.3).collect();

        let mut ref_out = Tensor::zeros([1, 8, 6, 6], Layout::Nchw).unwrap();
        let epi = Epilogue { bias: Some(&bias), relu: true, residual: Some(&residual) };
        conv2d_nchw_direct(&input, &weights, &mut ref_out, &p, &epi, &Sequential).unwrap();

        let in_b = to_layout(&input, Layout::NchwC(8)).unwrap();
        let w_b = to_layout(&weights, Layout::OihwIo { i: 1, o: 8 }).unwrap();
        let res_b = to_layout(&residual, Layout::NchwC(8)).unwrap();
        let mut out_b = Tensor::zeros([1, 8, 6, 6], Layout::NchwC(8)).unwrap();
        let epi_b = Epilogue { bias: Some(&bias), relu: true, residual: Some(&res_b) };
        depthwise_conv2d_nchwc(
            &in_b, &w_b, &mut out_b, &p, &s, &epi_b, &Sequential, usize::MAX, None,
        )
        .unwrap();
        assert!(ref_out.approx_eq(&out_b, 1e-4));
    }

    #[test]
    fn poisoned_scratch_matches_internal_padding() {
        let p = Conv2dParams::depthwise(8, 10, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 4, oc_bn: 4, reg_n: 4, unroll_ker: false, ..Default::default() };
        let input = Tensor::random([2, 8, 10, 10], Layout::NchwC(4), 95, 1.0).unwrap();
        let weights =
            Tensor::random([8, 1, 3, 3], Layout::OihwIo { i: 1, o: 4 }, 96, 1.0).unwrap();
        let mut auto = Tensor::zeros([2, 8, 10, 10], Layout::NchwC(4)).unwrap();
        let mut planned = Tensor::zeros([2, 8, 10, 10], Layout::NchwC(4)).unwrap();
        depthwise_conv2d_nchwc(
            &input, &weights, &mut auto, &p, &s, &Epilogue::none(), &Sequential, usize::MAX, None,
        )
        .unwrap();
        let mut scratch = vec![f32::NAN; padded_input_len(&p, s.ic_bn, 2)];
        depthwise_conv2d_nchwc(
            &input,
            &weights,
            &mut planned,
            &p,
            &s,
            &Epilogue::none(),
            &Sequential,
            usize::MAX,
            Some(&mut scratch),
        )
        .unwrap();
        assert_eq!(auto.data(), planned.data());

        let mut short = vec![0.0f32; 3];
        assert!(depthwise_conv2d_nchwc(
            &input,
            &weights,
            &mut planned,
            &p,
            &s,
            &Epilogue::none(),
            &Sequential,
            usize::MAX,
            Some(&mut short),
        )
        .is_err());
    }

    #[test]
    fn rejects_non_depthwise_and_unequal_blocks() {
        let dense = Conv2dParams::square(8, 8, 6, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 4, oc_bn: 4, reg_n: 4, unroll_ker: false, ..Default::default() };
        let input = Tensor::zeros([1, 8, 6, 6], Layout::NchwC(4)).unwrap();
        let weights = Tensor::zeros([8, 1, 3, 3], Layout::OihwIo { i: 1, o: 4 }).unwrap();
        let mut out = Tensor::zeros([1, 8, 6, 6], Layout::NchwC(4)).unwrap();
        assert!(depthwise_conv2d_nchwc(
            &input,
            &weights,
            &mut out,
            &dense,
            &s,
            &Epilogue::none(),
            &Sequential,
            usize::MAX,
            None,
        )
        .is_err());

        let dw = Conv2dParams::depthwise(8, 6, 3, 1, 1);
        let bad = ConvSchedule { ic_bn: 4, oc_bn: 8, reg_n: 4, unroll_ker: false, ..Default::default() };
        assert!(depthwise_conv2d_nchwc(
            &input,
            &weights,
            &mut out,
            &dw,
            &bad,
            &Epilogue::none(),
            &Sequential,
            usize::MAX,
            None,
        )
        .is_err());
    }
}
