//! The blocked `NCHW[x]c` convolution template (Algorithm 1).
//!
//! Loop structure, following the paper:
//!
//! ```text
//! parallel for each disjoint chunk of OFMAP          // (n, oc_chunk, oh)
//!   for ow_outer in 0 .. out_width / reg_n           //  + explicit tail
//!     init V_REG[1..=reg_n] = 0
//!     for ic_outer, (kernel entries, opt. unrolled), ic_inner:
//!       vload kernel vector, vfmadd into the reg_n accumulators
//!     vstore the accumulators
//!   apply the fused epilogue to the finished row
//! ```
//!
//! Zero padding is materialized once per call into a padded copy of the
//! input (the standard direct-convolution arrangement, also what TVM's x86
//! schedule does), so the hot loops are entirely branch-free.

use neocpu_tensor::{AlignedBuf, Layout, Tensor};
use neocpu_threadpool::Parallelism;

use super::microkernel::{self, Geo, Strip};
use super::{Conv2dParams, ConvSchedule, Epilogue, RowEpilogue};
use crate::util::SendPtr;
use crate::{KernelError, Result};

/// Number of `f32` elements of padded-input scratch [`conv2d_nchwc`] needs
/// for a workload at batch `batch` under input blocking `ic_bn`, or 0 when
/// the workload is unpadded (no scratch is touched then).
///
/// The static memory planner uses this to reserve per-conv scratch regions
/// in the execution arena so padding never allocates at run time.
pub fn padded_input_len(p: &Conv2dParams, ic_bn: usize, batch: usize) -> usize {
    if p.pad_h == 0 && p.pad_w == 0 {
        return 0;
    }
    batch * (p.in_channels / ic_bn.max(1)) * (p.in_h + 2 * p.pad_h) * (p.in_w + 2 * p.pad_w) * ic_bn
}

/// Direct convolution on blocked layouts: `NCHW[ic_bn]c` input,
/// `OIHW[ic_bn]i[oc_bn]o` weights, `NCHW[oc_bn]c` output.
///
/// `max_lanes` caps the SIMD width the microkernel may use, so a
/// `CpuTarget` descriptor can model a narrower machine than the host; pass
/// `usize::MAX` for "whatever the host has".
///
/// For padded workloads the kernel materializes a zero-padded copy of the
/// input. `scratch` optionally supplies that buffer — it must hold exactly
/// [`padded_input_len`] elements and its prior contents are irrelevant (the
/// padding writer touches every element). Passing `None` allocates a
/// temporary internally; the arena executor passes planned scratch so the
/// hot path never allocates.
///
/// # Errors
///
/// Returns an error if the schedule does not divide the workload, any
/// operand has the wrong layout/shape, or `scratch` has the wrong length.
pub fn conv2d_nchwc(
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
    schedule.validate(p)?;
    let (ic_bn, oc_bn) = (schedule.ic_bn, schedule.oc_bn);
    if input.layout() != Layout::NchwC(ic_bn) {
        return Err(KernelError::BadOperand(format!(
            "input must be NCHW{ic_bn}c, got {}",
            input.layout()
        )));
    }
    if weights.layout() != (Layout::OihwIo { i: ic_bn, o: oc_bn }) {
        return Err(KernelError::BadOperand(format!(
            "weights must be OIHW{ic_bn}i{oc_bn}o, got {}",
            weights.layout()
        )));
    }
    if output.layout() != Layout::NchwC(oc_bn) {
        return Err(KernelError::BadOperand(format!(
            "output must be NCHW{oc_bn}c, got {}",
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
    if wd != [p.out_channels, p.in_channels, p.kernel_h, p.kernel_w] {
        return Err(KernelError::BadOperand("weight shape mismatch".into()));
    }
    if od != [n, p.out_channels, p.out_h(), p.out_w()] {
        return Err(KernelError::BadOperand("output shape mismatch".into()));
    }
    epilogue.validate(output, p.out_channels)?;

    let owned_pad;
    let in_data: &[f32] = if p.pad_h == 0 && p.pad_w == 0 {
        input.data()
    } else {
        let need = padded_input_len(p, ic_bn, n);
        match scratch {
            Some(buf) => {
                if buf.len() != need {
                    return Err(KernelError::BadOperand(format!(
                        "conv scratch length {} != required {need}",
                        buf.len()
                    )));
                }
                pad_nchwc_into(input, p, ic_bn, par, &mut *buf);
                buf
            }
            None => {
                // Fallback path: every element of the padded buffer is
                // written by `pad_nchwc_into` (interior copy + halo zero),
                // so an uninitialized allocation is sound.
                let mut b = AlignedBuf::uninit(need);
                pad_nchwc_into(input, p, ic_bn, par, &mut b);
                owned_pad = b;
                &owned_pad
            }
        }
    };

    let geo = Geo::new(p, schedule, max_lanes, false);
    let (oh, ow) = (p.out_h(), p.out_w());
    let oc_chunks = p.out_channels / oc_bn;
    let reg_n = schedule.reg_n;
    let sh = p.stride_h;

    let w_data = weights.data();
    let epilogue = RowEpilogue::new(epilogue);
    let out_ptr = SendPtr(output.data_mut().as_mut_ptr());

    let in_batch_stride = geo.ic_chunks * geo.ph * geo.pw * ic_bn;
    let w_oc_stride = geo.ic_chunks * geo.kh * geo.kw * ic_bn * oc_bn;
    let jobs = n * oc_chunks * oh;

    par.run(jobs, &|_, range| {
        let out_ptr = out_ptr;
        for job in range {
            let b = job / (oc_chunks * oh);
            let rest = job % (oc_chunks * oh);
            let (occ, y) = (rest / oh, rest % oh);
            let in_n = in_data[b * in_batch_stride..].as_ptr();
            let w_oc = w_data[occ * w_oc_stride..].as_ptr();
            let row_off = ((b * oc_chunks + occ) * oh + y) * ow * oc_bn;
            // SAFETY: jobs are disjoint (n, occ, y) triples → disjoint rows.
            let out_row = unsafe { out_ptr.0.add(row_off) };
            let ih0 = y * sh;
            let mut x0 = 0usize;
            while x0 < ow {
                let rn = reg_n.min(ow - x0);
                // SAFETY: the strip lies inside the row; padded input covers
                // the receptive field `(rn-1)*sw + kw` columns from `iw0`.
                unsafe {
                    let strip = Strip {
                        input: in_n,
                        weights: w_oc,
                        rn,
                        out: out_row.add(x0 * oc_bn),
                        ih0,
                        iw0: x0 * geo.sw,
                    };
                    microkernel::run_strip(&geo, &strip);
                }
                x0 += rn;
            }
            // SAFETY: same disjoint-row argument as above.
            let row = unsafe { std::slice::from_raw_parts_mut(out_row, ow * oc_bn) };
            epilogue.apply(row, occ, oc_bn, row_off);
        }
    });
    Ok(())
}

/// Writes a blocked input into `dst` as a zero-padded blocked buffer
/// (`[N, C, H+2ph, W+2pw]` logical, same `NCHW[x]c` layout).
///
/// Every element of `dst` is written exactly once: halo rows/columns are
/// zero-filled and interior rows are copied from `input` — no full-buffer
/// memset followed by an interior overwrite (the double-write the naive
/// `Tensor::zeros` + copy arrangement paid). `dst`'s prior contents are
/// irrelevant, so it may be uninitialized memory or reused arena scratch.
///
/// # Panics
///
/// Panics if `dst.len()` differs from [`padded_input_len`] for the
/// workload; callers ([`conv2d_nchwc`] and the depthwise template)
/// validate first.
pub(super) fn pad_nchwc_into(
    input: &Tensor,
    p: &Conv2dParams,
    ic_bn: usize,
    par: &dyn Parallelism,
    dst: &mut [f32],
) {
    let d = input.shape().dims();
    let (n, c) = (d[0], d[1]);
    let (ph, pw) = (p.in_h + 2 * p.pad_h, p.in_w + 2 * p.pad_w);
    let chunks = c / ic_bn;
    assert_eq!(dst.len(), n * chunks * ph * pw * ic_bn, "padded scratch length mismatch");
    let src = input.data();
    let dst_ptr = SendPtr(dst.as_mut_ptr());
    let row_elems = p.in_w * ic_bn;
    let pad_row = pw * ic_bn;
    let edge = p.pad_w * ic_bn;
    // One job per *padded* row, so halo rows parallelize like interior rows.
    par.run(n * chunks * ph, &|_, range| {
        let dst_ptr = dst_ptr;
        for job in range {
            let b = job / (chunks * ph);
            let rest = job % (chunks * ph);
            let (cc, y) = (rest / ph, rest % ph);
            let row_base = ((b * chunks + cc) * ph + y) * pad_row;
            // SAFETY: jobs are disjoint (b, cc, y) rows; every offset below
            // stays inside the row, which lies inside `dst` per the assert.
            unsafe {
                if y < p.pad_h || y >= p.pad_h + p.in_h {
                    // Full halo row above or below the image.
                    std::ptr::write_bytes(dst_ptr.0.add(row_base), 0, pad_row);
                } else {
                    // Interior row: zero left edge, copy image row, zero
                    // right edge.
                    let sy = y - p.pad_h;
                    let src_off = ((b * chunks + cc) * p.in_h + sy) * row_elems;
                    std::ptr::write_bytes(dst_ptr.0.add(row_base), 0, edge);
                    std::ptr::copy_nonoverlapping(
                        src[src_off..].as_ptr(),
                        dst_ptr.0.add(row_base + edge),
                        row_elems,
                    );
                    std::ptr::write_bytes(dst_ptr.0.add(row_base + edge + row_elems), 0, edge);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_nchw_direct;
    use neocpu_tensor::transform::to_layout;
    use neocpu_threadpool::{Sequential, ThreadPool};

    /// Runs the same workload through the reference NCHW kernel and the
    /// blocked template, returning both outputs in NCHW.
    fn run_both(p: &Conv2dParams, s: &ConvSchedule, batch: usize, seed: u64) -> (Tensor, Tensor) {
        let input = Tensor::random([batch, p.in_channels, p.in_h, p.in_w], Layout::Nchw, seed, 1.0)
            .unwrap();
        let weights = Tensor::random(
            [p.out_channels, p.in_channels, p.kernel_h, p.kernel_w],
            Layout::Oihw,
            seed + 1,
            1.0,
        )
        .unwrap();
        let mut ref_out =
            Tensor::zeros([batch, p.out_channels, p.out_h(), p.out_w()], Layout::Nchw).unwrap();
        conv2d_nchw_direct(&input, &weights, &mut ref_out, p, &Epilogue::none(), &Sequential)
            .unwrap();

        let in_b = to_layout(&input, Layout::NchwC(s.ic_bn)).unwrap();
        let w_b = to_layout(&weights, Layout::OihwIo { i: s.ic_bn, o: s.oc_bn }).unwrap();
        let mut out_b =
            Tensor::zeros([batch, p.out_channels, p.out_h(), p.out_w()], Layout::NchwC(s.oc_bn))
                .unwrap();
        conv2d_nchwc(&in_b, &w_b, &mut out_b, p, s, &Epilogue::none(), &Sequential, usize::MAX, None)
            .unwrap();
        let out = to_layout(&out_b, Layout::Nchw).unwrap();
        (ref_out, out)
    }

    #[test]
    fn matches_reference_scalar_blocks() {
        let p = Conv2dParams::square(6, 10, 9, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 3, oc_bn: 5, reg_n: 4, unroll_ker: false, ..Default::default() };
        let (a, b) = run_both(&p, &s, 1, 21);
        assert!(a.approx_eq(&b, 1e-4), "diff {}", a.max_abs_diff(&b));
    }

    #[test]
    fn matches_reference_avx2_blocks() {
        // oc_bn = 8 exercises the AVX2 path where available.
        let p = Conv2dParams::square(16, 16, 14, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 8, oc_bn: 8, reg_n: 8, unroll_ker: true, ..Default::default() };
        let (a, b) = run_both(&p, &s, 1, 22);
        assert!(a.approx_eq(&b, 1e-3), "diff {}", a.max_abs_diff(&b));
    }

    #[test]
    fn matches_reference_avx512_blocks() {
        // oc_bn = 16 exercises the AVX-512 path where available.
        let p = Conv2dParams::square(32, 32, 14, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 16, unroll_ker: false, ..Default::default() };
        let (a, b) = run_both(&p, &s, 1, 23);
        assert!(a.approx_eq(&b, 1e-3), "diff {}", a.max_abs_diff(&b));
    }

    #[test]
    fn matches_reference_with_stride_and_tail() {
        // out_w = 7 with reg_n = 4 forces a 3-wide tail strip.
        let p = Conv2dParams::square(8, 8, 14, 3, 2, 1);
        assert_eq!(p.out_w(), 7);
        let s = ConvSchedule { ic_bn: 4, oc_bn: 8, reg_n: 4, unroll_ker: false, ..Default::default() };
        let (a, b) = run_both(&p, &s, 1, 24);
        assert!(a.approx_eq(&b, 1e-3), "diff {}", a.max_abs_diff(&b));
    }

    #[test]
    fn matches_reference_1x1_and_7x7() {
        let p1 = Conv2dParams::square(12, 8, 8, 1, 1, 0);
        let s1 = ConvSchedule { ic_bn: 4, oc_bn: 4, reg_n: 2, unroll_ker: true, ..Default::default() };
        let (a, b) = run_both(&p1, &s1, 1, 25);
        assert!(a.approx_eq(&b, 1e-3));

        let p7 = Conv2dParams::square(3, 8, 17, 7, 2, 3);
        let s7 = ConvSchedule { ic_bn: 3, oc_bn: 8, reg_n: 8, unroll_ker: false, ..Default::default() };
        let (a, b) = run_both(&p7, &s7, 1, 26);
        assert!(a.approx_eq(&b, 1e-3), "diff {}", a.max_abs_diff(&b));
    }

    #[test]
    fn batch_greater_than_one() {
        let p = Conv2dParams::square(4, 4, 6, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 2, oc_bn: 2, reg_n: 2, unroll_ker: false, ..Default::default() };
        let (a, b) = run_both(&p, &s, 3, 27);
        assert!(a.approx_eq(&b, 1e-4));
    }

    #[test]
    fn parallel_matches_sequential() {
        let p = Conv2dParams::square(8, 16, 12, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 8, oc_bn: 16, reg_n: 8, unroll_ker: true, ..Default::default() };
        let input = Tensor::random([1, 8, 12, 12], Layout::NchwC(8), 31, 1.0).unwrap();
        let weights =
            Tensor::random([16, 8, 3, 3], Layout::OihwIo { i: 8, o: 16 }, 32, 1.0).unwrap();
        let mut seq = Tensor::zeros([1, 16, 12, 12], Layout::NchwC(16)).unwrap();
        let mut par = Tensor::zeros([1, 16, 12, 12], Layout::NchwC(16)).unwrap();
        conv2d_nchwc(&input, &weights, &mut seq, &p, &s, &Epilogue::none(), &Sequential, usize::MAX, None)
            .unwrap();
        let pool = ThreadPool::new(4);
        conv2d_nchwc(&input, &weights, &mut par, &p, &s, &Epilogue::none(), &pool, usize::MAX, None)
            .unwrap();
        assert_eq!(seq.data(), par.data());
    }

    #[test]
    fn fused_epilogue_matches_reference_epilogue() {
        let p = Conv2dParams::square(8, 8, 6, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 8, oc_bn: 8, reg_n: 4, unroll_ker: false, ..Default::default() };
        let input = Tensor::random([1, 8, 6, 6], Layout::Nchw, 41, 1.0).unwrap();
        let weights = Tensor::random([8, 8, 3, 3], Layout::Oihw, 42, 1.0).unwrap();
        let residual = Tensor::random([1, 8, 6, 6], Layout::Nchw, 43, 1.0).unwrap();
        let bias: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();

        let mut ref_out = Tensor::zeros([1, 8, 6, 6], Layout::Nchw).unwrap();
        let epi = Epilogue { bias: Some(&bias), relu: true, residual: Some(&residual) };
        conv2d_nchw_direct(&input, &weights, &mut ref_out, &p, &epi, &Sequential).unwrap();

        let in_b = to_layout(&input, Layout::NchwC(8)).unwrap();
        let w_b = to_layout(&weights, Layout::OihwIo { i: 8, o: 8 }).unwrap();
        let res_b = to_layout(&residual, Layout::NchwC(8)).unwrap();
        let mut out_b = Tensor::zeros([1, 8, 6, 6], Layout::NchwC(8)).unwrap();
        let epi_b = Epilogue { bias: Some(&bias), relu: true, residual: Some(&res_b) };
        conv2d_nchwc(&in_b, &w_b, &mut out_b, &p, &s, &epi_b, &Sequential, usize::MAX, None).unwrap();
        assert!(ref_out.approx_eq(&out_b, 1e-4));
    }

    #[test]
    fn rejects_mismatched_layouts() {
        let p = Conv2dParams::square(8, 8, 6, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 4, oc_bn: 4, reg_n: 4, unroll_ker: false, ..Default::default() };
        let input = Tensor::zeros([1, 8, 6, 6], Layout::NchwC(8)).unwrap(); // wrong block
        let weights = Tensor::zeros([8, 8, 3, 3], Layout::OihwIo { i: 4, o: 4 }).unwrap();
        let mut out = Tensor::zeros([1, 8, 6, 6], Layout::NchwC(4)).unwrap();
        assert!(conv2d_nchwc(
            &input,
            &weights,
            &mut out,
            &p,
            &s,
            &Epilogue::none(),
            &Sequential,
            usize::MAX,
            None
        )
        .is_err());
    }

    #[test]
    fn caller_scratch_matches_internal_padding() {
        let p = Conv2dParams::square(8, 8, 10, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 4, oc_bn: 8, reg_n: 4, unroll_ker: false, ..Default::default() };
        let input = Tensor::random([2, 8, 10, 10], Layout::NchwC(4), 61, 1.0).unwrap();
        let weights =
            Tensor::random([8, 8, 3, 3], Layout::OihwIo { i: 4, o: 8 }, 62, 1.0).unwrap();
        let mut auto = Tensor::zeros([2, 8, 10, 10], Layout::NchwC(8)).unwrap();
        let mut planned = Tensor::zeros([2, 8, 10, 10], Layout::NchwC(8)).unwrap();
        conv2d_nchwc(&input, &weights, &mut auto, &p, &s, &Epilogue::none(), &Sequential, usize::MAX, None)
            .unwrap();
        // Poisoned scratch must be fully overwritten by the halo writer.
        let mut scratch = vec![f32::NAN; super::padded_input_len(&p, s.ic_bn, 2)];
        conv2d_nchwc(
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

        // Wrong-length scratch is rejected, not silently resized.
        let mut short = vec![0.0f32; 8];
        assert!(conv2d_nchwc(
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
    fn padded_len_is_zero_only_without_padding() {
        let padded = Conv2dParams::square(8, 8, 10, 3, 1, 1);
        assert_eq!(super::padded_input_len(&padded, 4, 2), 2 * 2 * 12 * 12 * 4);
        let unpadded = Conv2dParams::square(8, 8, 10, 1, 1, 0);
        assert_eq!(super::padded_input_len(&unpadded, 4, 2), 0);
    }

    #[test]
    fn scalar_isa_cap_matches_simd_result() {
        // Forcing max_lanes = 1 must still give identical results.
        let p = Conv2dParams::square(16, 16, 8, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 8, unroll_ker: false, ..Default::default() };
        let input = Tensor::random([1, 16, 8, 8], Layout::NchwC(16), 51, 1.0).unwrap();
        let weights =
            Tensor::random([16, 16, 3, 3], Layout::OihwIo { i: 16, o: 16 }, 52, 1.0).unwrap();
        let mut simd = Tensor::zeros([1, 16, 8, 8], Layout::NchwC(16)).unwrap();
        let mut scalar = Tensor::zeros([1, 16, 8, 8], Layout::NchwC(16)).unwrap();
        conv2d_nchwc(&input, &weights, &mut simd, &p, &s, &Epilogue::none(), &Sequential, usize::MAX, None)
            .unwrap();
        conv2d_nchwc(&input, &weights, &mut scalar, &p, &s, &Epilogue::none(), &Sequential, 1, None)
            .unwrap();
        assert!(simd.approx_eq(&scalar, 1e-4));
    }
}
