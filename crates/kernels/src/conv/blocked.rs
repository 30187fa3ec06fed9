//! The blocked `NCHW[x]c` convolution template (Algorithm 1), written once.
//!
//! Loop structure, following the paper:
//!
//! ```text
//! parallel for each disjoint chunk of OFMAP          // (n, oc_chunk, oh)
//!   for ow_outer in 0 .. out_width / reg_n           //  + the remainder
//!     init V_REG[1..=reg_n] = 0
//!     for ic_outer, kernel entries (one flattened loop), ic_inner:
//!       vload kernel vector, vfmadd into the reg_n accumulators
//!     vstore the accumulators
//!     apply the fused epilogue to the strip, in one pass
//! ```
//!
//! With a requantizing epilogue ([`Epilogue::requant`]) the output is `u8`:
//! each strip lands in an f32 staging tile on the job's stack instead, and
//! the epilogue's pass stores it as `rn·oc_bn` bytes — the f32 the next
//! convolution's `Quantize` node would have re-read is never stored.
//!
//! [`drive`] is that loop nest — operand validation, padding, the
//! `(n, chunk, oh)` job loop, the strips of one row as its [`StripPlan`]
//! cuts them, the row epilogue — generic over the activation and weight
//! element types, with the strip microkernel as a monomorphized parameter.
//! A pointwise workload's plane is one strip row
//! ([`Conv2dParams::strip_row`]), cut into row-sized jobs. Dense and
//! depthwise workloads (§3.1.1's "other CONV workloads such as … depth-wise
//! CONV") share the nest: a depthwise convolution has no input-channel
//! reduction, so input and output blocking agree (`ic_bn == oc_bn`), the
//! weights carry one `kh×kw` filter per channel (`OIHW1i[x]o`), and the only
//! things the driver does differently are the two chunk strides it computes
//! up front.
//! The public entry points are thin instantiations: [`conv2d_nchwc`] here
//! (`f32 × f32`) and [`conv2d_nchwc_u8`](super::conv2d_nchwc_u8)
//! (`u8 × i8`).
//!
//! Zero padding is materialized once per call into a padded copy of the
//! input (the standard direct-convolution arrangement, also what TVM's x86
//! schedule does), so the hot loops are entirely branch-free.

use neocpu_tensor::{AlignedBuf, DType, Layout, Tensor};
use neocpu_threadpool::Parallelism;

use super::microkernel::{self, Geo, Strip, StripPlan};
use super::{Conv2dParams, ConvSchedule, Epilogue};
use crate::epilogue::RowEpilogue;
use crate::util::SendPtr;
use crate::{KernelError, Result};

/// Floats of the requantizing store's staging tile: a 28-pixel strip of the
/// widest block the search emits. Wider schedules stage shorter strips.
const STAGE: usize = 28 * 64;

/// Number of elements of padded-input scratch the blocked templates need
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

/// An element type the template is instantiated over: where a tensor of it
/// keeps its data, and the [`DType`] such a tensor must declare.
///
/// # Safety
///
/// Implementors are primitive numeric types no wider than `f32`: every bit
/// pattern is a value and `f32`-slot storage is aligned for them, which is
/// what lets [`drive`] view an [`AlignedBuf`] as `[Self]`.
pub(super) unsafe trait Elem: Copy + Send + Sync {
    const DTYPE: DType;
    fn data(t: &Tensor) -> &[Self];
}

// SAFETY (all three): a primitive numeric type of at most four bytes.
unsafe impl Elem for f32 {
    const DTYPE: DType = DType::F32;
    fn data(t: &Tensor) -> &[Self] {
        t.data()
    }
}
unsafe impl Elem for u8 {
    const DTYPE: DType = DType::U8;
    fn data(t: &Tensor) -> &[Self] {
        t.data_u8()
    }
}
unsafe impl Elem for i8 {
    const DTYPE: DType = DType::I8;
    fn data(t: &Tensor) -> &[Self] {
        t.data_i8()
    }
}

/// Direct convolution on blocked layouts: `NCHW[ic_bn]c` input,
/// `OIHW[ic_bn]i[oc_bn]o` weights, `NCHW[oc_bn]c` output — or, for a
/// depthwise workload (`p.is_depthwise()`, `ic_bn == oc_bn == c`),
/// `OIHW1i[c]o` weights of logical shape `[C, 1, kh, kw]`. The output is
/// f32, or `u8` exactly when `epilogue.requant` is set.
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
/// Returns an error if the schedule does not divide the workload (or
/// blocks a depthwise workload's input and output channels differently),
/// the workload is grouped but not depthwise, any operand has the wrong
/// dtype/layout/shape, or `scratch` has the wrong length.
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
    let dense_weights = Layout::OihwIo { i: schedule.ic_bn, o: schedule.oc_bn };
    drive::<f32, f32>(
        input,
        weights,
        output,
        p,
        schedule,
        epilogue,
        par,
        max_lanes,
        dense_weights,
        0.0,
        scratch,
        // SAFETY: `drive` only hands out strips that are valid under `geo`.
        |geo, strip, _| unsafe { microkernel::run_strip(geo, strip) },
    )
}

/// Errors unless `t` is exactly the operand the template expects.
fn check_operand(
    what: &str,
    t: &Tensor,
    dtype: DType,
    layout: Layout,
    dims: [usize; 4],
) -> Result<()> {
    if t.dtype() == dtype && t.layout() == layout && t.shape().dims() == dims {
        return Ok(());
    }
    Err(KernelError::BadOperand(format!(
        "{what} must be {dtype} {layout} {dims:?}, got {} {} {:?}",
        t.dtype(),
        t.layout(),
        t.shape().dims()
    )))
}

/// Algorithm 1 for activations of type `A` and weights of type `W`.
///
/// `dense_weights` is the weight layout of a dense workload (a depthwise
/// one is `OIHW1i[x]o` for every element type), `fill` the padding halo
/// value, `scratch` the optional caller-planned padded-input buffer, and
/// `strip` the microkernel. It is called with the call's [`Geo`], one strip
/// of an output row — always valid for the extents [`Strip`] documents
/// under that `Geo` — and the row's output-channel chunk, and must fully
/// overwrite the strip. The output is `u8` iff `epilogue.requant` is set.
///
/// # Errors
///
/// See [`conv2d_nchwc`].
pub(super) fn drive<A: Elem, W: Elem>(
    input: &Tensor,
    weights: &Tensor,
    output: &mut Tensor,
    p: &Conv2dParams,
    schedule: &ConvSchedule,
    epilogue: &Epilogue<'_>,
    par: &dyn Parallelism,
    max_lanes: usize,
    dense_weights: Layout,
    fill: A,
    scratch: Option<&mut [A]>,
    strip: impl Fn(&Geo, &Strip<A, W>, usize) + Sync,
) -> Result<()> {
    // Rejects grouped-but-not-depthwise workloads and unequal depthwise
    // blocks, so from here on `depthwise` alone selects the shape.
    schedule.validate(p)?;
    let (ic_bn, oc_bn) = (schedule.ic_bn, schedule.oc_bn);
    let depthwise = p.is_depthwise();
    let n = input.shape().dims().first().copied().unwrap_or(0);
    let (oh, ow) = (p.out_h(), p.out_w());
    let w_layout = if depthwise { Layout::OihwIo { i: 1, o: oc_bn } } else { dense_weights };
    let w_dims = [p.out_channels, p.in_channels_per_group(), p.kernel_h, p.kernel_w];
    let in_dims = [n, p.in_channels, p.in_h, p.in_w];
    check_operand("input", input, A::DTYPE, Layout::NchwC(ic_bn), in_dims)?;
    check_operand("weights", weights, W::DTYPE, w_layout, w_dims)?;
    let out_dims = [n, p.out_channels, oh, ow];
    let requant = epilogue.requant.is_some();
    let out_dtype = if requant { DType::U8 } else { DType::F32 };
    check_operand("output", output, out_dtype, Layout::NchwC(oc_bn), out_dims)?;
    epilogue.validate(output, p.out_channels)?;
    // A staged strip has to fit the tile.
    let tile_n = if requant { STAGE / oc_bn } else { usize::MAX };
    let strip_n = schedule.reg_n.min(tile_n);
    if strip_n == 0 {
        return Err(KernelError::BadSchedule(format!(
            "oc_bn {oc_bn} exceeds the {STAGE}-float requantizing tile"
        )));
    }

    let mut owned_pad;
    let in_data: &[A] = if p.pad_h == 0 && p.pad_w == 0 {
        A::data(input)
    } else {
        let need = padded_input_len(p, ic_bn, n);
        let buf = match scratch {
            Some(buf) if buf.len() == need => buf,
            Some(buf) => {
                return Err(KernelError::BadOperand(format!(
                    "scratch must be {need} {} elements, got {}",
                    A::DTYPE,
                    buf.len()
                )));
            }
            None => {
                owned_pad = AlignedBuf::uninit(A::DTYPE.slots(need));
                // SAFETY: the buffer holds `need` elements of `A` and is
                // aligned for them (`Elem` contract); it is exclusively
                // ours, and `pad_into` writes every element before any is
                // read, so starting from uninitialized memory is sound.
                unsafe {
                    std::slice::from_raw_parts_mut(owned_pad.as_mut_ptr().cast::<A>(), need)
                }
            }
        };
        pad_into(A::data(input), buf, n * p.in_channels / ic_bn, ic_bn, p, fill, par);
        buf
    };

    let geo = Geo::new(p, schedule, max_lanes, A::DTYPE != DType::F32);
    let chunks = p.out_channels / oc_bn;
    let in_batch_stride = geo.ic_chunks * geo.ph * geo.pw * ic_bn;
    // A dense strip reads the batch item's whole padded input and its
    // output chunk's `[ic_chunks, kh, kw, ic_bn, oc_bn]` weight block; a
    // depthwise strip reads its own channel chunk of both.
    let (in_chunk_stride, w_chunk_stride) = if depthwise {
        (geo.ph * geo.pw * oc_bn, geo.kh * geo.kw * oc_bn)
    } else {
        (0, geo.ic_chunks * geo.kh * geo.kw * ic_bn * oc_bn)
    };
    let (reg_n, sh) = (schedule.reg_n, p.stride_h);
    // A job is a block of one strip row: a whole image row — or, on a
    // pointwise plane (one `oh·ow`-pixel row), whole `reg_n` strips about an
    // image row long, so the job count and with it the pool's balance are
    // what row jobs give.
    let (rows, row_w) = p.strip_row();
    let block = ow.div_ceil(reg_n) * reg_n;
    let blocks = row_w.div_ceil(block);
    let w_data = W::data(weights);
    let epilogue = RowEpilogue::new(epilogue);
    // The storage of either dtype as its f32 slots, and as the bytes a u8
    // output keeps its elements in.
    let out_ptr = SendPtr(output.data_mut().as_mut_ptr());
    let out_bytes = SendPtr(out_ptr.0.cast::<u8>());

    par.run(n * chunks * rows * blocks, &|_, range| {
        let mut tile = std::mem::MaybeUninit::<[f32; STAGE]>::uninit();
        let tile = tile.as_mut_ptr().cast::<f32>();
        for job in range {
            let (plane, rest) = (job / (rows * blocks), job % (rows * blocks));
            let (b, chunk) = (plane / chunks, plane % chunks);
            let (y, x0) = (rest / blocks, rest % blocks * block);
            let width = block.min(row_w - x0);
            let off = ((plane * rows + y) * row_w + x0) * oc_bn;
            let mut s = Strip {
                input: in_data[b * in_batch_stride + chunk * in_chunk_stride..].as_ptr(),
                weights: w_data[chunk * w_chunk_stride..].as_ptr(),
                rn: 0,
                // SAFETY: jobs are disjoint (n, chunk, y, block) tuples →
                // disjoint pixel ranges of the output, here of an f32 one.
                out: if requant { tile } else { unsafe { out_ptr.add(off) } },
                ih0: y * sh,
                iw0: x0 * geo.sw,
            };
            let mut done = off;
            for rn in StripPlan::new(geo.strips, strip_n, width) {
                s.rn = rn;
                // The padded input covers the strip's receptive field,
                // `(rn-1)*sw + kw` columns from `iw0`.
                strip(&geo, &s, chunk);
                s.iw0 += rn * geo.sw;
                let len = rn * oc_bn;
                // SAFETY: the strip just wrote the `len` floats at `s.out` —
                // the tile's first `len ≤ STAGE`, or this job's elements
                // `done..done + len` of an f32 output (the plan's lengths sum
                // to `width`); of a u8 output those elements are the bytes.
                let px = unsafe { std::slice::from_raw_parts_mut(s.out, len) };
                let bytes: &mut [u8] = if requant {
                    unsafe { std::slice::from_raw_parts_mut(out_bytes.add(done), len) }
                } else {
                    // SAFETY: at most one past the block's last pixel.
                    s.out = unsafe { s.out.add(len) };
                    &mut []
                };
                microkernel::run_epilogue(&geo, &epilogue, px, bytes, chunk, done);
                done += len;
            }
        }
    });
    Ok(())
}

/// Writes the `planes` blocked image planes of `src` (`N · C/bn` of them,
/// `in_h × in_w × bn` each) into `dst` with a halo of `pad_h`/`pad_w`
/// pixels of `fill` around every plane.
///
/// Every element of `dst` is written exactly once: halo rows/columns are
/// filled and interior rows are copied from `src` — no full-buffer memset
/// followed by an interior overwrite. `dst`'s prior contents are
/// irrelevant, so it may be uninitialized memory or reused arena scratch.
/// The int8 template fills with the activation **zero point** (not zero): a
/// padded tap then contributes exactly `zp·w_q`, which the compile-time
/// bias correction `−m·zp·Σw_q` cancels, making padding exact.
///
/// # Panics
///
/// Panics if `dst` has the wrong length for `planes` padded planes or
/// `src` is too short; [`drive`] validates first.
fn pad_into<T: Copy + Send + Sync>(
    src: &[T],
    dst: &mut [T],
    planes: usize,
    bn: usize,
    p: &Conv2dParams,
    fill: T,
    par: &dyn Parallelism,
) {
    let (ph, pw) = (p.in_h + 2 * p.pad_h, p.in_w + 2 * p.pad_w);
    let (row_elems, pad_row, edge) = (p.in_w * bn, pw * bn, p.pad_w * bn);
    assert_eq!(dst.len(), planes * ph * pad_row, "padded scratch length mismatch");
    let dst_ptr = SendPtr(dst.as_mut_ptr());
    // One job per *padded* row, so halo rows parallelize like interior rows.
    par.run(planes * ph, &|_, range| {
        for job in range {
            let (plane, y) = (job / ph, job % ph);
            // SAFETY: jobs are disjoint padded rows, each inside `dst` per
            // the assert.
            let row =
                unsafe { std::slice::from_raw_parts_mut(dst_ptr.add(job * pad_row), pad_row) };
            if y < p.pad_h || y >= p.pad_h + p.in_h {
                // Full halo row above or below the image.
                row.fill(fill);
            } else {
                // Interior row: left edge, image row, right edge.
                let src_off = (plane * p.in_h + y - p.pad_h) * row_elems;
                row[..edge].fill(fill);
                row[edge..edge + row_elems].copy_from_slice(&src[src_off..src_off + row_elems]);
                row[edge + row_elems..].fill(fill);
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

    fn sched(ic_bn: usize, oc_bn: usize, reg_n: usize) -> ConvSchedule {
        ConvSchedule { ic_bn, oc_bn, reg_n, ..Default::default() }
    }

    fn weight_dims(p: &Conv2dParams) -> [usize; 4] {
        [p.out_channels, p.in_channels_per_group(), p.kernel_h, p.kernel_w]
    }

    fn weight_layout(p: &Conv2dParams, s: &ConvSchedule) -> Layout {
        Layout::OihwIo { i: if p.is_depthwise() { 1 } else { s.ic_bn }, o: s.oc_bn }
    }

    fn out_dims(p: &Conv2dParams, batch: usize) -> [usize; 4] {
        [batch, p.out_channels, p.out_h(), p.out_w()]
    }

    /// Random input and weights, already in the blocked layouts of `s`.
    fn blocked_operands(p: &Conv2dParams, s: &ConvSchedule, batch: usize, seed: u64) -> (Tensor, Tensor) {
        let dims = [batch, p.in_channels, p.in_h, p.in_w];
        (
            Tensor::random(dims, Layout::NchwC(s.ic_bn), seed, 1.0).unwrap(),
            Tensor::random(weight_dims(p), weight_layout(p, s), seed + 1, 1.0).unwrap(),
        )
    }

    /// One template call (no epilogue) into a fresh output.
    fn run(
        input: &Tensor,
        weights: &Tensor,
        p: &Conv2dParams,
        s: &ConvSchedule,
        par: &dyn Parallelism,
        max_lanes: usize,
        scratch: Option<&mut [f32]>,
    ) -> Result<Tensor> {
        let batch = input.shape().dims()[0];
        let mut out = Tensor::zeros(out_dims(p, batch), Layout::NchwC(s.oc_bn)).unwrap();
        conv2d_nchwc(input, weights, &mut out, p, s, &Epilogue::none(), par, max_lanes, scratch)
            .map(|()| out)
    }

    /// Runs the same workload (dense or depthwise) through the reference
    /// NCHW kernel and the blocked template and compares them in NCHW.
    fn assert_matches_reference(p: &Conv2dParams, s: &ConvSchedule, batch: usize, seed: u64, tol: f32) {
        let input = Tensor::random([batch, p.in_channels, p.in_h, p.in_w], Layout::Nchw, seed, 1.0)
            .unwrap();
        let weights = Tensor::random(weight_dims(p), Layout::Oihw, seed + 1, 1.0).unwrap();
        let mut ref_out = Tensor::zeros(out_dims(p, batch), Layout::Nchw).unwrap();
        conv2d_nchw_direct(&input, &weights, &mut ref_out, p, &Epilogue::none(), &Sequential)
            .unwrap();

        let in_b = to_layout(&input, Layout::NchwC(s.ic_bn)).unwrap();
        let w_b = to_layout(&weights, weight_layout(p, s)).unwrap();
        let out = run(&in_b, &w_b, p, s, &Sequential, usize::MAX, None).unwrap();
        assert!(ref_out.approx_eq(&out, tol), "{p:?} {s:?}: diff {}", ref_out.max_abs_diff(&out));
    }

    #[test]
    fn matches_reference_scalar_blocks() {
        assert_matches_reference(&Conv2dParams::square(6, 10, 9, 3, 1, 1), &sched(3, 5, 4), 1, 21, 1e-4);
        assert_matches_reference(&Conv2dParams::depthwise(6, 9, 3, 1, 1), &sched(3, 3, 4), 1, 71, 1e-4);
    }

    #[test]
    fn matches_reference_avx2_blocks() {
        // oc_bn = 8 exercises the AVX2 path where available.
        assert_matches_reference(&Conv2dParams::square(16, 16, 14, 3, 1, 1), &sched(8, 8, 8), 1, 22, 1e-3);
        assert_matches_reference(&Conv2dParams::depthwise(16, 14, 3, 1, 1), &sched(8, 8, 8), 1, 72, 1e-3);
    }

    #[test]
    fn matches_reference_avx512_blocks() {
        // oc_bn = 16 exercises the AVX-512 path where available.
        assert_matches_reference(&Conv2dParams::square(32, 32, 14, 3, 1, 1), &sched(16, 16, 16), 1, 23, 1e-3);
        assert_matches_reference(&Conv2dParams::depthwise(32, 14, 3, 1, 1), &sched(16, 16, 16), 1, 73, 1e-3);
    }

    #[test]
    fn matches_reference_with_stride_and_tail() {
        // out_w = 7 with reg_n = 4 forces a 3-wide tail strip; the depthwise
        // one is the MobileNet downsampling shape.
        let p = Conv2dParams::square(8, 8, 14, 3, 2, 1);
        assert_eq!(p.out_w(), 7);
        assert_matches_reference(&p, &sched(4, 8, 4), 1, 24, 1e-3);
        assert_matches_reference(&Conv2dParams::depthwise(8, 14, 3, 2, 1), &sched(8, 8, 4), 1, 74, 1e-3);
    }

    #[test]
    fn matches_reference_1x1_and_7x7() {
        assert_matches_reference(&Conv2dParams::square(12, 8, 8, 1, 1, 0), &sched(4, 4, 2), 1, 25, 1e-3);
        assert_matches_reference(&Conv2dParams::square(3, 8, 17, 7, 2, 3), &sched(3, 8, 8), 1, 26, 1e-3);
    }

    #[test]
    fn batch_greater_than_one() {
        assert_matches_reference(&Conv2dParams::square(4, 4, 6, 3, 1, 1), &sched(2, 2, 2), 3, 27, 1e-4);
        assert_matches_reference(&Conv2dParams::depthwise(4, 6, 3, 1, 1), &sched(2, 2, 2), 3, 75, 1e-4);
    }

    #[test]
    fn parallel_matches_sequential() {
        let pool = ThreadPool::new(4);
        for (p, s) in [
            (Conv2dParams::square(8, 16, 12, 3, 1, 1), sched(8, 16, 8)),
            (Conv2dParams::depthwise(16, 12, 3, 1, 1), sched(8, 8, 8)),
        ] {
            let (input, weights) = blocked_operands(&p, &s, 1, 31);
            let seq = run(&input, &weights, &p, &s, &Sequential, usize::MAX, None).unwrap();
            let par = run(&input, &weights, &p, &s, &pool, usize::MAX, None).unwrap();
            assert_eq!(seq.data(), par.data());
        }
    }

    #[test]
    fn fused_epilogue_matches_reference_epilogue() {
        for (p, s) in [
            (Conv2dParams::square(8, 8, 6, 3, 1, 1), sched(8, 8, 4)),
            (Conv2dParams::depthwise(8, 6, 3, 1, 1), sched(8, 8, 4)),
        ] {
            let input = Tensor::random([1, 8, 6, 6], Layout::Nchw, 41, 1.0).unwrap();
            let weights = Tensor::random(weight_dims(&p), Layout::Oihw, 42, 1.0).unwrap();
            let residual = Tensor::random([1, 8, 6, 6], Layout::Nchw, 43, 1.0).unwrap();
            let bias: Vec<f32> = (0..8).map(|i| i as f32 * 0.1 - 0.3).collect();

            let mut ref_out = Tensor::zeros([1, 8, 6, 6], Layout::Nchw).unwrap();
            let epi = Epilogue { bias: Some(&bias), relu: true, residual: Some(&residual), requant: None };
            conv2d_nchw_direct(&input, &weights, &mut ref_out, &p, &epi, &Sequential).unwrap();

            let in_b = to_layout(&input, Layout::NchwC(8)).unwrap();
            let w_b = to_layout(&weights, weight_layout(&p, &s)).unwrap();
            let res_b = to_layout(&residual, Layout::NchwC(8)).unwrap();
            let mut out_b = Tensor::zeros([1, 8, 6, 6], Layout::NchwC(8)).unwrap();
            let epi_b = Epilogue { bias: Some(&bias), relu: true, residual: Some(&res_b), requant: None };
            conv2d_nchwc(&in_b, &w_b, &mut out_b, &p, &s, &epi_b, &Sequential, usize::MAX, None)
                .unwrap();
            assert!(ref_out.approx_eq(&out_b, 1e-4));
        }
    }

    #[test]
    fn rejects_mismatched_operands() {
        let p = Conv2dParams::square(8, 8, 6, 3, 1, 1);
        let s = sched(4, 4, 4);
        let (input, weights) = blocked_operands(&p, &s, 1, 1);
        let run = |input, weights, p, s| run(input, weights, p, s, &Sequential, usize::MAX, None);
        run(&input, &weights, &p, &s).unwrap();
        // Wrong input block.
        let wide = Tensor::zeros([1, 8, 6, 6], Layout::NchwC(8)).unwrap();
        assert!(run(&wide, &weights, &p, &s).is_err());
        // The f32 template reads f32: a u8 tensor of the right layout and
        // shape is refused, not misread.
        let bytes = Tensor::zeros_dtyped([1, 8, 6, 6], Layout::NchwC(4), DType::U8).unwrap();
        assert!(run(&bytes, &weights, &p, &s).is_err());
        // One filter per channel is a depthwise weight block: a dense
        // workload does not take it, nor a depthwise workload the dense one.
        let dw = Conv2dParams::depthwise(8, 6, 3, 1, 1);
        let (_, dw_weights) = blocked_operands(&dw, &s, 1, 1);
        assert!(run(&input, &dw_weights, &p, &s).is_err());
        assert!(run(&input, &weights, &dw, &s).is_err());
        run(&input, &dw_weights, &dw, &s).unwrap();
        // Depthwise blocks input and output channels alike.
        assert!(run(&input, &dw_weights, &dw, &sched(4, 8, 4)).is_err());
    }

    #[test]
    fn caller_scratch_matches_internal_padding() {
        for (p, s) in [
            (Conv2dParams::square(8, 8, 10, 3, 1, 1), sched(4, 8, 4)),
            (Conv2dParams::depthwise(8, 10, 3, 1, 1), sched(4, 4, 4)),
        ] {
            let (input, weights) = blocked_operands(&p, &s, 2, 61);
            let auto = run(&input, &weights, &p, &s, &Sequential, usize::MAX, None).unwrap();
            // Poisoned scratch must be fully overwritten by the halo writer.
            let mut scratch = vec![f32::NAN; padded_input_len(&p, s.ic_bn, 2)];
            let planned =
                run(&input, &weights, &p, &s, &Sequential, usize::MAX, Some(&mut scratch)).unwrap();
            assert_eq!(auto.data(), planned.data());

            // Wrong-length scratch is rejected, not silently resized.
            let mut short = vec![0.0f32; 8];
            assert!(run(&input, &weights, &p, &s, &Sequential, usize::MAX, Some(&mut short)).is_err());
        }
    }

    #[test]
    fn padded_len_is_zero_only_without_padding() {
        let padded = Conv2dParams::square(8, 8, 10, 3, 1, 1);
        assert_eq!(padded_input_len(&padded, 4, 2), 2 * 2 * 12 * 12 * 4);
        let unpadded = Conv2dParams::square(8, 8, 10, 1, 1, 0);
        assert_eq!(padded_input_len(&unpadded, 4, 2), 0);
    }

    #[test]
    fn scalar_isa_cap_matches_simd_result() {
        // Forcing max_lanes = 1 must still give identical results.
        let p = Conv2dParams::square(16, 16, 8, 3, 1, 1);
        let s = sched(16, 16, 8);
        let (input, weights) = blocked_operands(&p, &s, 1, 51);
        let simd = run(&input, &weights, &p, &s, &Sequential, usize::MAX, None).unwrap();
        let scalar = run(&input, &weights, &p, &s, &Sequential, 1, None).unwrap();
        assert!(simd.approx_eq(&scalar, 1e-4));
    }
}
