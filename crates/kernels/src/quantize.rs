//! Quantize/dequantize kernels and weight quantization for the int8 path.
//!
//! The quantization scheme (see DESIGN.md):
//!
//! * **Activations** are unsigned 8-bit with a per-tensor affine mapping
//!   `q = clamp(round(x / scale) + zero_point, 0, 255)` — asymmetric,
//!   because post-ReLU feature maps are one-sided and an asymmetric range
//!   wastes no codes on values that never occur.
//! * **Dense conv weights** are signed 8-bit, symmetric per output channel,
//!   restricted to `[-63, 63]`: the AVX2/AVX-512 microkernels pair-sum
//!   `u8×i8` products in 16 bits (`maddubs`), and `255·63·2 = 32130 <
//!   32767` guarantees those pair sums never saturate, so integer
//!   accumulation is **exact** and every ISA produces bit-identical output.
//! * **Depthwise weights** use the full `[-127, 127]` range — their
//!   microkernels widen to 32 bits before multiplying, so the `maddubs`
//!   headroom restriction does not apply.
//!
//! All float→int conversions saturate deterministically: `NaN` maps to the
//! zero point, `±inf` and out-of-range values clamp to the representable
//! edge. No undefined-behavior casts anywhere.
//!
//! [`quantize_value`] is the one definition of the activation mapping. The
//! AVX2 and AVX-512 bodies below compute the same function bit for bit, and
//! every bulk quantize goes through them: [`quantize_slice`], the
//! pool-parallel [`quantize_slice_par`] the executors run standalone
//! `Quantize` nodes with, and the requantizing store of the convolution
//! template (`Epilogue::requant`).

use neocpu_tensor::{DType, Layout, Tensor};
use neocpu_threadpool::{Parallelism, Sequential};

use crate::util::SendPtr;
use crate::{KernelError, Result};

/// Largest quantized magnitude for dense conv weights. Chosen so a
/// `maddubs` 16-bit pair sum `u8·i8 + u8·i8` is at most `255·63·2 = 32130 <
/// i16::MAX` — integer accumulation never saturates.
pub const DENSE_WEIGHT_QMAX: i32 = 63;

/// Largest quantized magnitude for depthwise conv weights (full i8 range;
/// the depthwise microkernels widen to i32 before multiplying).
pub const DW_WEIGHT_QMAX: i32 = 127;

/// Quantizes one `f32` value to `u8` with the given affine mapping.
///
/// Deterministic for every input: `NaN → zero_point`, `±inf` and
/// out-of-range values saturate to `0`/`255`. Rounding is half-away-from-
/// zero (`f32::round`).
#[inline]
pub fn quantize_value(x: f32, scale: f32, zero_point: u8) -> u8 {
    if x.is_nan() {
        return zero_point;
    }
    // `clamp` pins ±inf (and any overflow of the addition) to the edges, so
    // the final cast is always in range — never a UB float→int cast.
    let q = (x / scale).round() + f32::from(zero_point);
    q.clamp(0.0, 255.0) as u8
}

/// Dequantizes one `u8` code back to `f32`.
#[inline]
pub fn dequantize_value(q: u8, scale: f32, zero_point: u8) -> f32 {
    (i32::from(q) - i32::from(zero_point)) as f32 * scale
}

/// A register of `LANES` f32 lanes — the base of the convolution strips'
/// `Simd` trait — with the element-wise operations of the templates' fused
/// store (`crate::epilogue`) and the one per-register step of
/// [`quantize_value`] that store and the bulk quantize share. `f32` itself is
/// the one-lane body.
///
/// # Safety
///
/// Callers run with the implementing type's CPU features enabled; pointers
/// are valid for `LANES` elements.
pub(crate) trait Lanes: Copy {
    /// f32 lanes per register.
    const LANES: usize;
    /// `(scale, zero_point)` in the form the body consumes them.
    type QParams: Copy;

    unsafe fn qparams(scale: f32, zero_point: u8) -> Self::QParams;
    /// Unaligned load of `LANES` f32.
    unsafe fn load(p: *const f32) -> Self;
    /// Unaligned store of `LANES` f32.
    unsafe fn store(self, p: *mut f32);
    unsafe fn add(self, other: Self) -> Self;
    /// `max(self, 0)` per lane; a NaN lane becomes 0, as `f32::max` has it.
    unsafe fn relu(self) -> Self;
    /// `dst[l] = quantize_value(self[l], scale, zero_point)`.
    unsafe fn quantize_to(self, q: &Self::QParams, dst: *mut u8);
}

impl Lanes for f32 {
    const LANES: usize = 1;
    type QParams = (f32, u8);

    #[inline(always)]
    unsafe fn qparams(scale: f32, zero_point: u8) -> (f32, u8) {
        (scale, zero_point)
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> f32 {
        *p
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        *p = self;
    }
    #[inline(always)]
    unsafe fn add(self, other: f32) -> f32 {
        self + other
    }
    #[inline(always)]
    unsafe fn relu(self) -> f32 {
        self.max(0.0)
    }
    #[inline(always)]
    unsafe fn quantize_to(self, q: &(f32, u8), dst: *mut u8) {
        *dst = quantize_value(self, q.0, q.1);
    }
}

/// Which body of the quantize arithmetic a call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QuantIsa {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl QuantIsa {
    /// The widest body the host runs within `max_lanes` f32 lanes (the cap
    /// the convolution templates take, so a `CpuTarget` narrower than the
    /// host narrows this too).
    pub(crate) fn select(max_lanes: usize) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if max_lanes >= 16 && std::arch::is_x86_feature_detected!("avx512f") {
                return Self::Avx512;
            }
            if max_lanes >= 8 && std::arch::is_x86_feature_detected!("avx2") {
                return Self::Avx2;
            }
        }
        let _ = max_lanes;
        Self::Scalar
    }

    /// `dst[i] = quantize_value(src[i], scale, zero_point)`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ.
    pub(crate) fn quantize(self, src: &[f32], dst: &mut [u8], scale: f32, zero_point: u8) {
        assert_eq!(src.len(), dst.len(), "quantize length mismatch");
        match self {
            Self::Scalar => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = quantize_value(s, scale, zero_point);
                }
            }
            // SAFETY (both): `select` returns a SIMD body only when the host
            // has its CPU features, and the slices are equally long (above).
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => unsafe { simd::quantize_avx2(src, dst, scale, zero_point) },
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => unsafe { simd::quantize_avx512(src, dst, scale, zero_point) },
        }
    }
}

/// The SIMD bodies of [`quantize_value`], as the `quantize_to` step of
/// [`Lanes`] for `__m256` and `__m512`. Both keep its arithmetic exactly —
/// the tests hold them to it on arbitrary bit patterns:
///
/// * a true division `x / scale` (multiplying by `1/scale` rounds twice and
///   moves values that sit on a tie);
/// * half-away-from-zero as `trunc(q + copysign(pred(0.5), q))`: adding the
///   largest float below one half carries `q` past the next integer exactly
///   when its fraction is at least one half (at `|q| ≥ 2²³`, where `q` is
///   already integral, the addend is below half an ulp and vanishes);
/// * `max` then `min` with the value as *first* operand, so a NaN quotient
///   (`0/0`, `inf/inf`) becomes 0 like the scalar's saturating cast;
/// * lanes whose *input* is NaN take the zero point.
#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::*;

    use super::Lanes;

    /// `pred(0.5)`, the largest f32 below one half.
    const HALF_PRED: f32 = f32::from_bits(0.5f32.to_bits() - 1);
    const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;

    /// AVX2: `(scale, zero point)` broadcast.
    impl Lanes for __m256 {
        const LANES: usize = 8;
        type QParams = (__m256, __m256);

        #[inline(always)]
        unsafe fn qparams(scale: f32, zp: u8) -> Self::QParams {
            (_mm256_set1_ps(scale), _mm256_set1_ps(f32::from(zp)))
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            _mm256_add_ps(self, other)
        }
        #[inline(always)]
        unsafe fn relu(self) -> Self {
            _mm256_max_ps(self, _mm256_setzero_ps())
        }
        #[inline(always)]
        unsafe fn quantize_to(self, &(scale, zp): &Self::QParams, dst: *mut u8) {
            let q = _mm256_div_ps(self, scale);
            let away = _mm256_or_ps(_mm256_and_ps(q, _mm256_set1_ps(-0.0)), _mm256_set1_ps(HALF_PRED));
            let r = _mm256_round_ps::<TRUNC>(_mm256_add_ps(q, away));
            let v = _mm256_min_ps(
                _mm256_max_ps(_mm256_add_ps(r, zp), _mm256_setzero_ps()),
                _mm256_set1_ps(255.0),
            );
            let v = _mm256_blendv_ps(v, zp, _mm256_cmp_ps::<_CMP_UNORD_Q>(self, self));
            let w = _mm256_cvttps_epi32(v);
            let w = _mm_packs_epi32(_mm256_castsi256_si128(w), _mm256_extracti128_si256::<1>(w));
            _mm_storel_epi64(dst.cast(), _mm_packus_epi16(w, w));
        }
    }

    /// The quantized lanes of `x` as i32 in `0..=255`.
    #[inline(always)]
    unsafe fn quantized_avx512(x: __m512, (scale, zp): (__m512, __m512)) -> __m512i {
        let q = _mm512_div_ps(x, scale);
        let sign = _mm512_and_si512(_mm512_castps_si512(q), _mm512_set1_epi32(i32::MIN));
        let away = _mm512_or_si512(sign, _mm512_set1_epi32(HALF_PRED.to_bits() as i32));
        let r = _mm512_roundscale_ps::<TRUNC>(_mm512_add_ps(q, _mm512_castsi512_ps(away)));
        let v = _mm512_min_ps(
            _mm512_max_ps(_mm512_add_ps(r, zp), _mm512_setzero_ps()),
            _mm512_set1_ps(255.0),
        );
        let v = _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x), v, zp);
        _mm512_cvttps_epi32(v)
    }

    /// AVX-512: `(scale, zero point)` broadcast.
    impl Lanes for __m512 {
        const LANES: usize = 16;
        type QParams = (__m512, __m512);

        #[inline(always)]
        unsafe fn qparams(scale: f32, zp: u8) -> Self::QParams {
            (_mm512_set1_ps(scale), _mm512_set1_ps(f32::from(zp)))
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            _mm512_add_ps(self, other)
        }
        #[inline(always)]
        unsafe fn relu(self) -> Self {
            _mm512_max_ps(self, _mm512_setzero_ps())
        }
        #[inline(always)]
        unsafe fn quantize_to(self, q: &Self::QParams, dst: *mut u8) {
            _mm_storeu_si128(dst.cast(), _mm512_cvtepi32_epi8(quantized_avx512(self, *q)));
        }
    }

    /// # Safety
    ///
    /// The host has AVX2; `src` and `dst` are equally long.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_avx2(src: &[f32], dst: &mut [u8], scale: f32, zp: u8) {
        let q = __m256::qparams(scale, zp);
        let full = src.len() / 8 * 8;
        for i in (0..full).step_by(8) {
            __m256::load(src.as_ptr().add(i)).quantize_to(&q, dst.as_mut_ptr().add(i));
        }
        for (d, &s) in dst[full..].iter_mut().zip(&src[full..]) {
            *d = super::quantize_value(s, scale, zp);
        }
    }

    /// # Safety
    ///
    /// The host has AVX-512F; `src` and `dst` are equally long.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn quantize_avx512(src: &[f32], dst: &mut [u8], scale: f32, zp: u8) {
        let q = __m512::qparams(scale, zp);
        // One masked step takes the tail: its dead lanes load zero and store
        // nothing.
        for i in (0..src.len()).step_by(16) {
            let live: __mmask16 = if src.len() - i >= 16 { !0 } else { (1 << (src.len() - i)) - 1 };
            let x = _mm512_maskz_loadu_ps(live, src.as_ptr().add(i));
            let bytes = dst.as_mut_ptr().add(i).cast();
            _mm512_mask_cvtepi32_storeu_epi8(bytes, live, quantized_avx512(x, q));
        }
    }
}

/// Elements per pool job of the parallel quantize: 64 KiB of
/// f32, a few microseconds of work, so a region's fixed cost stays small
/// against it and a tensor below one block runs on the caller.
const PAR_BLOCK: usize = 16 * 1024;

/// Runs `f` over `PAR_BLOCK`-element blocks of `src` and the matching blocks
/// of `dst` as jobs of `par`.
fn par_blocks<S: Sync, D: Copy + Send>(
    src: &[S],
    dst: &mut [D],
    par: &dyn Parallelism,
    f: impl Fn(&[S], &mut [D]) + Sync,
) {
    let n = src.len();
    assert_eq!(n, dst.len(), "length mismatch");
    let out = SendPtr(dst.as_mut_ptr());
    par.run(n.div_ceil(PAR_BLOCK), &|_, blocks| {
        for b in blocks {
            let (lo, hi) = (b * PAR_BLOCK, ((b + 1) * PAR_BLOCK).min(n));
            // SAFETY: blocks are disjoint element ranges inside `dst`.
            let d = unsafe { std::slice::from_raw_parts_mut(out.add(lo), hi - lo) };
            f(&src[lo..hi], d);
        }
    });
}

/// Quantizes a slice (`dst[i] = quantize_value(src[i])`) with the host's
/// widest SIMD body.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn quantize_slice(src: &[f32], dst: &mut [u8], scale: f32, zero_point: u8) {
    quantize_slice_par(src, dst, scale, zero_point, &Sequential, usize::MAX);
}

/// [`quantize_slice`] as fixed-size element blocks on `par`, with the SIMD
/// width capped at `max_lanes` f32 lanes (1 runs the scalar loop). Every
/// element is a function of its own input alone, so the result is
/// byte-identical for any `par` and any cap.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn quantize_slice_par(
    src: &[f32],
    dst: &mut [u8],
    scale: f32,
    zero_point: u8,
    par: &dyn Parallelism,
    max_lanes: usize,
) {
    let isa = QuantIsa::select(max_lanes);
    par_blocks(src, dst, par, |s, d| isa.quantize(s, d, scale, zero_point));
}

/// Dequantizes a slice (`dst[i] = dequantize_value(src[i])`).
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn dequantize_slice(src: &[u8], dst: &mut [f32], scale: f32, zero_point: u8) {
    assert_eq!(src.len(), dst.len(), "length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = dequantize_value(s, scale, zero_point);
    }
}

/// Quantizes an `f32` tensor into a `u8` tensor of the same shape and
/// layout (an element-wise, layout-oblivious op).
///
/// # Errors
///
/// Returns an error on shape/layout/dtype mismatch.
pub fn quantize_tensor(
    input: &Tensor,
    output: &mut Tensor,
    scale: f32,
    zero_point: u8,
) -> Result<()> {
    if input.dtype() != DType::F32 || output.dtype() != DType::U8 {
        return Err(KernelError::BadOperand(format!(
            "quantize needs f32 -> u8, got {} -> {}",
            input.dtype(),
            output.dtype()
        )));
    }
    if input.shape() != output.shape() || input.layout() != output.layout() {
        return Err(KernelError::BadOperand("quantize shape/layout mismatch".into()));
    }
    let n = input.num_elements();
    quantize_slice(&input.data()[..n], output.data_u8_mut(), scale, zero_point);
    Ok(())
}

/// Dequantizes a `u8` tensor into an `f32` tensor of the same shape and
/// layout.
///
/// # Errors
///
/// Returns an error on shape/layout/dtype mismatch.
pub fn dequantize_tensor(
    input: &Tensor,
    output: &mut Tensor,
    scale: f32,
    zero_point: u8,
) -> Result<()> {
    if input.dtype() != DType::U8 || output.dtype() != DType::F32 {
        return Err(KernelError::BadOperand(format!(
            "dequantize needs u8 -> f32, got {} -> {}",
            input.dtype(),
            output.dtype()
        )));
    }
    if input.shape() != output.shape() || input.layout() != output.layout() {
        return Err(KernelError::BadOperand("dequantize shape/layout mismatch".into()));
    }
    let n = output.num_elements();
    dequantize_slice(input.data_u8(), &mut output.data_mut()[..n], scale, zero_point);
    Ok(())
}

/// Reinterprets an f32 slot slice as bytes (all `4·len` of them), mutably.
///
/// The arena/planner hand out f32-slot storage; the int8 executor path uses
/// this to view planned scratch as the byte buffer the padding writer
/// fills.
pub fn f32_slice_as_u8_mut(s: &mut [f32]) -> &mut [u8] {
    // SAFETY: u8 has alignment 1 and the byte length equals the f32 length
    // times 4; the borrow is exclusive. Writing arbitrary bytes is fine —
    // every bit pattern is a valid u8 and also a valid f32.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<u8>(), s.len() * 4) }
}

/// Result of compile-time conv weight quantization.
pub struct QuantizedWeights {
    /// The quantized weight tensor: `I8` in `OihwIo4` (dense) or `OihwIo`
    /// (depthwise) layout, same logical shape as the source.
    pub tensor: Tensor,
    /// Per-output-channel weight scale `s_w[oc]` (`w ≈ w_q · s_w`).
    pub scales: Vec<f32>,
    /// Per-output-channel sum of all quantized weight values
    /// `Σ_{ic,kh,kw} w_q` — the compile-time bias correction term: with a
    /// zero-point-filled padding halo, the exact dequantized convolution is
    /// `m[oc]·(Σ a_q·w_q) − m[oc]·zp·tap_sums[oc]`.
    pub tap_sums: Vec<i64>,
}

/// Quantizes dense conv weights (`F32 Oihw`, logical `[O, I, kh, kw]`) to
/// per-output-channel symmetric i8 in the quad-packed [`Layout::OihwIo4`]
/// layout the int8 microkernels consume.
///
/// The quantized range is `±`[`DENSE_WEIGHT_QMAX`] (see module docs for
/// why). A channel of all-zero weights gets scale 1.0.
///
/// # Errors
///
/// Returns an error if the weights are not `F32 Oihw`, or `in_channels` is
/// not divisible by 4 (the quad-packing requirement; such convs stay f32).
pub fn quantize_dense_weights(weights: &Tensor, ic_bn: usize, oc_bn: usize) -> Result<QuantizedWeights> {
    quantize_conv_weights(weights, Layout::OihwIo4 { i: ic_bn, o: oc_bn }, DENSE_WEIGHT_QMAX)
}

/// Quantizes depthwise conv weights (`F32 Oihw`, logical `[C, 1, kh, kw]`)
/// to per-channel symmetric i8 in the `OihwIo { i: 1, o: c_bn }` layout the
/// depthwise int8 microkernel consumes, using the full ±127 range.
///
/// # Errors
///
/// Returns an error if the weights are not `F32 Oihw` or the channel count
/// is not divisible by `c_bn`.
pub fn quantize_dw_weights(weights: &Tensor, c_bn: usize) -> Result<QuantizedWeights> {
    quantize_conv_weights(weights, Layout::OihwIo { i: 1, o: c_bn }, DW_WEIGHT_QMAX)
}

fn quantize_conv_weights(weights: &Tensor, target: Layout, qmax: i32) -> Result<QuantizedWeights> {
    if weights.dtype() != DType::F32 || weights.layout() != Layout::Oihw {
        return Err(KernelError::BadOperand(format!(
            "weight quantization needs f32 OIHW weights, got {} {}",
            weights.dtype(),
            weights.layout()
        )));
    }
    let shape = weights.shape().clone();
    let d = shape.dims().to_vec();
    let (oc, taps) = (d[0], d[1] * d[2] * d[3]);
    let src = weights.data();

    let mut scales = vec![1.0f32; oc];
    for o in 0..oc {
        let mut maxabs = 0f32;
        for &w in &src[o * taps..(o + 1) * taps] {
            let a = w.abs();
            // NaN compares false, so a NaN weight leaves maxabs alone and
            // quantizes to 0 below — deterministic either way.
            if a > maxabs {
                maxabs = a;
            }
        }
        if maxabs > 0.0 {
            scales[o] = maxabs / qmax as f32;
        }
    }

    // `zeros_dtyped` validates shape-vs-layout (rank, divisibility, quads).
    let mut out = Tensor::zeros_dtyped(shape.clone(), target, DType::I8)
        .map_err(|e| KernelError::BadOperand(format!("weight quantization: {e}")))?;
    let mut tap_sums = vec![0i64; oc];
    {
        let dst = out.data_i8_mut();
        for o in 0..oc {
            let inv = 1.0 / scales[o];
            for t in 0..taps {
                let w = src[o * taps + t];
                let q = if w.is_nan() {
                    0
                } else {
                    (w * inv).round().clamp(-(qmax as f32), qmax as f32) as i32
                };
                tap_sums[o] += i64::from(q);
                let (i_, r, s) =
                    (t / (d[2] * d[3]), (t / d[3]) % d[2], t % d[3]);
                let off = target.offset(&shape, &[o, i_, r, s]);
                dst[off] = q as i8;
            }
        }
    }
    Ok(QuantizedWeights { tensor: out, scales, tap_sums })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_saturates_deterministically() {
        let scale = 0.5;
        let zp = 10u8;
        assert_eq!(quantize_value(f32::NAN, scale, zp), zp);
        assert_eq!(quantize_value(f32::INFINITY, scale, zp), 255);
        assert_eq!(quantize_value(f32::NEG_INFINITY, scale, zp), 0);
        assert_eq!(quantize_value(1e30, scale, zp), 255);
        assert_eq!(quantize_value(-1e30, scale, zp), 0);
        assert_eq!(quantize_value(0.0, scale, zp), zp);
        assert_eq!(quantize_value(1.0, scale, zp), 12);
        assert_eq!(quantize_value(-1.0, scale, zp), 8);
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_scale() {
        let scale = 0.1;
        let zp = 128u8;
        for i in -120..120 {
            let x = i as f32 * 0.1 * 0.09; // all within representable range
            let q = quantize_value(x, scale, zp);
            let back = dequantize_value(q, scale, zp);
            assert!((x - back).abs() <= scale / 2.0 + 1e-6, "x={x} back={back}");
        }
    }

    #[test]
    fn pool_blocks_cover_every_element_once() {
        // Three blocks and a ragged fourth on three threads: every element
        // is converted by exactly one job, whichever executor claims it.
        let n = 3 * PAR_BLOCK + 5;
        let src: Vec<f32> = (0..n).map(|i| (i % 509) as f32 * 0.37 - 90.0).collect();
        let pool = neocpu_threadpool::ThreadPool::new(3);
        let (scale, zp) = (0.7, 131u8);
        let mut seq = vec![0xAAu8; n];
        let mut par = vec![0x55u8; n];
        quantize_slice(&src, &mut seq, scale, zp);
        quantize_slice_par(&src, &mut par, scale, zp, &pool, usize::MAX);
        assert!(seq == par);
        assert!(seq.iter().zip(&src).all(|(&q, &x)| q == quantize_value(x, scale, zp)));
    }

    #[test]
    fn tensor_quantize_round_trip() {
        let t = Tensor::random([1, 8, 4, 4], Layout::NchwC(8), 3, 1.0).unwrap();
        let mut q = Tensor::zeros_dtyped([1, 8, 4, 4], Layout::NchwC(8), DType::U8).unwrap();
        let (scale, zp) = (2.0 / 255.0, 128u8);
        quantize_tensor(&t, &mut q, scale, zp).unwrap();
        let mut back = Tensor::zeros([1, 8, 4, 4], Layout::NchwC(8)).unwrap();
        dequantize_tensor(&q, &mut back, scale, zp).unwrap();
        assert!(t.max_abs_diff(&back) <= scale / 2.0 + 1e-6);
    }

    #[test]
    fn dense_weight_quantization_bounds_and_sums() {
        let w = Tensor::random([8, 8, 3, 3], Layout::Oihw, 7, 1.5).unwrap();
        let q = quantize_dense_weights(&w, 8, 8).unwrap();
        assert_eq!(q.tensor.dtype(), DType::I8);
        assert_eq!(q.tensor.layout(), Layout::OihwIo4 { i: 8, o: 8 });
        let mut sums = vec![0i64; 8];
        for (o, s) in sums.iter_mut().enumerate() {
            for i in 0..8 {
                for r in 0..3 {
                    for c in 0..3 {
                        let off = q.tensor.layout().offset(q.tensor.shape(), &[o, i, r, c]);
                        let v = q.tensor.data_i8()[off];
                        assert!(i32::from(v).abs() <= DENSE_WEIGHT_QMAX);
                        *s += i64::from(v);
                    }
                }
            }
        }
        assert_eq!(sums, q.tap_sums);
        // Per-channel scale reconstructs weights within half a step.
        for o in 0..8 {
            for i in 0..8 {
                for r in 0..3 {
                    for c in 0..3 {
                        let orig = w.at(&[o, i, r, c]);
                        let off = q.tensor.layout().offset(q.tensor.shape(), &[o, i, r, c]);
                        let back = f32::from(q.tensor.data_i8()[off]) * q.scales[o];
                        assert!((orig - back).abs() <= q.scales[o] / 2.0 + 1e-6);
                    }
                }
            }
        }
    }

    #[test]
    fn dense_weight_quantization_rejects_unquaddable_channels() {
        let w = Tensor::random([8, 3, 3, 3], Layout::Oihw, 9, 1.0).unwrap();
        assert!(quantize_dense_weights(&w, 3, 8).is_err());
    }

    #[test]
    fn dw_weight_quantization_uses_full_range() {
        let w = Tensor::random([16, 1, 3, 3], Layout::Oihw, 11, 1.0).unwrap();
        let q = quantize_dw_weights(&w, 8).unwrap();
        assert_eq!(q.tensor.layout(), Layout::OihwIo { i: 1, o: 8 });
        let maxq = q.tensor.data_i8().iter().map(|&v| i32::from(v).abs()).max().unwrap();
        assert!(maxq > DENSE_WEIGHT_QMAX, "depthwise should use ±127, saw max {maxq}");
        assert!(maxq <= DW_WEIGHT_QMAX);
    }

    #[test]
    fn all_zero_channel_gets_unit_scale() {
        let w = Tensor::zeros([4, 4, 1, 1], Layout::Oihw).unwrap();
        let q = quantize_dense_weights(&w, 4, 4).unwrap();
        assert_eq!(q.scales, vec![1.0; 4]);
        assert!(q.tensor.data_i8().iter().all(|&v| v == 0));
    }
}
