//! The SIMD strip template: one [`Simd`] trait over the vector register
//! type and one generic body per strip shape.
//!
//! Algorithm 1 is a single template whose ISA enters only through the
//! vector width, so each strip shape — dense and depthwise, output-stationary
//! and shift-reuse, f32 and int8 — is written once over `V: Simd` and
//! monomorphized per `(V, RN[, KW][, DW])` by the dispatch table in
//! [`super::microkernel`]. The bodies are `#[inline(always)]`: they only
//! become real code inside that table's `#[target_feature]` entry points,
//! which is what lets the intrinsics behind the trait inline.
//!
//! `RN` (and `KW`) are const so every accumulator index is a constant after
//! unrolling and the accumulator arrays live in registers, never on the
//! stack.
//!
//! # Safety
//!
//! Everything here is `unsafe fn` under one contract: the caller runs with
//! the CPU features of `V` enabled, and the [`Strip`] satisfies
//! [`super::microkernel::run_strip`] / [`super::microkernel::run_strip_i8`]
//! for a strip of exactly `RN` pixels with `geo.oc_bn == V::LANES`.

use std::arch::x86_64::*;

use super::microkernel::{Geo, Strip};
use crate::quantize::Lanes;

/// A SIMD register — [`Lanes`] (`LANES` f32 lanes, the `oc_bn` the register
/// type serves; load, store and the fused store's element-wise operations)
/// plus the handful of operations the strip bodies need. Adding an ISA is one
/// impl of each trait plus one row of the dispatch table.
pub(super) trait Simd: Lanes {
    /// The same register viewed as `LANES` i32 accumulators (int8 strips).
    type I32: Copy;

    unsafe fn splat(x: f32) -> Self;
    /// `self * b + acc`, fused.
    unsafe fn fma(self, b: Self, acc: Self) -> Self;

    unsafe fn zero_i32() -> Self::I32;
    /// Unaligned load of `4 * LANES` quad-packed i8 weights.
    unsafe fn load_quads(p: *const i8) -> Self::I32;
    /// `acc[l] += Σ_{j<4} quad.byte(j) · w[l].byte(j)` — u8 activations
    /// against i8 weights through `maddubs` + `madd`; exact while the
    /// weights stay within ±63 (pair sums below `i16::MAX`). With `VNNI`
    /// (AVX-512 only, and only where the caller has enabled `avx512vnni`) it
    /// is the one instruction `vpdpbusd`, which sums the four products in 32
    /// bits and so agrees under the same cap; both wrap on i32 overflow.
    unsafe fn dot_quads<const VNNI: bool>(acc: Self::I32, quad: u32, w: Self::I32) -> Self::I32;
    /// Loads `LANES` i8 and sign-extends each to an i32 lane.
    unsafe fn widen_i8(p: *const i8) -> Self::I32;
    /// `acc + x * w`, with `x` `LANES` u8 loaded and zero-extended to i32
    /// lanes: the depthwise widening multiply.
    unsafe fn mul_add_u8(acc: Self::I32, x: *const u8, w: Self::I32) -> Self::I32;
    /// Stores `mult * (acc as f32)`: the int8 strips' dequantizing store.
    unsafe fn store_scaled(acc: Self::I32, mult: Self, p: *mut f32);
}

/// AVX2 + FMA: 8 lanes, 16 YMM registers.
impl Simd for __m256 {
    type I32 = __m256i;

    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        _mm256_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn fma(self, b: Self, acc: Self) -> Self {
        _mm256_fmadd_ps(self, b, acc)
    }
    #[inline(always)]
    unsafe fn zero_i32() -> __m256i {
        _mm256_setzero_si256()
    }
    #[inline(always)]
    unsafe fn load_quads(p: *const i8) -> __m256i {
        _mm256_loadu_si256(p.cast())
    }
    #[inline(always)]
    unsafe fn dot_quads<const VNNI: bool>(acc: __m256i, quad: u32, w: __m256i) -> __m256i {
        debug_assert!(!VNNI, "the AVX2 row of the dispatch table has no VNNI variant");
        let pairs = _mm256_maddubs_epi16(_mm256_set1_epi32(quad as i32), w);
        _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)))
    }
    #[inline(always)]
    unsafe fn widen_i8(p: *const i8) -> __m256i {
        _mm256_cvtepi8_epi32(_mm_loadl_epi64(p.cast()))
    }
    #[inline(always)]
    unsafe fn mul_add_u8(acc: __m256i, x: *const u8, w: __m256i) -> __m256i {
        let x = _mm256_cvtepu8_epi32(_mm_loadl_epi64(x.cast()));
        _mm256_add_epi32(acc, _mm256_mullo_epi32(x, w))
    }
    #[inline(always)]
    unsafe fn store_scaled(acc: __m256i, mult: Self, p: *mut f32) {
        _mm256_storeu_ps(p, _mm256_mul_ps(_mm256_cvtepi32_ps(acc), mult))
    }
}

/// AVX-512: 16 lanes, 32 ZMM registers. The f32 operations need only F; the
/// 512-bit `maddubs`/`madd` of the int8 dot need BW and its one-instruction
/// form VNNI, which the dispatch table therefore asks for on the int8 entry
/// points alone.
impl Simd for __m512 {
    type I32 = __m512i;

    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        _mm512_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn fma(self, b: Self, acc: Self) -> Self {
        _mm512_fmadd_ps(self, b, acc)
    }
    #[inline(always)]
    unsafe fn zero_i32() -> __m512i {
        _mm512_setzero_si512()
    }
    #[inline(always)]
    unsafe fn load_quads(p: *const i8) -> __m512i {
        _mm512_loadu_si512(p.cast())
    }
    #[inline(always)]
    unsafe fn dot_quads<const VNNI: bool>(acc: __m512i, quad: u32, w: __m512i) -> __m512i {
        let quad = _mm512_set1_epi32(quad as i32);
        if VNNI {
            return _mm512_dpbusd_epi32(acc, quad, w);
        }
        let pairs = _mm512_maddubs_epi16(quad, w);
        _mm512_add_epi32(acc, _mm512_madd_epi16(pairs, _mm512_set1_epi16(1)))
    }
    #[inline(always)]
    unsafe fn widen_i8(p: *const i8) -> __m512i {
        _mm512_cvtepi8_epi32(_mm_loadu_si128(p.cast()))
    }
    #[inline(always)]
    unsafe fn mul_add_u8(acc: __m512i, x: *const u8, w: __m512i) -> __m512i {
        let x = _mm512_cvtepu8_epi32(_mm_loadu_si128(x.cast()));
        _mm512_add_epi32(acc, _mm512_mullo_epi32(x, w))
    }
    #[inline(always)]
    unsafe fn store_scaled(acc: __m512i, mult: Self, p: *mut f32) {
        _mm512_storeu_ps(p, _mm512_mul_ps(_mm512_cvtepi32_ps(acc), mult))
    }
}

/// How an f32 strip walks its input: `(elements per padded-input pixel,
/// input sub-channels reduced per kernel tap, input-channel chunks)`.
///
/// A dense strip reduces over the `ic_bn` sub-channels of every chunk. A
/// depthwise strip (`DW`) has no reduction — each channel of the block pairs
/// with its own filter, and the caller hands it one channel chunk — so per
/// tap it sees a single "sub-channel": the pixel's whole `LANES`-wide vector.
#[inline(always)]
fn walk<V: Simd, const DW: bool>(geo: &Geo) -> (usize, usize, usize) {
    if DW {
        (V::LANES, 1, 1)
    } else {
        (geo.ic_bn, geo.ic_bn, geo.ic_chunks)
    }
}

/// The input operand of one FMA: dense strips broadcast the sub-channel's
/// scalar against its kernel vector, depthwise strips multiply the pixel's
/// vector element-wise.
#[inline(always)]
unsafe fn fetch<V: Simd, const DW: bool>(p: *const f32) -> V {
    if DW {
        V::load(p)
    } else {
        V::splat(*p)
    }
}

/// Output-stationary f32 strip — the Figure 1 register scheme: `RN`
/// accumulators stay resident while one kernel vector and one input operand
/// stream through.
#[inline(always)]
pub(super) unsafe fn os<V: Simd, const RN: usize, const DW: bool>(
    geo: &Geo,
    strip: &Strip<f32, f32>,
) {
    debug_assert!(geo.oc_bn == V::LANES && strip.rn == RN && geo.depthwise == DW);
    let Geo { ph, pw, kh, kw, sw, .. } = *geo;
    let Strip { input, weights, out, ih0, iw0, .. } = *strip;
    let (px, red, chunks) = walk::<V, DW>(geo);
    let mut acc = [V::splat(0.0); RN];
    for icc in 0..chunks {
        let in_c = input.add(icc * ph * pw * px);
        let w_c = weights.add(icc * kh * kw * red * V::LANES);
        for e in 0..kh * kw {
            let (r, s) = (e / kw, e % kw);
            let in_rs = in_c.add(((ih0 + r) * pw + iw0 + s) * px);
            let w_rs = w_c.add(e * red * V::LANES);
            // Each reduced sub-channel's kernel vector against that
            // sub-channel's input operand, per strip pixel.
            for ici in 0..red {
                let wv = V::load(w_rs.add(ici * V::LANES));
                for i in 0..RN {
                    acc[i] = fetch::<V, DW>(in_rs.add(i * sw * px + ici)).fma(wv, acc[i]);
                }
            }
        }
    }
    for i in 0..RN {
        acc[i].store(out.add(i * V::LANES));
    }
}

/// Shift-reuse f32 strip (`geo.sw == 1`, `geo.kw == KW`): the `KW` kernel
/// vectors of a row stay resident and each of the `RN + KW - 1` overlapping
/// input columns is fetched once per `(row, sub-channel)` and reused by
/// every tap that touches it — tap `s` of pixel `i` reads column `i + s`.
#[inline(always)]
pub(super) unsafe fn sr<V: Simd, const RN: usize, const KW: usize, const DW: bool>(
    geo: &Geo,
    strip: &Strip<f32, f32>,
) {
    debug_assert!(geo.oc_bn == V::LANES && strip.rn == RN && geo.depthwise == DW);
    debug_assert!(geo.kw == KW && geo.sw == 1);
    let Geo { ph, pw, kh, .. } = *geo;
    let Strip { input, weights, out, ih0, iw0, .. } = *strip;
    let (px, red, chunks) = walk::<V, DW>(geo);
    let mut acc = [V::splat(0.0); RN];
    for icc in 0..chunks {
        let in_c = input.add(icc * ph * pw * px);
        let w_c = weights.add(icc * kh * KW * red * V::LANES);
        for r in 0..kh {
            let in_r = in_c.add(((ih0 + r) * pw + iw0) * px);
            let w_r = w_c.add(r * KW * red * V::LANES);
            for ici in 0..red {
                let mut wv = [V::splat(0.0); KW];
                for s in 0..KW {
                    wv[s] = V::load(w_r.add((s * red + ici) * V::LANES));
                }
                for col in 0..RN + KW - 1 {
                    let x = fetch::<V, DW>(in_r.add(col * px + ici));
                    // Constant-bound tap loop with guards instead of a
                    // runtime `s_lo..=s_hi` range: both loops fully unroll,
                    // so `acc` indexing is constant and the accumulators
                    // stay in registers instead of spilling as an array
                    // (measured 4× slower).
                    for s in 0..KW {
                        if s <= col && col - s < RN {
                            acc[col - s] = x.fma(wv[s], acc[col - s]);
                        }
                    }
                }
            }
        }
    }
    for i in 0..RN {
        acc[i].store(out.add(i * V::LANES));
    }
}

/// Int8 dense strip: `RN` i32 accumulators. Per (tap, quad, pixel) the four
/// adjacent activation bytes are broadcast and dotted against
/// `4 * LANES` contiguous quad-packed weight bytes — `maddubs`, `madd`, `add`
/// and a broadcast (with `VNNI` one `vpdpbusd` and a broadcast, see
/// [`Simd::dot_quads`]) for `4 * LANES` MACs, against an FMA and a broadcast
/// for `LANES` MACs in the f32 strip, which is where the int8 throughput
/// comes from. Output-stationary only. `geo.ic_bn` must be divisible by 4.
#[inline(always)]
pub(super) unsafe fn i8_dense<V: Simd, const RN: usize, const VNNI: bool>(
    geo: &Geo,
    strip: &Strip<u8, i8>,
    mult: *const f32,
) {
    debug_assert!(geo.oc_bn == V::LANES && strip.rn == RN);
    let Geo { ic_chunks, ic_bn, ph, pw, kh, kw, sw, .. } = *geo;
    let Strip { input: in_n, weights: w_oc, out, ih0, iw0, .. } = *strip;
    let mut acc = [V::zero_i32(); RN];
    for icc in 0..ic_chunks {
        let in_c = in_n.add(icc * ph * pw * ic_bn);
        let w_c = w_oc.add(icc * kh * kw * ic_bn * V::LANES);
        for e in 0..kh * kw {
            let (r, s) = (e / kw, e % kw);
            let in_rs = in_c.add(((ih0 + r) * pw + iw0 + s) * ic_bn);
            let w_rs = w_c.add(e * ic_bn * V::LANES);
            // A quad of input sub-channels at a time.
            for q in 0..ic_bn / 4 {
                let wv = V::load_quads(w_rs.add(q * 4 * V::LANES));
                for i in 0..RN {
                    let quad = in_rs.add(i * sw * ic_bn + q * 4).cast::<u32>().read_unaligned();
                    acc[i] = V::dot_quads::<VNNI>(acc[i], quad, wv);
                }
            }
        }
    }
    let mv = V::load(mult);
    for i in 0..RN {
        V::store_scaled(acc[i], mv, out.add(i * V::LANES));
    }
}

/// Int8 depthwise strip: widen `LANES` u8 activations and `LANES` i8
/// weights to i32 lanes, multiply, add. The win over f32 here is the 4×
/// smaller activation traffic, not instruction count. Output-stationary
/// only; full ±127 weight range (no `maddubs` headroom needed).
#[inline(always)]
pub(super) unsafe fn i8_dw<V: Simd, const RN: usize>(
    geo: &Geo,
    strip: &Strip<u8, i8>,
    mult: *const f32,
) {
    debug_assert!(geo.oc_bn == V::LANES && strip.rn == RN);
    let Geo { pw, kh, kw, sw, .. } = *geo;
    let Strip { input: in_c, weights: w_c, out, ih0, iw0, .. } = *strip;
    let mut acc = [V::zero_i32(); RN];
    for r in 0..kh {
        for s in 0..kw {
            let in_rs = in_c.add(((ih0 + r) * pw + iw0 + s) * V::LANES);
            let wv = V::widen_i8(w_c.add((r * kw + s) * V::LANES));
            for i in 0..RN {
                acc[i] = V::mul_add_u8(acc[i], in_rs.add(i * sw * V::LANES), wv);
            }
        }
    }
    let mv = V::load(mult);
    for i in 0..RN {
        V::store_scaled(acc[i], mv, out.add(i * V::LANES));
    }
}
