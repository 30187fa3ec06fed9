//! Strip dispatch for the blocked convolution templates.
//!
//! A *strip* is `rn` consecutive output pixels of one output row within one
//! output-channel chunk. Per [`Dataflow`] the strip keeps different
//! operands register-resident:
//!
//! * **Output-stationary** (Figure 1 of the paper) — `rn` accumulators stay
//!   resident; one kernel vector and one broadcast input scalar stream
//!   through.
//! * **Shift-reuse** (stride-1 only) — the `kw` kernel vectors of one
//!   kernel row stay resident too, and each overlapping input column is
//!   broadcast once per kernel row and reused across the `kw` taps that
//!   touch it (`rn + kw - 1` broadcasts per row instead of `rn × kw`).
//!
//! The SIMD strips are the generic bodies of [`super::simd`], instantiated
//! by the one dispatch table below ([`simd_tiers!`]): a tier per vector
//! width, and per tier and element type the strip lengths (and, for
//! shift-reuse, kernel widths) that are monomorphized so the accumulators
//! actually live in registers. A row is cut into those lengths by its [`StripPlan`] —
//! `reg_n`-long strips, then the remainder greedily in the tier's own
//! lengths — so on a block a tier serves every pixel runs a SIMD strip.
//! Blocks no tier serves and kernel widths without an entry run the
//! runtime-`rn` scalar strips in this file, which accumulate in memory and
//! double as the portable tier (any `oc_bn`, NEON-class targets included) and
//! as the reference the SIMD strips are tested against.

use super::{Conv2dParams, ConvSchedule, Dataflow};
use crate::epilogue::RowEpilogue;

/// What every strip invocation of one convolution call shares: the loop
/// geometry, the schedule's strip knobs and the tier they dispatch to.
#[derive(Debug, Clone, Copy)]
pub(super) struct Geo {
    /// Number of input-channel chunks (`C / ic_bn`); unused by depthwise
    /// strips, whose caller iterates channel chunks.
    pub ic_chunks: usize,
    /// Input-channel block size (`x`).
    pub ic_bn: usize,
    /// Output-channel block size (`y`); equals `ic_bn` when depthwise.
    pub oc_bn: usize,
    /// Padded input height — 1 for a pointwise workload, whose whole plane
    /// is one strip row ([`Conv2dParams::strip_row`]).
    pub ph: usize,
    /// Padded input width (the plane's pixel count when pointwise).
    pub pw: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Horizontal stride.
    pub sw: usize,
    /// Depthwise workload: each channel of the block pairs with its own
    /// `kh×kw` filter, so strips multiply an input *vector* element-wise
    /// against the tap's kernel vector instead of broadcasting a scalar.
    pub depthwise: bool,
    /// Strip dataflow; shift-reuse requires `sw == 1` (validated at the
    /// schedule level).
    pub dataflow: Dataflow,
    /// The SIMD tier serving `oc_bn` on this host, if any.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    isa: Isa,
    /// The strip lengths that tier holds for this call, largest first; empty
    /// when the scalar strips run.
    pub strips: &'static [usize],
}

impl Geo {
    /// `max_lanes` lets a `CpuTarget` descriptor *narrow* the tier choice
    /// (e.g. model an AVX2-only EPYC or a NEON-class core on an AVX-512
    /// host); `int8` says the call runs the int8 strips, which some tiers
    /// need extra CPU features for.
    pub(super) fn new(p: &Conv2dParams, s: &ConvSchedule, max_lanes: usize, int8: bool) -> Self {
        let isa = select_isa(s.oc_bn, max_lanes, int8);
        let (ph, pw) = (p.in_h + 2 * p.pad_h, p.in_w + 2 * p.pad_w);
        // Input and output pixels of a pointwise workload are contiguous
        // across rows, so the strips see one `ph·pw`-pixel row.
        let (ph, pw) = if p.is_pointwise() { (1, ph * pw) } else { (ph, pw) };
        Self {
            ic_chunks: p.in_channels / s.ic_bn,
            ic_bn: s.ic_bn,
            oc_bn: s.oc_bn,
            ph,
            pw,
            kh: p.kernel_h,
            kw: p.kernel_w,
            sw: p.stride_w,
            depthwise: p.is_depthwise(),
            dataflow: s.dataflow,
            isa,
            strips: match isa {
                Isa::Scalar => &[],
                _ => strip_lengths(s.oc_bn, s.dataflow, p.kernel_w, int8).unwrap_or(&[]),
            },
        }
    }
}

/// The operands of one strip invocation.
///
/// Dense: `input` is the padded input of the current batch item
/// (`[ic_chunks, ph, pw, ic_bn]`), `weights` the weight block of the current
/// output-channel chunk (`[ic_chunks, kh, kw, ic_bn, oc_bn]`; quad-packed
/// `[ic_chunks, kh, kw, ic_bn/4, oc_bn, 4]` for int8). Depthwise: `input` is
/// the padded input of the current (batch, channel-chunk) pair
/// (`[ph, pw, c_bn]`), `weights` that chunk's filter block (`[kh, kw, c_bn]`).
pub(super) struct Strip<A, W> {
    pub input: *const A,
    pub weights: *const W,
    /// Output pixels in the strip (`≥ 1`, inside the output row).
    pub rn: usize,
    /// First element of the strip: `rn * oc_bn` contiguous floats, fully
    /// overwritten.
    pub out: *mut f32,
    /// Padded-input row of the strip's top-left receptive field.
    pub ih0: usize,
    /// Padded-input column of the strip's top-left receptive field.
    pub iw0: usize,
}

/// One SIMD tier of the strip dispatch table, as data.
struct Tier {
    /// f32 lanes per vector: the one `oc_bn` the tier serves.
    lanes: usize,
    /// Output-stationary strip lengths, largest first (any kernel width).
    os: &'static [usize],
    /// Shift-reuse strips: `(kernel width, strip lengths largest first)`.
    sr: &'static [(usize, &'static [usize])],
    /// Int8 strip lengths (output-stationary, any kernel width).
    i8: &'static [usize],
}

/// Strip lengths with a SIMD strip for `oc_bn` under dataflow `df` at kernel
/// width `kw` — of the int8 strips when `int8`, which are output-stationary
/// only — largest first; `None` when no tier serves the block (it runs the
/// scalar strips).
pub(super) fn strip_lengths(
    oc_bn: usize,
    df: Dataflow,
    kw: usize,
    int8: bool,
) -> Option<&'static [usize]> {
    let tier = TIERS.iter().find(|t| t.lanes == oc_bn)?;
    Some(match (df, int8) {
        (Dataflow::OutputStationary, false) => tier.os,
        (Dataflow::OutputStationary, true) => tier.i8,
        (Dataflow::ShiftReuse, false) => {
            tier.sr.iter().find(|(k, _)| *k == kw).map_or(&[], |(_, l)| l)
        }
        (Dataflow::ShiftReuse, true) => &[],
    })
}

/// The strips one strip row is cut into: an allocation-free iterator over
/// their lengths, which sum to the row's width.
///
/// Strips of `reg_n` pixels first, then the remainder greedily in the
/// lengths of `table` (a tier's strip lengths for the call, largest first).
/// Every table ends in 1, so with a non-empty table the plan holds table
/// lengths only — no pixel is left to a scalar strip; a `reg_n` the table
/// lacks is itself replaced by the longest length below it. With an empty
/// table (the runtime-`rn` scalar strips take any length) the remainder is
/// one strip.
#[derive(Debug, Clone)]
pub struct StripPlan {
    table: &'static [usize],
    full: usize,
    left: usize,
}

impl StripPlan {
    pub(super) fn new(table: &'static [usize], reg_n: usize, width: usize) -> Self {
        Self { table, full: longest(table, reg_n.max(1)), left: width }
    }
}

/// The longest strip of at most `cap` pixels: from `table` (largest first),
/// or `cap` itself where there is none.
fn longest(table: &[usize], cap: usize) -> usize {
    table.iter().copied().find(|&l| l <= cap).unwrap_or(cap)
}

impl Iterator for StripPlan {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        let rn = if self.left >= self.full { self.full } else { longest(self.table, self.left) };
        self.left -= rn;
        Some(rn)
    }
}

/// Generates one `#[target_feature]` entry point — the place a generic body
/// (a strip of [`super::simd`], the fused store) becomes code for one tier's
/// register type — with the CPU features of every bracketed list enabled.
#[cfg(target_arch = "x86_64")]
macro_rules! entry {
    ($([$($feat:tt),*])+ fn $name:ident<$($c:ident),* $(; $b:ident)?>($($arg:ident: $t:ty),*)
     $body:block) => {
        $($(#[target_feature(enable = $feat)])*)+
        pub(super) unsafe fn $name<$(const $c: usize,)* $(const $b: bool)?>($($arg: $t),*) $body
    };
}

/// Whether the host has every CPU feature of every bracketed list.
#[cfg(target_arch = "x86_64")]
macro_rules! has {
    ($([$($feat:tt),*])+) => { true $($(&& std::arch::is_x86_feature_detected!($feat))*)+ };
}

/// The int8 strips of one tier, dispatched on `(depthwise, rn)` over the
/// tier's int8 strip lengths; `false` for a length it does not hold.
#[cfg(target_arch = "x86_64")]
macro_rules! i8_strips {
    ($g:ident, $strip:ident, $m:ident, $module:ident, $dense:ident, [$($rn:literal),+]) => {
        match ($g.depthwise, $strip.rn) {
            $((false, $rn) => $module::$dense::<$rn>($g, $strip, $m),
            (true, $rn) => $module::i8_dw::<$rn>($g, $strip, $m),)+
            _ => return false,
        }
    };
}

/// The strip dispatch table. Each row is one SIMD tier: the [`Isa`] variant
/// and entry-point module it generates, its register type and lane count,
/// the CPU features [`select_isa`] requires and the entry points enable
/// (`+ int8 […]` are the ones only the int8 strips add, so an f32 convolution
/// does not ask for them; `+ vnni Variant […]` the ones that, on a host that
/// has them, turn the tier's u8×i8 dot into one `vpdpbusd` — int8 calls then
/// run as `Variant`, which has no f32 strips of its own), and the strips it
/// monomorphizes — `os [reg_n…]` for output-stationary (runtime kernel
/// width), `sr [kw: [reg_n…]]` for shift-reuse and `i8 [reg_n…]` for the
/// int8 strips. The lists are per element type because the register budget
/// is: a listed strip keeps its accumulators in registers, and what else an
/// int8 strip holds live differs from the f32 one. Each tier also compiles the
/// fused store ([`RowEpilogue::apply`]) for its registers, so a call's
/// epilogue runs on the tier its strips run on. The candidate generator
/// ([`super::reg_n_candidates`]), [`super::simd_strip_exists`],
/// [`super::strip_plan`] and the dispatcher all read this table, so a
/// schedule the search can emit always has the strip it names.
macro_rules! simd_tiers {
    ($($isa:ident = $module:ident: $v:ident, lanes $lanes:literal,
       features $feats:tt + int8 $i8feats:tt $(+ vnni $visa:ident $vnni:tt)?,
       os [$($os:literal),+], sr [$($kw:literal: [$($sr:literal),+]),+], i8 $i8:tt;)+) => {
        const TIERS: &[Tier] = &[$(Tier {
            lanes: $lanes,
            os: &[$($os),+],
            sr: &[$(($kw, &[$($sr),+])),+],
            i8: &$i8,
        }),+];

        /// Which strip implementation a convolution call dispatches to.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
        enum Isa {
            Scalar,
            $($isa, $($visa,)?)+
        }

        /// Picks the tier serving this `oc_bn`, if the host has its
        /// features (the int8 ones too when `int8`) and `max_lanes` admits
        /// it — for an int8 call its VNNI variant where the host has that.
        fn select_isa(oc_bn: usize, max_lanes: usize, int8: bool) -> Isa {
            #[cfg(target_arch = "x86_64")]
            {
                $(if oc_bn == $lanes
                    && max_lanes >= $lanes
                    && has!($feats)
                    && (!int8 || has!($i8feats))
                {
                    $(if int8 && has!($vnni) {
                        return Isa::$visa;
                    })?
                    return Isa::$isa;
                })+
            }
            let _ = (oc_bn, max_lanes, int8);
            Isa::Scalar
        }

        /// The tiers' entry points, and the dispatch onto them.
        #[cfg(target_arch = "x86_64")]
        mod tiers {
            use super::super::{simd, Dataflow};
            use super::{Geo, Isa, RowEpilogue, Strip};

            $(mod $module {
                use std::arch::x86_64::$v;

                use super::{simd, Geo, RowEpilogue, Strip};

                entry!($feats fn os<RN; DW>(g: &Geo, strip: &Strip<f32, f32>) {
                    simd::os::<$v, RN, DW>(g, strip)
                });
                entry!($feats fn sr<RN, KW; DW>(g: &Geo, strip: &Strip<f32, f32>) {
                    simd::sr::<$v, RN, KW, DW>(g, strip)
                });
                entry!($feats $i8feats fn i8_dense<RN>(g: &Geo, strip: &Strip<u8, i8>, m: *const f32) {
                    simd::i8_dense::<$v, RN, false>(g, strip, m)
                });
                entry!($feats $i8feats fn i8_dw<RN>(g: &Geo, strip: &Strip<u8, i8>, m: *const f32) {
                    simd::i8_dw::<$v, RN>(g, strip, m)
                });
                $(entry!($feats $i8feats $vnni
                    fn i8_dense_vnni<RN>(g: &Geo, strip: &Strip<u8, i8>, m: *const f32) {
                    simd::i8_dense::<$v, RN, true>(g, strip, m)
                });)?
                entry!($feats fn epilogue<>(
                    e: &RowEpilogue<'_>, px: &mut [f32], bytes: &mut [u8], chunk: usize, off: usize
                ) {
                    e.apply::<$v>($lanes, px, bytes, chunk, off)
                });
            })+

            /// Runs the SIMD f32 strip the table holds for this call;
            /// `false` when it has none.
            ///
            /// # Safety
            ///
            /// [`super::run_strip`]'s contract; `g.isa` coming from
            /// [`super::select_isa`] is what guarantees the tier's CPU
            /// features are available.
            #[inline]
            pub(super) unsafe fn strip_f32(g: &Geo, strip: &Strip<f32, f32>) -> bool {
                use Dataflow::{OutputStationary as Os, ShiftReuse as Sr};
                match (g.isa, g.depthwise, g.dataflow, strip.rn, g.kw) {
                    $($((Isa::$isa, false, Os, $os, _) => $module::os::<$os, false>(g, strip),
                    (Isa::$isa, true, Os, $os, _) => $module::os::<$os, true>(g, strip),)+
                    $($((Isa::$isa, false, Sr, $sr, $kw) => $module::sr::<$sr, $kw, false>(g, strip),
                    (Isa::$isa, true, Sr, $sr, $kw) => $module::sr::<$sr, $kw, true>(g, strip),)+)+)+
                    _ => return false,
                }
                true
            }

            /// Runs the SIMD int8 strip the table holds for this call;
            /// `false` when it has none.
            ///
            /// # Safety
            ///
            /// As [`strip_f32`], under [`super::run_strip_i8`]'s contract.
            #[inline]
            pub(super) unsafe fn strip_i8(g: &Geo, strip: &Strip<u8, i8>, m: *const f32) -> bool {
                match g.isa {
                    $(Isa::$isa => i8_strips!(g, strip, m, $module, i8_dense, $i8),
                    $(Isa::$visa => i8_strips!(g, strip, m, $module, i8_dense_vnni, $i8),)?)+
                    Isa::Scalar => return false,
                }
                true
            }

            /// Runs the fused store on the registers of the call's tier;
            /// `false` when its strips run scalar.
            ///
            /// # Safety
            ///
            /// `g.isa` comes from [`super::select_isa`]; [`RowEpilogue::apply`]'s
            /// for the other operands, with `g.oc_bn` as the block.
            #[inline]
            pub(super) unsafe fn epilogue(
                g: &Geo,
                e: &RowEpilogue<'_>,
                px: &mut [f32],
                bytes: &mut [u8],
                chunk: usize,
                off: usize,
            ) -> bool {
                match g.isa {
                    $(Isa::$isa $(| Isa::$visa)? => $module::epilogue(e, px, bytes, chunk, off),)+
                    Isa::Scalar => return false,
                }
                true
            }
        }
    };
}

// Strip lengths are capped by the register file. An output-stationary f32
// strip keeps its accumulators, one kernel vector and the pipelined broadcast
// temps live: 12 is the widest that stays in the 16 YMM registers (14
// nominally fits but measurably spills), 28 in the 32 ZMM registers as
// §3.1.1 describes. A shift-reuse strip keeps `reg_n` accumulators plus
// `kw + 1` resident vectors and runs a full file without spilling.
//
// The int8 strips hold more per accumulator — the quad broadcast, the
// `maddubs` pair sums and its `ones` multiplicand, or `i8_dw`'s widened
// operands — and a 28-pixel AVX-512 one spills with either dot (1×1
// 512→512@14²: 717 µs at 28 against 448 at 14; `layer_rates` ends with the
// sweep), so their list stops at 16.
//
// 14 and 7 are the ImageNet divisors: the paper's schedules pick a `reg_n`
// that divides `out_width`, and the 14- and 7-wide maps (where ResNet-50 and
// MobileNet keep most of their layers) are no sum of few powers of two — a
// padded 3×3 row there runs as one strip instead of 8+4+2 or 4+2+1.
simd_tiers! {
    Avx2 = avx2: __m256, lanes 8, features ["avx2", "fma"] + int8 [],
        os [12, 8, 7, 4, 2, 1],
        sr [3: [12, 8, 7, 4, 2, 1], 5: [10, 8, 4, 2, 1], 7: [8, 4, 2, 1]],
        i8 [12, 8, 7, 4, 2, 1];
    Avx512 = avx512: __m512, lanes 16,
        features ["avx512f"] + int8 ["avx512bw"] + vnni Avx512Vnni ["avx512vnni"],
        os [28, 16, 14, 8, 7, 4, 2, 1],
        sr [3: [28, 16, 14, 8, 7, 4, 2, 1], 5: [24, 16, 8, 4, 2, 1], 7: [24, 16, 8, 4, 2, 1]],
        i8 [16, 14, 8, 7, 4, 2, 1];
}

/// Runs one f32 output strip, dense or depthwise per `geo.depthwise`.
///
/// # Safety
///
/// `strip` must be valid for the extents its docs give under `geo`, and
/// `strip.out` must not alias the inputs.
pub(super) unsafe fn run_strip(geo: &Geo, strip: &Strip<f32, f32>) {
    debug_assert!(geo.dataflow != Dataflow::ShiftReuse || geo.sw == 1);
    #[cfg(target_arch = "x86_64")]
    if tiers::strip_f32(geo, strip) {
        return;
    }
    // The dataflow is a register-residency scheme; with the accumulators in
    // memory there is nothing to schedule, so one scalar strip serves all.
    // The scalar strips are `#[inline(never)]`: inlined here, their register
    // pressure gives this dispatcher a spilling prologue on the SIMD path
    // too, which a nine-tap depthwise strip measurably feels.
    if geo.depthwise {
        dw_strip_scalar(geo, strip)
    } else {
        strip_scalar(geo, strip)
    }
}

/// Runs one int8 output strip: `rn · oc_bn` f32 values `m[oc] · acc[oc]`
/// with exact i32 accumulation, so every tier is bit-identical. `mult`
/// points at the chunk's `oc_bn` multipliers.
///
/// # Safety
///
/// As [`run_strip`]; additionally `mult` must be valid for `geo.oc_bn`
/// floats and dense strips need `geo.ic_bn` divisible by 4.
pub(super) unsafe fn run_strip_i8(geo: &Geo, strip: &Strip<u8, i8>, mult: *const f32) {
    #[cfg(target_arch = "x86_64")]
    if tiers::strip_i8(geo, strip, mult) {
        return;
    }
    if geo.depthwise {
        dw_strip_i8_scalar(geo, strip, mult)
    } else {
        strip_i8_scalar(geo, strip, mult)
    }
}

/// Applies `e`, the call's epilogue, to what a strip of it just stored
/// ([`RowEpilogue::apply`]'s operands), on the registers the strips ran on.
pub(super) fn run_epilogue(
    geo: &Geo,
    e: &RowEpilogue<'_>,
    px: &mut [f32],
    bytes: &mut [u8],
    chunk: usize,
    off: usize,
) {
    if e.is_identity() {
        return;
    }
    // SAFETY: `select_isa` names a tier only for the `oc_bn` that is its lane
    // count and on a host with its CPU features; `f32` lanes need neither.
    unsafe {
        #[cfg(target_arch = "x86_64")]
        if tiers::epilogue(geo, e, px, bytes, chunk, off) {
            return;
        }
        e.apply::<f32>(geo.oc_bn, px, bytes, chunk, off)
    }
}

/// Portable dense strip: accumulates directly into the (zero-initialized)
/// output.
///
/// # Safety
///
/// See [`run_strip`].
#[inline(never)]
unsafe fn strip_scalar(geo: &Geo, strip: &Strip<f32, f32>) {
    let Geo { ic_chunks, ic_bn, oc_bn, ph, pw, kh, kw, sw, .. } = *geo;
    let Strip { input: in_n, weights: w_oc, rn, out, ih0, iw0 } = *strip;
    // Zero the strip; the SIMD paths keep sums in registers instead.
    for i in 0..rn * oc_bn {
        // SAFETY: `out` is valid for `rn * oc_bn` elements per contract.
        unsafe { *out.add(i) = 0.0 };
    }
    for icc in 0..ic_chunks {
        let in_c = in_n.add(icc * ph * pw * ic_bn);
        let w_c = w_oc.add(icc * kh * kw * ic_bn * oc_bn);
        for e in 0..kh * kw {
            let (r, s) = (e / kw, e % kw);
            let in_rs = in_c.add(((ih0 + r) * pw + iw0 + s) * ic_bn);
            let w_rs = w_c.add(e * ic_bn * oc_bn);
            // Every input sub-channel against its `oc_bn` kernel values,
            // accumulated into each strip pixel.
            for ici in 0..ic_bn {
                let w_vec = w_rs.add(ici * oc_bn);
                for i in 0..rn {
                    // SAFETY: strip pixel `i` reads input at column offset
                    // `i * sw`, in bounds because the padded width covers
                    // `(rn-1)*sw + kw`.
                    let x = unsafe { *in_rs.add(i * sw * ic_bn + ici) };
                    let o = out.add(i * oc_bn);
                    for oci in 0..oc_bn {
                        // SAFETY: `out` strip holds `rn * oc_bn` elements.
                        unsafe { *o.add(oci) += x * *w_vec.add(oci) };
                    }
                }
            }
        }
    }
}

/// Portable depthwise strip.
///
/// # Safety
///
/// See [`run_strip`].
#[inline(never)]
unsafe fn dw_strip_scalar(geo: &Geo, strip: &Strip<f32, f32>) {
    let Geo { ic_bn: c_bn, pw, kh, kw, sw, .. } = *geo;
    let Strip { input: in_c, weights: w_c, rn, out, ih0, iw0 } = *strip;
    for i in 0..rn * c_bn {
        // SAFETY: `out` is valid for `rn * c_bn` elements per contract.
        unsafe { *out.add(i) = 0.0 };
    }
    for e in 0..kh * kw {
        let (r, s) = (e / kw, e % kw);
        let in_rs = in_c.add(((ih0 + r) * pw + iw0 + s) * c_bn);
        let w_rs = w_c.add(e * c_bn);
        for i in 0..rn {
            let px = in_rs.add(i * sw * c_bn);
            let o = out.add(i * c_bn);
            for ci in 0..c_bn {
                // SAFETY: pointer extents per the run_strip contract.
                unsafe { *o.add(ci) += *px.add(ci) * *w_rs.add(ci) };
            }
        }
    }
}

/// Portable int8 dense strip: exact i32 accumulation per (pixel, oc), f32
/// store.
///
/// # Safety
///
/// See [`run_strip_i8`].
#[inline(never)]
unsafe fn strip_i8_scalar(geo: &Geo, strip: &Strip<u8, i8>, mult: *const f32) {
    let Geo { ic_chunks, ic_bn, oc_bn, ph, pw, kh, kw, sw, .. } = *geo;
    let Strip { input: in_n, weights: w_oc, rn, out, ih0, iw0 } = *strip;
    let quads = ic_bn / 4;
    for i in 0..rn {
        for oci in 0..oc_bn {
            let mut acc: i32 = 0;
            for icc in 0..ic_chunks {
                let in_c = in_n.add(icc * ph * pw * ic_bn);
                let w_c = w_oc.add(icc * kh * kw * ic_bn * oc_bn);
                for r in 0..kh {
                    for s in 0..kw {
                        let in_rs = in_c.add(((ih0 + r) * pw + iw0 + s + i * sw) * ic_bn);
                        let w_rs = w_c.add((r * kw + s) * ic_bn * oc_bn);
                        for q in 0..quads {
                            for lane in 0..4 {
                                // SAFETY: offsets stay inside the operand
                                // extents per the contract; quad-packed
                                // weight index [q][oci][lane].
                                let a = unsafe { *in_rs.add(q * 4 + lane) };
                                let w =
                                    unsafe { *w_rs.add((q * oc_bn + oci) * 4 + lane) };
                                acc += i32::from(a) * i32::from(w);
                            }
                        }
                    }
                }
            }
            // SAFETY: `out` holds `rn * oc_bn` f32; `mult` holds `oc_bn`.
            unsafe { *out.add(i * oc_bn + oci) = *mult.add(oci) * acc as f32 };
        }
    }
}

/// Portable int8 depthwise strip. Unlike the other scalar strips it is left
/// to the inliner: forced out of line, the same body measured 1.2× slower as
/// the tail handler behind the SIMD strips.
///
/// # Safety
///
/// See [`run_strip_i8`].
unsafe fn dw_strip_i8_scalar(geo: &Geo, strip: &Strip<u8, i8>, mult: *const f32) {
    let Geo { ic_bn: c_bn, pw, kh, kw, sw, .. } = *geo;
    let Strip { input: in_c, weights: w_c, rn, out, ih0, iw0 } = *strip;
    for i in 0..rn {
        for ci in 0..c_bn {
            let mut acc: i32 = 0;
            for r in 0..kh {
                for s in 0..kw {
                    // SAFETY: offsets inside operand extents per contract.
                    let a = unsafe {
                        *in_c.add(((ih0 + r) * pw + iw0 + s + i * sw) * c_bn + ci)
                    };
                    let w = unsafe { *w_c.add((r * kw + s) * c_bn + ci) };
                    acc += i32::from(a) * i32::from(w);
                }
            }
            // SAFETY: `out` holds `rn * c_bn` f32; `mult` holds `c_bn`.
            unsafe { *out.add(i * c_bn + ci) = *mult.add(ci) * acc as f32 };
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use std::arch::x86_64::*;

    use super::super::simd::Simd;
    use super::*;

    /// One `dot_quads` of each body from the same accumulator.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
    unsafe fn both_dots(acc: i32, quad: u32, w: &[i8; 64]) -> [[i32; 16]; 2] {
        let (acc, w) = (_mm512_set1_epi32(acc), _mm512_loadu_si512(w.as_ptr().cast()));
        let maddubs = <__m512 as Simd>::dot_quads::<false>(acc, quad, w);
        let dpbusd = <__m512 as Simd>::dot_quads::<true>(acc, quad, w);
        [std::mem::transmute::<__m512i, [i32; 16]>(maddubs), std::mem::transmute::<__m512i, [i32; 16]>(dpbusd)]
    }

    /// On a VNNI host the `maddubs` body never runs through the dispatcher,
    /// and on any other the `vpdpbusd` one never does: hold them to each
    /// other (and to scalar arithmetic) here — single dots at the operand
    /// edges and from accumulators about to wrap, then every int8 strip
    /// length of the AVX-512 row under both [`Isa`] variants.
    #[test]
    fn vnni_and_maddubs_dot_bodies_agree() {
        if !has!(["avx512f", "avx512bw", "avx512vnni"]) {
            return;
        }
        let mut state = 0x2545_F491u32;
        let mut next = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            state >> 16
        };
        let mut weights = [[63i8; 64], [-63i8; 64], [0i8; 64], [0i8; 64]];
        for (i, w) in weights[2].iter_mut().enumerate() {
            *w = if i % 2 == 0 { 63 } else { -63 };
        }
        weights[3].fill_with(|| (next() % 127) as i8 - 63);
        let quads = [0, u32::MAX, 0x00FF_00FF, 0xFF00_FF00, 0x0000_FFFF, 0xFF00_0000, next() << 16 | next()];
        for w in &weights {
            for quad in quads {
                for acc in [0, 1 << 20, i32::MAX - 7, i32::MAX, i32::MIN, i32::MIN + 7] {
                    // SAFETY: the host has the features (checked above).
                    let [maddubs, dpbusd] = unsafe { both_dots(acc, quad, w) };
                    let want: [i32; 16] = std::array::from_fn(|l| {
                        (0..4).fold(acc, |sum, j| {
                            let a = (quad >> (8 * j)) as u8;
                            sum.wrapping_add(i32::from(a) * i32::from(w[4 * l + j]))
                        })
                    });
                    assert_eq!(maddubs, want, "maddubs: acc {acc} quad {quad:#x}");
                    assert_eq!(dpbusd, want, "dpbusd: acc {acc} quad {quad:#x}");
                }
            }
        }

        let os = Dataflow::OutputStationary;
        for &rn in strip_lengths(16, os, 1, true).expect("the AVX-512 row") {
            // A pointwise row of `rn` pixels, two input chunks of two quads.
            let p = Conv2dParams { in_h: 1, in_w: rn, ..Conv2dParams::square(16, 16, 1, 1, 1, 0) };
            let s = ConvSchedule { ic_bn: 8, oc_bn: 16, reg_n: rn, dataflow: os };
            let geo = Geo::new(&p, &s, 16, true);
            assert_eq!(geo.isa, Isa::Avx512Vnni);
            let mut input: Vec<u8> = (0..rn * 16).map(|_| next() as u8).collect();
            input[..8].fill(255);
            let mut w: Vec<i8> = (0..16 * 16).map(|_| (next() % 127) as i8 - 63).collect();
            w[..64].fill(63);
            w[64..128].fill(-63);
            let mult = [1.0f32; 16];
            let run = |isa: Option<Isa>| {
                let mut out = vec![f32::NAN; rn * 16];
                let strip = Strip { input: input.as_ptr(), weights: w.as_ptr(), rn, out: out.as_mut_ptr(), ih0: 0, iw0: 0 };
                // SAFETY: the operands cover a 1×1 strip of `rn` pixels under
                // `geo`; both variants' CPU features were checked above.
                unsafe {
                    match isa {
                        Some(isa) => run_strip_i8(&Geo { isa, ..geo }, &strip, mult.as_ptr()),
                        None => strip_i8_scalar(&geo, &strip, mult.as_ptr()),
                    }
                }
                out
            };
            let scalar = run(None);
            assert!(scalar.iter().all(|v| v.is_finite()), "rn {rn}: poison survived");
            assert_eq!(run(Some(Isa::Avx512)), scalar, "rn {rn}: maddubs body");
            assert_eq!(run(Some(Isa::Avx512Vnni)), scalar, "rn {rn}: vpdpbusd body");
        }
    }
}
