//! The blocked `NCHW[x]c` convolution template, int8 edition.
//!
//! The same row driver as the f32 template ([`super::conv2d_nchwc`]),
//! instantiated for `u8` activations and `i8` weights: parallel
//! `(n, oc_chunk, oh)` rows, register-blocked strips of `reg_n` output
//! pixels (of the tier's int8 strip lengths, which are not the f32 ones),
//! padding materialized once into (optionally planned) scratch, the fused
//! epilogue's one pass over each finished strip. What changes is the
//! arithmetic:
//!
//! * activations are `u8` (asymmetric per-tensor quantization), weights
//!   `i8` (symmetric per output channel, `|w_q| ≤ 63` — see
//!   [`crate::quantize::DENSE_WEIGHT_QMAX`]);
//! * weights are *quad-packed* (`OIHW[x]i[y]oq4`): for each kernel tap the
//!   four input sub-channels of a quad interleave at stride 1 under each
//!   output channel, so one AVX2 `maddubs` consumes a broadcast of 4
//!   adjacent activation bytes against 32 contiguous weight bytes and
//!   yields 8 exact per-oc quad dot products — 4 input channels × 8 output
//!   channels in two instructions (one, `vpdpbusd`, on an AVX-512 host with
//!   VNNI);
//! * accumulation is `i32` and **exact** (the ±63 weight range keeps every
//!   16-bit pair sum below `i16::MAX`), so scalar, AVX2 and AVX-512 paths
//!   are bit-identical;
//! * the strip converts to f32 on store: `out = m[oc] · acc`, where
//!   `m[oc] = s_in · s_w[oc]` is the folded multiplier. The compile-time
//!   pass folds the activation zero-point correction
//!   `− m[oc]·zp·Σ w_q[oc]` into the epilogue bias, and the padding halo is
//!   filled with `zp` (not zero) so that correction is exact for padded
//!   taps too.
//!
//! Without [`Epilogue::requant`] the output is a plain f32 `NCHW[y]c`
//! tensor for pooling, residual adds or a standalone `Quantize` node to
//! read. With it — the next reader is an int8 conv and no one else — the
//! epilogue's last stage narrows that f32 to the `u8` the reader takes.
//!
//! This instantiation's tests are `tests/int8_conv.rs` (single cases) and the
//! u8 halves of `tests/strip_matrix.rs` and `tests/conv_driver_matrix.rs`.

use neocpu_tensor::{Layout, Tensor};
use neocpu_threadpool::Parallelism;

use super::blocked::drive;
use super::microkernel;
use super::{Conv2dParams, ConvSchedule, Epilogue};
use crate::{KernelError, Result};

/// Quantization parameters of one int8 convolution call.
pub struct ConvQuant<'a> {
    /// Per-output-channel multiplier `m[oc] = s_in · s_w[oc]` mapping the
    /// integer accumulator back to f32. Length `out_channels`.
    pub mult: &'a [f32],
    /// Activation zero point; also the padding halo fill value.
    pub zero_point: u8,
}

/// Int8 direct convolution on blocked layouts: `u8 NCHW[ic_bn]c` input,
/// `i8 OIHW[ic_bn]i[oc_bn]oq4` weights, **f32** `NCHW[oc_bn]c` output — `u8`
/// exactly when `epilogue.requant` is set. A depthwise workload takes
/// `i8 OIHW1i[c]o` weights instead (full ±127 range — no `maddubs` headroom
/// needed, the microkernel widens to i32 before multiplying).
///
/// The schedule must pass [`ConvSchedule::validate_int8`]: output-stationary,
/// and for a dense workload an `ic_bn` divisible by 4 (the quad-packing
/// requirement — the compile pipeline keeps other convs f32). `scratch`,
/// when given, must hold exactly
/// [`padded_input_len`](super::padded_input_len) bytes; the executor carves
/// it out of the arena so the warm path never allocates.
///
/// # Errors
///
/// As [`conv2d_nchwc`](super::conv2d_nchwc), plus an error if the schedule
/// fails [`ConvSchedule::validate_int8`] or `quant.mult` has the wrong
/// length.
pub fn conv2d_nchwc_u8(
    input: &Tensor,
    weights: &Tensor,
    output: &mut Tensor,
    p: &Conv2dParams,
    schedule: &ConvSchedule,
    quant: &ConvQuant<'_>,
    epilogue: &Epilogue<'_>,
    par: &dyn Parallelism,
    max_lanes: usize,
    scratch: Option<&mut [u8]>,
) -> Result<()> {
    schedule.validate_int8(p)?;
    let (ic_bn, oc_bn) = (schedule.ic_bn, schedule.oc_bn);
    let mult = quant.mult;
    if mult.len() != p.out_channels {
        return Err(KernelError::BadOperand(format!(
            "quant multiplier length {} != out_channels {}",
            mult.len(),
            p.out_channels
        )));
    }
    drive::<u8, i8>(
        input,
        weights,
        output,
        p,
        schedule,
        epilogue,
        par,
        max_lanes,
        Layout::OihwIo4 { i: ic_bn, o: oc_bn },
        quant.zero_point,
        scratch,
        // SAFETY: `drive` only hands out strips that are valid under `geo`;
        // `mult` holds `oc_bn` multipliers for each chunk and dense input
        // blocks are whole quads, both checked above.
        |geo, strip, chunk| unsafe {
            microkernel::run_strip_i8(geo, strip, mult[chunk * oc_bn..].as_ptr())
        },
    )
}
