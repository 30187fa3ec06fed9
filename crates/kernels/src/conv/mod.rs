//! Direct 2-D convolution: workload description, schedule tuple, reference
//! kernels, and the blocked `NCHW[x]c` template of Algorithm 1.

mod blocked;
mod int8;
mod microkernel;
mod reference;
#[cfg(target_arch = "x86_64")]
mod simd;

pub use blocked::{conv2d_nchwc, padded_input_len};
pub use int8::{conv2d_nchwc_u8, ConvQuant};
pub use microkernel::StripPlan;
pub use reference::conv2d_nchw_direct;

use neocpu_tensor::{DType, Tensor};

use crate::{KernelError, Result};

/// Static description of a convolution workload (the paper's "feature map
/// and convolution kernel sizes" that key the scheme database).
///
/// Batch size is carried by the tensors; the paper fixes it to 1 for the
/// latency evaluation and so do the benchmarks, but the kernels accept any
/// `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dParams {
    /// Input channels (`C`).
    pub in_channels: usize,
    /// Output channels (`K`).
    pub out_channels: usize,
    /// Input feature-map height.
    pub in_h: usize,
    /// Input feature-map width.
    pub in_w: usize,
    /// Kernel height (`R`).
    pub kernel_h: usize,
    /// Kernel width (`S`).
    pub kernel_w: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Vertical zero padding (applied symmetrically).
    pub pad_h: usize,
    /// Horizontal zero padding (applied symmetrically).
    pub pad_w: usize,
    /// Channel groups. `1` is a dense convolution; `groups ==
    /// in_channels == out_channels` is a depthwise convolution, where each
    /// channel is convolved with its own `1×kh×kw` filter. Weights carry
    /// `in_channels / groups` input channels per filter.
    pub groups: usize,
}

impl Conv2dParams {
    /// Convenience constructor for square kernels/strides/padding.
    pub fn square(
        in_channels: usize,
        out_channels: usize,
        in_size: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        Self {
            in_channels,
            out_channels,
            in_h: in_size,
            in_w: in_size,
            kernel_h: kernel,
            kernel_w: kernel,
            stride_h: stride,
            stride_w: stride,
            pad_h: pad,
            pad_w: pad,
            groups: 1,
        }
    }

    /// Convenience constructor for a square depthwise convolution
    /// (`groups == in_channels == out_channels`).
    pub fn depthwise(channels: usize, in_size: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        Self { groups: channels, ..Self::square(channels, channels, in_size, kernel, stride, pad) }
    }

    /// Whether this workload is a depthwise convolution (one filter per
    /// channel).
    pub fn is_depthwise(&self) -> bool {
        self.groups > 1 && self.groups == self.in_channels && self.groups == self.out_channels
    }

    /// Input channels read by each filter (`in_channels / groups`).
    pub fn in_channels_per_group(&self) -> usize {
        self.in_channels / self.groups.max(1)
    }

    /// Output feature-map height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad_h).saturating_sub(self.kernel_h) / self.stride_h + 1
    }

    /// Output feature-map width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad_w).saturating_sub(self.kernel_w) / self.stride_w + 1
    }

    /// Whether every output pixel reads exactly the input pixel at its own
    /// position: a single-tap kernel at unit stride without padding.
    pub fn is_pointwise(&self) -> bool {
        (self.kernel_h, self.kernel_w, self.stride_h, self.stride_w, self.pad_h, self.pad_w)
            == (1, 1, 1, 1, 0, 0)
    }

    /// `(rows, pixels per row)` of the output as the blocked template cuts
    /// it into strips. A pointwise workload's pixels are contiguous across
    /// image rows on the input and the output side alike, so its whole
    /// plane is one row (§3.1.1 tiles `oh × ow` together for 1×1 kernels);
    /// everything else is cut row by row. The template, the candidate
    /// generator, the analytical model and the uniform plan all take the
    /// strip row from here.
    pub fn strip_row(&self) -> (usize, usize) {
        if self.is_pointwise() {
            (1, self.out_h() * self.out_w())
        } else {
            (self.out_h(), self.out_w())
        }
    }

    /// Multiply-accumulate count for one inference at batch 1.
    pub fn macs(&self) -> u64 {
        self.out_channels as u64
            * self.out_h() as u64
            * self.out_w() as u64
            * self.in_channels_per_group() as u64
            * self.kernel_h as u64
            * self.kernel_w as u64
    }

    /// Validates operand tensors against this workload at batch `n`.
    pub(crate) fn check_spatial(&self, t: &Tensor, what: &str) -> Result<()> {
        let d = t.shape().dims();
        if d.len() != 4 {
            return Err(KernelError::BadOperand(format!("{what} must be rank 4")));
        }
        Ok(())
    }
}

/// SIMD dataflow of the strip microkernel — which operands stay pinned in
/// registers while the strip executes (the YFlows axis: a fixed dataflow is
/// never optimal for every workload, so the dataflow itself is a schedule
/// dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dataflow {
    /// Figure 1 of the paper: `reg_n` accumulators stay resident; one
    /// kernel vector and one broadcast input scalar stream through.
    #[default]
    OutputStationary,
    /// Stride-1 only: the `kw` kernel vectors of one kernel row stay
    /// resident as well, and each input column is reused across the `kw`
    /// overlapping kernel taps, loading `reg_n + kw - 1` broadcasts per
    /// kernel row instead of `reg_n × kw`.
    ShiftReuse,
}

impl Dataflow {
    /// All dataflows, in the order the candidate generator emits them.
    pub const ALL: [Dataflow; 2] = [Dataflow::OutputStationary, Dataflow::ShiftReuse];

    /// Short on-disk token (scheme-DB v3 sixth field).
    pub fn token(&self) -> &'static str {
        match self {
            Self::OutputStationary => "os",
            Self::ShiftReuse => "sr",
        }
    }

    /// Inverse of [`Dataflow::token`].
    pub fn from_token(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|d| d.token() == s)
    }
}

/// Whether a SIMD tier of the strip dispatch table serves channel block
/// `oc_bn` under the lane cap `max_lanes` (the templates' parameter of that
/// name). Every other block runs the scalar strips.
pub fn simd_tier_serves(oc_bn: usize, max_lanes: usize) -> bool {
    oc_bn <= max_lanes
        && microkernel::strip_lengths(oc_bn, Dataflow::OutputStationary, 1, false).is_some()
}

/// Whether the strip dispatch table holds a SIMD strip of `reg_n` pixels
/// for channel block `oc_bn` under `dataflow` at kernel width `kernel_w`, for
/// activations of type `act` (the f32 and the int8 strips have their own
/// lengths). Blocks without a tier run the scalar strip; on a block with
/// one, [`strip_plan`] cuts every row into lengths this holds for.
pub fn simd_strip_exists(
    oc_bn: usize,
    dataflow: Dataflow,
    reg_n: usize,
    kernel_w: usize,
    act: DType,
) -> bool {
    microkernel::strip_lengths(oc_bn, dataflow, kernel_w, act != DType::F32)
        .is_some_and(|l| l.contains(&reg_n))
}

/// How the blocked template cuts a strip row of `width` pixels of `act`
/// activations under `reg_n`: the lengths of its strips, in order.
/// `max_lanes` caps the SIMD width like the templates' parameter of that
/// name — a block wider than it runs the scalar strips, which take any
/// length. Pure data from the dispatch table: what the host's CPU features
/// add is whether the SIMD or the scalar strip of each length runs, not the
/// cut.
pub fn strip_plan(
    oc_bn: usize,
    max_lanes: usize,
    dataflow: Dataflow,
    kernel_w: usize,
    reg_n: usize,
    width: usize,
    act: DType,
) -> StripPlan {
    let table = microkernel::strip_lengths(oc_bn, dataflow, kernel_w, act != DType::F32)
        .filter(|_| oc_bn <= max_lanes);
    StripPlan::new(table.unwrap_or(&[]), reg_n, width)
}

/// The `reg_n` a schedule that is not searched should name for `p` at block
/// `oc_bn` and activation type `act`: the longest output-stationary strip of
/// at most `want` pixels that the template runs on `p`'s strip row — so the
/// schedule a module reports is the strip that executes.
pub fn fitting_reg_n(
    p: &Conv2dParams,
    oc_bn: usize,
    max_lanes: usize,
    want: usize,
    act: DType,
) -> usize {
    let (_, width) = p.strip_row();
    let os = Dataflow::OutputStationary;
    strip_plan(oc_bn, max_lanes, os, p.kernel_w, want.clamp(1, 28), width, act).next().unwrap_or(1)
}

/// `reg_n` candidates for one `(oc_bn, dataflow)` pair and activation type.
/// For a block a SIMD tier serves these are the strip lengths the dispatch
/// table holds (each sized so the accumulators plus what else the strip
/// keeps live fit the tier's register file), minus the single-pixel strip
/// that only remainders use; none when the tier has no strip for the
/// dataflow at this kernel width. Scalar blocks accumulate in memory, so they
/// take the classic ladder and no dataflow but output-stationary.
pub fn reg_n_candidates(oc_bn: usize, dataflow: Dataflow, kernel_w: usize, act: DType) -> Vec<usize> {
    match microkernel::strip_lengths(oc_bn, dataflow, kernel_w, act != DType::F32) {
        Some(lengths) => lengths.iter().copied().filter(|&r| r > 1).collect(),
        None if dataflow == Dataflow::OutputStationary => vec![28, 16, 8, 4, 2],
        None => Vec::new(),
    }
}

/// The paper's convolution schedule tuple `(ic_bn, oc_bn, reg_n)`
/// (§3.3.1), extended with the strip [`Dataflow`].
///
/// `ic_bn`/`oc_bn` are the input/output channel split factors (the `x` and
/// `y` of `NCHW[x]c` / `OIHW[x]i[y]o`), `reg_n` is the number of SIMD
/// accumulator registers blocking the output width, and `dataflow` picks the
/// strip microkernel's register-residency scheme. The paper's fourth
/// element, the kernel-loop unroll flag (line 12 of Alg. 1), is not a
/// dimension here: every strip walks the `(kh, kw)` taps as one flattened
/// loop, the form that won a measured search on 300 of 307 zoo convs
/// (EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvSchedule {
    /// Input-channel block (`x` in `NCHW[x]c`).
    pub ic_bn: usize,
    /// Output-channel block (`y`; the output tensor is `NCHW[y]c`).
    pub oc_bn: usize,
    /// Output-width register-blocking factor.
    pub reg_n: usize,
    /// Strip microkernel dataflow.
    pub dataflow: Dataflow,
}

impl Default for ConvSchedule {
    fn default() -> Self {
        Self::fallback()
    }
}

impl ConvSchedule {
    /// A conservative schedule valid for any workload.
    pub fn fallback() -> Self {
        Self {
            ic_bn: 1,
            oc_bn: 1,
            reg_n: 4,
            dataflow: Dataflow::OutputStationary,
        }
    }

    /// Checks the divisibility requirements of Algorithm 1 (PARAM lines
    /// 1-3; `reg_n` needs no divisibility because the template handles the
    /// output-width tail explicitly).
    pub fn validate(&self, p: &Conv2dParams) -> Result<()> {
        if self.ic_bn == 0 || !p.in_channels.is_multiple_of(self.ic_bn) {
            return Err(KernelError::BadSchedule(format!(
                "ic_bn {} does not divide in_channels {}",
                self.ic_bn, p.in_channels
            )));
        }
        if self.oc_bn == 0 || !p.out_channels.is_multiple_of(self.oc_bn) {
            return Err(KernelError::BadSchedule(format!(
                "oc_bn {} does not divide out_channels {}",
                self.oc_bn, p.out_channels
            )));
        }
        if self.reg_n == 0 || self.reg_n > 28 {
            return Err(KernelError::BadSchedule(format!(
                "reg_n {} out of range 1..=28",
                self.reg_n
            )));
        }
        if self.dataflow == Dataflow::ShiftReuse && p.stride_w != 1 {
            return Err(KernelError::BadSchedule(format!(
                "shift-reuse dataflow requires stride_w == 1, got {}",
                p.stride_w
            )));
        }
        if p.groups > 1 {
            if !p.is_depthwise() {
                return Err(KernelError::BadSchedule(format!(
                    "grouped conv with groups {} != channels ({} -> {}) is only \
                     supported in the direct reference path",
                    p.groups, p.in_channels, p.out_channels
                )));
            }
            if self.ic_bn != self.oc_bn {
                return Err(KernelError::BadSchedule(format!(
                    "depthwise conv requires ic_bn == oc_bn, got {} != {}",
                    self.ic_bn, self.oc_bn
                )));
            }
        }
        Ok(())
    }

    /// Checks what the int8 template adds to [`ConvSchedule::validate`]: it
    /// implements only the output-stationary dataflow, and a dense
    /// workload's `ic_bn` must be divisible by 4 so its weights quad-pack
    /// (depthwise strips widen before multiplying and take any block).
    pub fn validate_int8(&self, p: &Conv2dParams) -> Result<()> {
        if self.dataflow != Dataflow::OutputStationary {
            return Err(KernelError::BadSchedule(format!(
                "int8 conv only implements the output-stationary dataflow, got {:?}",
                self.dataflow
            )));
        }
        if !p.is_depthwise() && !self.ic_bn.is_multiple_of(4) {
            return Err(KernelError::BadSchedule(format!(
                "int8 conv requires ic_bn divisible by 4, got {}",
                self.ic_bn
            )));
        }
        Ok(())
    }

    /// The schedule of a conv that is not searched (the uniform plans of
    /// O1 and O2, and any conv a search left without one): the largest
    /// channel factors within `block`, tied for a depthwise workload, and
    /// the longest output-stationary strip of at most `reg_n` pixels the
    /// template runs on the strip row ([`fitting_reg_n`]). `block` is at
    /// most the target's vector width, so no lane cap is needed.
    pub fn unsearched(p: &Conv2dParams, block: usize, reg_n: usize) -> Self {
        let largest = |n| factors_descending(n, block).first().copied().unwrap_or(1);
        let oc_bn = largest(p.out_channels);
        let ic_bn = if p.groups > 1 { oc_bn } else { largest(p.in_channels) };
        Self {
            ic_bn,
            oc_bn,
            reg_n: fitting_reg_n(p, oc_bn, usize::MAX, reg_n, DType::F32),
            dataflow: Dataflow::OutputStationary,
        }
    }

    /// Enumerates the candidate schedule space of §3.3.1 for a workload with
    /// f32 activations: [`ConvSchedule::candidates_for`] at [`DType::F32`].
    pub fn candidates(p: &Conv2dParams, max_block: usize) -> Vec<ConvSchedule> {
        Self::candidates_for(p, max_block, DType::F32)
    }

    /// Enumerates the candidate schedule space of §3.3.1 for a workload
    /// whose activations are of type `act`: all channel factors for
    /// `ic_bn`/`oc_bn`, every applicable [`Dataflow`], `reg_n` from
    /// [`reg_n_candidates`] for `act` (further capped by the width of the
    /// strip row, [`Conv2dParams::strip_row`]) — so every candidate names a
    /// strip the template for `act` runs.
    ///
    /// Depthwise workloads constrain the space to `ic_bn == oc_bn` (the
    /// channel block is convolved element-wise with its own filters, so
    /// input and output blocking must agree). Shift-reuse requires
    /// `stride_w == 1` and a SIMD strip in the dispatch table for the block
    /// and kernel width (elsewhere it would only duplicate the
    /// output-stationary candidates). Each channel pair gets an
    /// output-stationary candidate even where the strip row is shorter than
    /// every listed `reg_n` (`reg_n` 1), so the f32 space is never empty:
    /// every channel count has the factor 1. An int8 space holds only what
    /// [`ConvSchedule::validate_int8`] admits, which is nothing for a dense
    /// workload without an input-channel factor divisible by 4 (the
    /// 3-channel stem).
    pub fn candidates_for(p: &Conv2dParams, max_block: usize, act: DType) -> Vec<ConvSchedule> {
        let ic: Vec<usize> = factors_descending(p.in_channels, max_block);
        let oc: Vec<usize> = factors_descending(p.out_channels, max_block);
        let (_, width) = p.strip_row();
        let mut out = Vec::new();
        for &ic_bn in &ic {
            for &oc_bn in &oc {
                if p.groups > 1 && ic_bn != oc_bn {
                    continue;
                }
                for dataflow in Dataflow::ALL {
                    if dataflow == Dataflow::ShiftReuse && p.stride_w != 1 {
                        continue;
                    }
                    let mut pushed = false;
                    for reg_n in reg_n_candidates(oc_bn, dataflow, p.kernel_w, act) {
                        if reg_n > width {
                            continue;
                        }
                        out.push(ConvSchedule { ic_bn, oc_bn, reg_n, dataflow });
                        pushed = true;
                    }
                    if !pushed && dataflow == Dataflow::OutputStationary {
                        // Strip row too short for every listed reg_n (e.g.
                        // 1×1 spatial output): a single-register strip still
                        // works.
                        out.push(ConvSchedule { ic_bn, oc_bn, reg_n: 1, dataflow });
                    }
                }
            }
        }
        if act != DType::F32 {
            out.retain(|s| s.validate_int8(p).is_ok());
        }
        out
    }
}

/// Factors of `n` not exceeding `cap`, largest first (the paper lists
/// channel factors as blocking candidates, e.g. 64 → [32, 16, 8, 4, 2, 1]).
pub fn factors_descending(n: usize, cap: usize) -> Vec<usize> {
    let mut f: Vec<usize> = (1..=n.min(cap)).filter(|&d| n.is_multiple_of(d)).collect();
    f.reverse();
    f
}

/// Fused post-operations applied in-register before the convolution result
/// is stored (the payoff of graph-level operation fusion, §2.2), in field
/// order: bias, residual, ReLU, requantize.
#[derive(Default)]
pub struct Epilogue<'a> {
    /// Per-output-channel bias (also carries folded BatchNorm shift).
    pub bias: Option<&'a [f32]>,
    /// Clamp negatives to zero (fused ReLU).
    pub relu: bool,
    /// Element-wise f32 residual addend in the *same layout* as the output
    /// (fused `Elementwise_Add` for ResNet-style skip connections).
    pub residual: Option<&'a Tensor>,
    /// Requantize the finished value to `u8` with this `(scale, zero_point)`
    /// — a fused `Quantize`, byte-identical to
    /// [`quantize_value`](crate::quantize::quantize_value) of the f32 the
    /// template would have stored. Set exactly when the output tensor is
    /// `u8`; only the blocked templates implement it.
    pub requant: Option<(f32, u8)>,
}

impl<'a> Epilogue<'a> {
    /// No post-operation.
    pub fn none() -> Self {
        Self::default()
    }

    /// Validates the epilogue against an output tensor.
    pub fn validate(&self, output: &Tensor, out_channels: usize) -> Result<()> {
        if let Some(b) = self.bias {
            if b.len() != out_channels {
                return Err(KernelError::BadOperand(format!(
                    "bias length {} != out_channels {out_channels}",
                    b.len()
                )));
            }
        }
        if let Some(r) = self.residual {
            if r.dtype() != DType::F32 || r.shape() != output.shape() || r.layout() != output.layout()
            {
                return Err(KernelError::BadOperand(
                    "residual must be f32 and match output shape and layout".into(),
                ));
            }
        }
        let stored = if self.requant.is_some() { DType::U8 } else { DType::F32 };
        if output.dtype() != stored {
            return Err(KernelError::BadOperand(format!(
                "an epilogue {} requant stores {stored}, the output is {}",
                if self.requant.is_some() { "with" } else { "without" },
                output.dtype()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dims_with_padding_and_stride() {
        let p = Conv2dParams::square(3, 64, 224, 7, 2, 3);
        assert_eq!(p.out_h(), 112);
        assert_eq!(p.out_w(), 112);
        let q = Conv2dParams::square(64, 64, 56, 3, 1, 1);
        assert_eq!(q.out_h(), 56);
        assert_eq!(q.out_w(), 56);
        let r = Conv2dParams::square(64, 128, 56, 1, 2, 0);
        assert_eq!(r.out_h(), 28);
    }

    #[test]
    fn macs_counts_fma_work() {
        let p = Conv2dParams::square(2, 4, 4, 3, 1, 1);
        assert_eq!(p.macs(), 4 * 4 * 4 * 2 * 9);
    }

    #[test]
    fn factors_listing_matches_paper_example() {
        assert_eq!(factors_descending(64, 32), vec![32, 16, 8, 4, 2, 1]);
        assert_eq!(factors_descending(12, 64), vec![12, 6, 4, 3, 2, 1]);
    }

    #[test]
    fn schedule_validation() {
        let p = Conv2dParams::square(64, 128, 28, 3, 1, 1);
        assert!(ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 8, ..Default::default() }
            .validate(&p)
            .is_ok());
        assert!(ConvSchedule { ic_bn: 48, oc_bn: 16, reg_n: 8, ..Default::default() }
            .validate(&p)
            .is_err());
        assert!(ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 0, ..Default::default() }
            .validate(&p)
            .is_err());
    }

    #[test]
    fn candidate_space_is_bounded_and_valid() {
        let p = Conv2dParams::square(64, 64, 56, 3, 1, 1);
        let cands = ConvSchedule::candidates(&p, 64);
        assert!(!cands.is_empty());
        // ic/oc candidates are each ≤ 7; per pair: output-stationary and
        // shift-reuse each emit ≤ 7 reg_n → ≤ 14.
        assert!(cands.len() <= 7 * 7 * 14);
        for c in &cands {
            c.validate(&p).unwrap();
            assert!(c.reg_n <= 56);
        }
        // A stride-1 3×3 workload explores both dataflows — on the blocks
        // a SIMD tier serves. A scalar block has no register file to
        // schedule, so it only ever gets output-stationary candidates.
        for df in Dataflow::ALL {
            assert!(cands.iter().any(|c| c.dataflow == df), "missing {df:?}");
        }
        assert!(cands
            .iter()
            .all(|c| c.dataflow == Dataflow::OutputStationary || matches!(c.oc_bn, 8 | 16)));
        // Strided workloads and 1×1 kernels drop shift-reuse (no SIMD strip
        // is monomorphized for a single-tap kernel row).
        let strided = Conv2dParams::square(64, 64, 56, 3, 2, 1);
        assert!(ConvSchedule::candidates(&strided, 64)
            .iter()
            .all(|c| c.dataflow != Dataflow::ShiftReuse));
        let pointwise = Conv2dParams::square(64, 64, 56, 1, 1, 0);
        assert!(ConvSchedule::candidates(&pointwise, 64)
            .iter()
            .all(|c| c.dataflow == Dataflow::OutputStationary));
    }

    #[test]
    fn pointwise_candidates_span_the_plane_once() {
        // A 7×7 pointwise plane is one 49-pixel strip row: `reg_n` may
        // exceed the image width, and each (blocks, reg_n) appears once.
        let p = Conv2dParams::square(64, 64, 7, 1, 1, 0);
        assert_eq!(p.strip_row(), (1, 49));
        let cands = ConvSchedule::candidates(&p, 64);
        assert!(cands.iter().any(|c| c.oc_bn == 16 && c.reg_n == 28));
        let mut keys: Vec<_> = cands.iter().map(|c| (c.ic_bn, c.oc_bn, c.reg_n)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), cands.len(), "duplicate pointwise candidates");
        // Padding, a stride or a second tap keeps the row-by-row cut.
        for q in [
            Conv2dParams::square(64, 64, 7, 1, 2, 0),
            Conv2dParams::square(64, 64, 7, 1, 1, 1),
            Conv2dParams::square(64, 64, 7, 3, 1, 1),
        ] {
            assert_eq!(q.strip_row(), (q.out_h(), q.out_w()), "{q:?}");
            assert!(ConvSchedule::candidates(&q, 64).iter().all(|c| c.reg_n <= q.out_w()));
        }
    }

    #[test]
    fn strip_plan_tiles_the_row_in_table_lengths() {
        let os = Dataflow::OutputStationary;
        let f32_plan = |oc_bn, lanes, rn, w| strip_plan(oc_bn, lanes, os, 3, rn, w, DType::F32);
        let plan = |oc_bn, lanes, rn, w| f32_plan(oc_bn, lanes, rn, w).collect::<Vec<_>>();
        // `reg_n` strips, then the remainder greedily in the tier's lengths.
        assert_eq!(plan(16, 16, 8, 14), [8, 4, 2]);
        assert_eq!(plan(16, 16, 14, 14), [14]);
        assert_eq!(plan(16, 16, 4, 7), [4, 2, 1]);
        assert_eq!(plan(8, 16, 8, 29), [8, 8, 8, 4, 1]);
        assert_eq!(plan(16, 16, 16, 196), [[16; 12].as_slice(), &[4]].concat());
        // A `reg_n` the tier lacks runs as the longest strip below it.
        assert_eq!(plan(8, 8, 14, 14), [12, 2]);
        assert_eq!(plan(16, 16, 13, 13), [8, 4, 1]);
        // No tier (or one the lane cap excludes): the scalar strips take
        // any length, so the remainder is one strip.
        assert_eq!(plan(4, 16, 4, 7), [4, 3]);
        assert_eq!(plan(16, 8, 8, 14), [8, 6]);
        assert_eq!(plan(16, 16, 8, 0), [0usize; 0]);
        // The reg_n a non-searched schedule names is the first strip.
        let p14 = Conv2dParams::square(256, 256, 14, 3, 1, 1);
        assert_eq!(fitting_reg_n(&p14, 16, 16, 16, DType::F32), 14);
        assert_eq!(fitting_reg_n(&p14, 8, 8, 16, DType::F32), 12);
        assert_eq!(fitting_reg_n(&p14, 4, 16, 16, DType::F32), 14);
        let pw7 = Conv2dParams::square(512, 2048, 7, 1, 1, 0);
        assert_eq!(fitting_reg_n(&pw7, 16, 16, 16, DType::F32), 16);
        // A u8 call is cut in its tier's int8 lengths: 28 names a strip only
        // the f32 template holds, so it re-fits to 16.
        assert_eq!(fitting_reg_n(&pw7, 16, 16, 28, DType::F32), 28);
        assert_eq!(fitting_reg_n(&pw7, 16, 16, 28, DType::U8), 16);
        assert_eq!(strip_plan(16, 16, os, 1, 28, 49, DType::U8).collect::<Vec<_>>(), [16, 16, 16, 1]);
    }

    #[test]
    fn reg_n_candidates_respect_the_register_file() {
        // AVX2 (oc_bn 8, 16 YMM registers): output-stationary keeps 2
        // resident vectors plus 2 pipelined broadcast temps → 12
        // accumulators max; the old 28/16 candidates spilled the file and
        // must be gone (and so does 14, empirically). 7 is the ImageNet
        // divisor that fits.
        assert_eq!(reg_n_candidates(8, Dataflow::OutputStationary, 3, DType::F32), vec![12, 8, 7, 4, 2]);
        // Shift-reuse pins kw + 1 vectors, shrinking the cap.
        assert_eq!(reg_n_candidates(8, Dataflow::ShiftReuse, 3, DType::F32), vec![12, 8, 7, 4, 2]);
        assert_eq!(reg_n_candidates(8, Dataflow::ShiftReuse, 5, DType::F32), vec![10, 8, 4, 2]);
        assert_eq!(reg_n_candidates(8, Dataflow::ShiftReuse, 7, DType::F32), vec![8, 4, 2]);
        // AVX-512 (oc_bn 16, 32 ZMM registers) keeps the full ladder for
        // output-stationary and 3-wide kernels, with both divisors.
        let zmm = vec![28, 16, 14, 8, 7, 4, 2];
        assert_eq!(reg_n_candidates(16, Dataflow::OutputStationary, 3, DType::F32), zmm);
        assert_eq!(reg_n_candidates(16, Dataflow::ShiftReuse, 3, DType::F32), zmm);
        assert_eq!(reg_n_candidates(16, Dataflow::ShiftReuse, 5, DType::F32), vec![24, 16, 8, 4, 2]);
        // Scalar-path blocks carry no architectural constraint — and no
        // dataflow to choose.
        assert_eq!(reg_n_candidates(4, Dataflow::OutputStationary, 3, DType::F32), vec![28, 16, 8, 4, 2]);
        assert!(reg_n_candidates(4, Dataflow::ShiftReuse, 3, DType::F32).is_empty());
        assert!(reg_n_candidates(16, Dataflow::ShiftReuse, 1, DType::F32).is_empty());
        // Every candidate fits its register file (16 YMM / 32 ZMM) beside
        // the vectors its strip keeps live besides the accumulators:
        // output-stationary cycles one kernel vector plus one broadcast;
        // shift-reuse pins the `kw` kernel vectors of a row plus the
        // in-flight input.
        let resident_regs = |df, kw| match df {
            Dataflow::OutputStationary => 2,
            Dataflow::ShiftReuse => kw + 1,
        };
        for (oc_bn, file) in [(8, 16), (16, 32)] {
            for df in Dataflow::ALL {
                for kw in [3, 5, 7] {
                    for rn in reg_n_candidates(oc_bn, df, kw, DType::F32) {
                        assert!(
                            rn + resident_regs(df, kw) <= file,
                            "{df:?} kw={kw} rn={rn} overflows the {file}-register file"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dataflow_tokens_round_trip() {
        for df in Dataflow::ALL {
            assert_eq!(Dataflow::from_token(df.token()), Some(df));
        }
        assert_eq!(Dataflow::from_token("nope"), None);
        assert_eq!(Dataflow::default(), Dataflow::OutputStationary);
    }

    #[test]
    fn dataflow_validation_rules() {
        // Shift-reuse needs stride_w == 1.
        let strided = Conv2dParams::square(64, 64, 28, 3, 2, 1);
        let sr = ConvSchedule {
            ic_bn: 16,
            oc_bn: 16,
            reg_n: 8,
            dataflow: Dataflow::ShiftReuse,
        };
        assert!(sr.validate(&strided).is_err());
        let unit = Conv2dParams::square(64, 64, 28, 3, 1, 1);
        assert!(sr.validate(&unit).is_ok());
        // Depthwise workloads take it too.
        let dw = Conv2dParams::depthwise(32, 28, 3, 1, 1);
        assert!(ConvSchedule { ic_bn: 8, oc_bn: 8, ..sr }.validate(&dw).is_ok());
    }

    #[test]
    fn depthwise_params_and_macs() {
        let p = Conv2dParams::depthwise(32, 56, 3, 1, 1);
        assert!(p.is_depthwise());
        assert_eq!(p.in_channels_per_group(), 1);
        // One filter per channel: C * OH * OW * kh * kw.
        assert_eq!(p.macs(), 32 * 56 * 56 * 9);
    }

    #[test]
    fn depthwise_schedule_requires_equal_blocks() {
        let p = Conv2dParams::depthwise(32, 28, 3, 1, 1);
        assert!(ConvSchedule { ic_bn: 8, oc_bn: 8, reg_n: 8, ..Default::default() }
            .validate(&p)
            .is_ok());
        assert!(ConvSchedule { ic_bn: 8, oc_bn: 16, reg_n: 8, ..Default::default() }
            .validate(&p)
            .is_err());
        for c in ConvSchedule::candidates(&p, 64) {
            assert_eq!(c.ic_bn, c.oc_bn);
            c.validate(&p).unwrap();
        }
    }

    #[test]
    fn candidates_never_empty_for_irregular_shapes() {
        // Prime channel counts: only the 1×1 blocking divides.
        let prime = Conv2dParams::square(7, 13, 28, 3, 1, 1);
        let cands = ConvSchedule::candidates(&prime, 64);
        assert!(!cands.is_empty());
        for c in &cands {
            c.validate(&prime).unwrap();
        }
        // Degenerate spatial output: out_w == 1 is below every listed
        // reg_n, which used to produce an empty candidate set.
        let narrow = Conv2dParams::square(8, 8, 1, 1, 1, 0);
        assert_eq!(narrow.out_w(), 1);
        let cands = ConvSchedule::candidates(&narrow, 64);
        assert!(!cands.is_empty());
        for c in &cands {
            c.validate(&narrow).unwrap();
        }
    }

    #[test]
    fn epilogue_validation_catches_mismatches() {
        use neocpu_tensor::Layout;
        let out = Tensor::zeros([1, 8, 4, 4], Layout::NchwC(8)).unwrap();
        let bias = vec![0.0f32; 4];
        let e = Epilogue { bias: Some(&bias), ..Epilogue::none() };
        assert!(e.validate(&out, 8).is_err());
        let wrong_layout = Tensor::zeros([1, 8, 4, 4], Layout::Nchw).unwrap();
        let e = Epilogue { residual: Some(&wrong_layout), ..Epilogue::none() };
        assert!(e.validate(&out, 8).is_err());
        // The output's dtype and `requant` go together.
        let bytes = Tensor::zeros_dtyped([1, 8, 4, 4], Layout::NchwC(8), DType::U8).unwrap();
        let requant = Epilogue { requant: Some((0.1, 3)), ..Epilogue::none() };
        assert!(requant.validate(&bytes, 8).is_ok());
        assert!(requant.validate(&out, 8).is_err());
        assert!(Epilogue::none().validate(&bytes, 8).is_err());
    }
}
