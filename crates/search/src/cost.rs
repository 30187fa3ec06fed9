//! Cost models for schedules and layout transforms.
//!
//! [`TimedMeasurer`] is the paper's method: run the real kernel several
//! times and take the best time ("run multiple times for averaging to
//! cancel out the possible variance"). [`AnalyticalModel`] is a
//! deterministic microarchitecture-parameterized estimate used by fast
//! tests, candidate pre-selection, and the global-search cost tables when a
//! full timed sweep is not warranted.

use std::time::Instant;

use neocpu_kernels::conv::{
    conv2d_nchwc, fitting_reg_n, simd_tier_serves, strip_plan, Conv2dParams, ConvSchedule,
    Dataflow, Epilogue,
};
use neocpu_tensor::{DType, Layout, Tensor};
use neocpu_threadpool::Sequential;

/// Estimates or measures the execution time (in seconds) of a convolution
/// under a schedule, and the cost of layout transforms between convs.
///
/// The local searches only ask for schedules the kernel runs — the int8
/// search enumerates what [`ConvSchedule::validate_int8`] admits — so a
/// non-finite time is a fault (NaN from a degenerate measurement): the
/// search drops that candidate with a warning.
pub trait CostModel {
    /// Time for one invocation of `params` under `schedule`.
    fn conv_time(&self, params: &Conv2dParams, schedule: &ConvSchedule) -> f32;

    /// Time for one invocation under `schedule` with the u8×i8 int8 kernel.
    ///
    /// The default forwards to [`CostModel::conv_time`]: a measurer that
    /// only runs the f32 kernel (like [`TimedMeasurer`]) reports *no* int8
    /// speedup rather than guessing, so dtype selection driven by such a
    /// model conservatively keeps f32. [`AnalyticalModel`] overrides this
    /// with the quad-packed kernel's lane and footprint credits, and returns
    /// `+∞` for a schedule the int8 template refuses
    /// ([`ConvSchedule::validate_int8`]), so that a caller pricing an f32
    /// candidate list for int8 can filter it by finiteness.
    fn conv_time_i8(&self, params: &Conv2dParams, schedule: &ConvSchedule) -> f32 {
        self.conv_time(params, schedule)
    }

    /// Time to transform a `[1, c, h, w]` activation between two channel
    /// blockings (`from == to` is free by definition).
    fn transform_time(&self, c: usize, h: usize, w: usize, from: usize, to: usize) -> f32;
}

/// Microarchitecture description driving the analytical model.
///
/// The defaults approximate one AVX-512 Skylake core; `neocpu`'s
/// `CpuTarget` presets supply EPYC/ARM-flavoured variants.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticalModel {
    /// f32 lanes per SIMD vector of the modeled machine (its ISA's width).
    pub vec_lanes: usize,
    /// Peak FMA throughput in multiply-accumulates per second per core.
    pub macs_per_sec: f32,
    /// Effective memory bandwidth in bytes per second (transform cost).
    pub mem_bytes_per_sec: f32,
    /// L1 data-cache size in bytes (register/cache blocking sweet spot).
    pub l1_bytes: usize,
}

impl Default for AnalyticalModel {
    fn default() -> Self {
        Self {
            vec_lanes: 16,
            macs_per_sec: 8.0e10,
            mem_bytes_per_sec: 2.0e10,
            l1_bytes: 32 * 1024,
        }
    }
}

/// The larger of a layer's compute and memory time, with a hundredth of
/// the smaller as tie-break: most schedules of a memory-bound layer would
/// otherwise cost exactly `mem`, and a preselect over them would keep
/// whichever the candidate generator happened to emit first.
fn roofline(compute: f32, mem: f32) -> f32 {
    compute.max(mem) + 0.01 * compute.min(mem)
}

/// The credit both efficiencies give the flattened `(kh, kw)` tap loop that
/// every strip runs — the unrolled kernel loop of Alg. 1 line 12.
const TAP_LOOP: f32 = 1.05;

/// How well `rn` independent accumulators cover the FMA latency.
fn latency_util(rn: f32) -> f32 {
    (rn / 8.0).min(1.0) * 0.5 + 0.5 * (rn / 28.0).clamp(0.5, 1.0)
}

impl AnalyticalModel {
    /// Pipeline utilization of one strip row of `p` under `s`, given that of
    /// a strip of `rn` pixels: the row costs the sum of the strips the
    /// template cuts it into for activations of type `act`, so `reg_n` 8 on
    /// a 14-pixel row is priced as 8 + 4 + 2, not as a perfect 8, and a
    /// `reg_n` only the f32 strips hold as what a u8 call runs in its place.
    fn row_pipe_util(
        &self,
        p: &Conv2dParams,
        s: &ConvSchedule,
        act: DType,
        strip_util: impl Fn(usize) -> f32,
    ) -> f32 {
        let (_, width) = p.strip_row();
        let cost: f32 =
            strip_plan(s.oc_bn, self.vec_lanes, s.dataflow, p.kernel_w, s.reg_n, width, act)
                .map(|rn| rn as f32 / strip_util(rn))
                .sum();
        width as f32 / cost
    }

    /// Relative efficiency (0, 1] of a schedule on this machine: how much
    /// of peak FMA throughput the blocked loop nest sustains.
    fn efficiency(&self, p: &Conv2dParams, s: &ConvSchedule) -> f32 {
        // Vector utilization mirrors the microkernel dispatch: a dedicated
        // SIMD strip kernel exists only for an `oc_bn` a tier of the strip
        // table serves; every other block runs the portable scalar kernel,
        // which the compiler auto-vectorizes to roughly a quarter of the
        // wide-SIMD throughput (measured on the reproduction host) — except
        // that a modeled target whose own width is `oc_bn` (NEON-class)
        // gets full vectors.
        let lanes = self.vec_lanes as f32;
        let effective = if simd_tier_serves(s.oc_bn, self.vec_lanes) {
            s.oc_bn as f32
        } else if s.oc_bn == self.vec_lanes {
            lanes
        } else {
            (lanes / 4.0).max(1.0).min(s.oc_bn as f32)
        };
        let vec_util = effective / lanes;
        // Register blocking: FMA latency (~4 cycles) needs ~8 independent
        // accumulators to saturate both FMA ports; diminishing above. No
        // spill term: a row only ever runs strips the dispatch table holds,
        // and those are sized to their tier's register file.
        let kwf = p.kernel_w as f32;
        let pipe_util = self.row_pipe_util(p, s, DType::F32, |rn| {
            let rnf = rn as f32;
            // Issue-port pressure: loads per FMA in the inner loop.
            // Output-stationary loads `kw` kernel vectors plus `rn*kw` input
            // broadcasts per (row, ic) step; shift-reuse broadcasts each of
            // the `rn + kw - 1` overlapping input columns once and shifts it
            // across taps, so stride-1 wide-kernel strips issue measurably
            // fewer loads for the same `rn*kw` FMAs.
            let loads_per_fma = match s.dataflow {
                Dataflow::OutputStationary => (kwf + rnf * kwf) / (rnf * kwf),
                Dataflow::ShiftReuse => (kwf + rnf + kwf - 1.0) / (rnf * kwf),
            };
            let issue_util = (1.0 / loads_per_fma).min(1.0);
            latency_util(rnf) * (0.75 + 0.25 * issue_util)
        });
        // Cache pressure: the inner working set (one weight block plus the
        // input rows it touches) should fit L1; penalize overflow.
        let ws = (s.ic_bn * s.oc_bn * p.kernel_h * p.kernel_w
            + s.reg_n * s.ic_bn * p.kernel_h
            + s.reg_n * s.oc_bn)
            * 4;
        let cache_util = if ws <= self.l1_bytes {
            1.0
        } else {
            (self.l1_bytes as f32 / ws as f32).max(0.25)
        };
        (vec_util * pipe_util * cache_util * TAP_LOOP).clamp(0.01, 1.05)
    }

    /// Relative efficiency of the u8×i8 quad-packed kernel, on the same
    /// scale as [`AnalyticalModel::efficiency`] (so values above 1 mean
    /// faster than f32 peak). The maddubs pairing retires 4 MACs per byte
    /// lane through a 3-instruction sequence — net ~2× the f32 FMA rate
    /// when a SIMD strip exists for `oc_bn` — and 1-byte elements shrink
    /// the L1 working set 4×, easing the penalty on big blocks. The exact
    /// scalar fallback earns no credit. A row is priced as the int8 strips
    /// it is cut into, so a `reg_n` only the f32 table holds ranks as the
    /// shorter strip that runs in its place, not as a long one.
    fn efficiency_i8(&self, p: &Conv2dParams, s: &ConvSchedule) -> f32 {
        let lanes = self.vec_lanes as f32;
        let vec_util = if simd_tier_serves(s.oc_bn, self.vec_lanes) {
            s.oc_bn as f32 / lanes * 2.0
        } else {
            (lanes / 4.0).max(1.0).min(s.oc_bn as f32) / lanes
        };
        let pipe_util = self.row_pipe_util(p, s, DType::U8, |rn| latency_util(rn as f32));
        // The working set is that of the strip the row starts with, too.
        let rn = fitting_reg_n(p, s.oc_bn, self.vec_lanes, s.reg_n, DType::U8);
        let ws =
            s.ic_bn * s.oc_bn * p.kernel_h * p.kernel_w + rn * s.ic_bn * p.kernel_h + rn * s.oc_bn;
        let cache_util = if ws <= self.l1_bytes {
            1.0
        } else {
            (self.l1_bytes as f32 / ws as f32).max(0.25)
        };
        (vec_util * pipe_util * cache_util * TAP_LOOP).clamp(0.01, 2.1)
    }
}

impl CostModel for AnalyticalModel {
    fn conv_time(&self, params: &Conv2dParams, schedule: &ConvSchedule) -> f32 {
        let macs = params.macs() as f32;
        let compute = macs / (self.macs_per_sec * self.efficiency(params, schedule));
        if params.groups > 1 {
            // Grouped/depthwise layers run at trivial arithmetic intensity
            // (only `kh*kw` MACs per loaded input element instead of a full
            // input-channel reduction), so the memory system rather than
            // the FMA units usually bounds them — model the layer as the
            // max of the compute and streaming-traffic terms.
            let elems = params.in_channels * params.in_h * params.in_w
                + params.out_channels * params.out_h() * params.out_w()
                + params.out_channels * params.in_channels_per_group()
                    * params.kernel_h
                    * params.kernel_w;
            let mem = (elems * 4) as f32 / self.mem_bytes_per_sec;
            roofline(compute, mem)
        } else {
            compute
        }
    }

    fn conv_time_i8(&self, params: &Conv2dParams, schedule: &ConvSchedule) -> f32 {
        // A schedule the int8 template refuses (shift-reuse, or a dense
        // block that cannot quad-pack, like the 3-channel stem's) must never
        // win the dtype race: the quantize pass's profit test prices the
        // planner's f32 picks too.
        if schedule.validate_int8(params).is_err() {
            return f32::INFINITY;
        }
        let macs = params.macs() as f32;
        let compute = macs / (self.macs_per_sec * self.efficiency_i8(params, schedule));
        if params.groups > 1 {
            // Memory-bound depthwise term with int8 traffic: 1-byte input
            // and weight elements, f32 (4-byte) output.
            let elems = params.in_channels * params.in_h * params.in_w
                + 4 * params.out_channels * params.out_h() * params.out_w()
                + params.out_channels
                    * params.in_channels_per_group()
                    * params.kernel_h
                    * params.kernel_w;
            let mem = elems as f32 / self.mem_bytes_per_sec;
            roofline(compute, mem)
        } else {
            compute
        }
    }

    fn transform_time(&self, c: usize, h: usize, w: usize, from: usize, to: usize) -> f32 {
        if from == to {
            return 0.0;
        }
        // Read + write every element once.
        let bytes = (c * h * w * 4 * 2) as f32;
        bytes / self.mem_bytes_per_sec
    }
}

/// Measures schedules by running the real blocked kernel.
#[derive(Debug, Clone, Copy)]
pub struct TimedMeasurer {
    /// Timed repetitions (the minimum is reported; 0 times once).
    pub repeats: usize,
    /// Untimed warm-up runs.
    pub warmup: usize,
    /// SIMD-lane cap forwarded to the kernel (targets narrower than host).
    pub max_lanes: usize,
}

impl Default for TimedMeasurer {
    fn default() -> Self {
        Self { repeats: 3, warmup: 1, max_lanes: usize::MAX }
    }
}

impl CostModel for TimedMeasurer {
    fn conv_time(&self, params: &Conv2dParams, schedule: &ConvSchedule) -> f32 {
        let p = *params;
        let input = Tensor::random(
            [1, p.in_channels, p.in_h, p.in_w],
            Layout::NchwC(schedule.ic_bn),
            1,
            1.0,
        )
        .expect("schedule validated against workload");
        let weights = Tensor::random(
            [p.out_channels, p.in_channels_per_group(), p.kernel_h, p.kernel_w],
            Layout::OihwIo {
                i: if p.is_depthwise() { 1 } else { schedule.ic_bn },
                o: schedule.oc_bn,
            },
            2,
            1.0,
        )
        .expect("schedule validated against workload");
        let mut out = Tensor::zeros(
            [1, p.out_channels, p.out_h(), p.out_w()],
            Layout::NchwC(schedule.oc_bn),
        )
        .expect("schedule validated against workload");
        self.best_of(|| {
            conv2d_nchwc(
                &input,
                &weights,
                &mut out,
                &p,
                schedule,
                &Epilogue::none(),
                &Sequential,
                self.max_lanes,
                None,
            )
            .expect("workload/schedule validated");
        })
    }

    fn transform_time(&self, c: usize, h: usize, w: usize, from: usize, to: usize) -> f32 {
        if from == to {
            return 0.0;
        }
        use neocpu_tensor::transform::to_layout_into;
        let src = Tensor::random([1, c, h, w], Layout::NchwC(from), 3, 1.0)
            .expect("divisibility checked by caller");
        // Into a destination that exists already, as the executor does into
        // its arena: allocating one per run adds a fifth to the price of a
        // small tensor's transform.
        let mut dst = Tensor::zeros([1, c, h, w], Layout::NchwC(to))
            .expect("divisibility checked by caller");
        self.best_of(|| to_layout_into(&src, &mut dst).expect("same logical shape"))
    }
}

impl TimedMeasurer {
    /// The fastest of `repeats` timed runs of `run` (at least one, so a
    /// measurement is always finite), after `warmup` untimed ones. One
    /// sample is noisy enough to flip the global search's layout decisions.
    fn best_of(&self, mut run: impl FnMut()) -> f32 {
        for _ in 0..self.warmup {
            run();
        }
        (0..self.repeats.max(1))
            .map(|_| {
                let t0 = Instant::now();
                run();
                t0.elapsed().as_secs_f32()
            })
            .fold(f32::INFINITY, f32::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl() -> Conv2dParams {
        Conv2dParams::square(64, 64, 28, 3, 1, 1)
    }

    #[test]
    fn analytical_prefers_vector_width_blocks() {
        let m = AnalyticalModel::default();
        let full = ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 8, ..Default::default() };
        let narrow = ConvSchedule { ic_bn: 16, oc_bn: 2, reg_n: 8, ..Default::default() };
        assert!(m.conv_time(&wl(), &full) < m.conv_time(&wl(), &narrow));
    }

    #[test]
    fn analytical_prefers_enough_registers() {
        let m = AnalyticalModel::default();
        let few = ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 2, ..Default::default() };
        let enough = ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 16, ..Default::default() };
        assert!(m.conv_time(&wl(), &enough) < m.conv_time(&wl(), &few));
    }

    #[test]
    fn analytical_prices_a_row_as_the_strips_that_run() {
        let m = AnalyticalModel::default();
        let s = |reg_n| ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n, ..Default::default() };
        // 14 pixels under reg_n 8 are 8 + 4 + 2, not a perfect 8: the one
        // strip that covers the row must model faster, and so must 16 on a
        // 28-pixel row (16 + 8 + 4) against 14 + 14.
        let p14 = Conv2dParams::square(64, 64, 14, 3, 1, 1);
        assert!(m.conv_time(&p14, &s(14)) < m.conv_time(&p14, &s(8)));
        assert!(m.conv_time(&wl(), &s(14)) < m.conv_time(&wl(), &s(16)));
        assert!(m.conv_time_i8(&p14, &s(14)) < m.conv_time_i8(&p14, &s(8)));
        // A pointwise plane is one row: 14×14 pixels are seven strips of 28.
        let pw = Conv2dParams::square(64, 64, 14, 1, 1, 0);
        assert!(m.conv_time(&pw, &s(28)) < m.conv_time(&pw, &s(14)));
        // The u8 template holds no 28-pixel strip (it spills): the plane
        // runs as strips of 16 there, and is priced as them.
        assert_eq!(m.conv_time_i8(&pw, &s(28)), m.conv_time_i8(&pw, &s(16)));
        // Also where the working set has left L1 (a 7×7 weight block of 64
        // input channels is 50 KB) and its strip term counts.
        let big = Conv2dParams::square(64, 64, 32, 7, 1, 3);
        let s64 = |reg_n| ConvSchedule { ic_bn: 64, ..s(reg_n) };
        assert_eq!(m.conv_time_i8(&big, &s64(28)), m.conv_time_i8(&big, &s64(16)));
        assert!(m.conv_time_i8(&big, &s64(16)) > m.conv_time_i8(&big, &s64(8)));
        // A reg_n its tier has no strip for costs what runs in its place:
        // on AVX2, 14 is 12 + the remainder — there is nothing to spill.
        let avx2 = AnalyticalModel { vec_lanes: 8, ..AnalyticalModel::default() };
        let s8 = |reg_n| ConvSchedule { ic_bn: 8, oc_bn: 8, ..s(reg_n) };
        assert_eq!(avx2.conv_time(&p14, &s8(14)), avx2.conv_time(&p14, &s8(12)));
        // The 32-register AVX-512 file holds 28 accumulators + 2 resident.
        assert!(m.conv_time(&wl(), &s(28)) < m.conv_time(&wl(), &s(14)));
    }

    #[test]
    fn analytical_prefers_shift_reuse_on_stride1_wide_kernels() {
        // Same knobs, different dataflow: shift-reuse issues fewer loads
        // per FMA on a stride-1 3×3 kernel, so it must model faster than
        // the fixed output-stationary baseline (the ISSUE acceptance
        // criterion that at least one workload selects non-OS).
        let m = AnalyticalModel::default();
        let os = ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 28, ..Default::default() };
        let sr = ConvSchedule { dataflow: Dataflow::ShiftReuse, ..os };
        assert!(m.conv_time(&wl(), &sr) < m.conv_time(&wl(), &os));
    }

    #[test]
    fn analytical_int8_rejects_non_output_stationary() {
        let m = AnalyticalModel::default();
        let sr = ConvSchedule {
            ic_bn: 16,
            oc_bn: 16,
            reg_n: 8,
            dataflow: Dataflow::ShiftReuse,
        };
        assert_eq!(m.conv_time_i8(&wl(), &sr), f32::INFINITY);
        assert!(m.conv_time(&wl(), &sr).is_finite());
    }

    #[test]
    fn analytical_transform_cost_scales_with_size_and_is_zero_on_match() {
        let m = AnalyticalModel::default();
        assert_eq!(m.transform_time(64, 28, 28, 16, 16), 0.0);
        let small = m.transform_time(64, 28, 28, 16, 8);
        let big = m.transform_time(64, 56, 56, 16, 8);
        assert!(big > small && small > 0.0);
    }

    #[test]
    fn analytical_depthwise_is_memory_bound_and_finite() {
        let m = AnalyticalModel::default();
        let dw = Conv2dParams::depthwise(64, 28, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 8, ..Default::default() };
        let t = m.conv_time(&dw, &s);
        assert!(t > 0.0 && t.is_finite());
        // A dense conv with the same channel counts does ~64x the MACs and
        // must cost more under the model.
        let dense = Conv2dParams::square(64, 64, 28, 3, 1, 1);
        assert!(m.conv_time(&dense, &s) > t);
    }

    #[test]
    fn analytical_int8_beats_f32_on_simd_blocks() {
        let m = AnalyticalModel::default();
        let s = ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 8, ..Default::default() };
        assert!(m.conv_time_i8(&wl(), &s) < m.conv_time(&wl(), &s));
        // A narrow AVX2-style model still credits the oc_bn == 8 strip.
        let avx2 = AnalyticalModel { vec_lanes: 8, ..AnalyticalModel::default() };
        let s8 = ConvSchedule { ic_bn: 8, oc_bn: 8, reg_n: 8, ..Default::default() };
        assert!(avx2.conv_time_i8(&wl(), &s8) < avx2.conv_time(&wl(), &s8));
    }

    #[test]
    fn analytical_int8_rejects_unquaddable_blocks() {
        let m = AnalyticalModel::default();
        let p = Conv2dParams::square(6, 64, 28, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 2, oc_bn: 16, reg_n: 8, ..Default::default() };
        assert_eq!(m.conv_time_i8(&p, &s), f32::INFINITY);
        // Depthwise kernels widen before multiplying and have no quad
        // constraint.
        let dw = Conv2dParams::depthwise(64, 28, 3, 1, 1);
        let sdw = ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 8, ..Default::default() };
        assert!(m.conv_time_i8(&dw, &sdw).is_finite());
    }

    #[test]
    fn timed_measurer_reports_no_int8_speedup() {
        // TimedMeasurer only runs the f32 kernel; its default conv_time_i8
        // must not fabricate a speedup (it re-measures f32, so the two are
        // the same operation — equality is not asserted because wall-clock
        // noise differs between calls).
        let m = TimedMeasurer { repeats: 1, warmup: 0, max_lanes: usize::MAX };
        let p = Conv2dParams::square(8, 8, 8, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 8, oc_bn: 8, reg_n: 4, ..Default::default() };
        let t = m.conv_time_i8(&p, &s);
        assert!(t > 0.0 && t.is_finite());
    }

    #[test]
    fn timed_measurer_handles_depthwise() {
        let m = TimedMeasurer { repeats: 1, warmup: 0, max_lanes: usize::MAX };
        let p = Conv2dParams::depthwise(8, 8, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 8, oc_bn: 8, reg_n: 4, ..Default::default() };
        let t = m.conv_time(&p, &s);
        assert!(t > 0.0 && t.is_finite());
    }

    #[test]
    fn timed_measurer_returns_positive_times() {
        let m = TimedMeasurer { repeats: 1, warmup: 0, max_lanes: usize::MAX };
        let p = Conv2dParams::square(8, 8, 8, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 8, oc_bn: 8, reg_n: 4, ..Default::default() };
        let t = m.conv_time(&p, &s);
        assert!(t > 0.0 && t.is_finite());
        let tt = m.transform_time(8, 8, 8, 8, 4);
        assert!(tt > 0.0 && tt.is_finite());
    }

    #[test]
    fn zero_repeats_still_time_one_run() {
        // An infinite time would drop the candidate from the local search,
        // and with every candidate dropped the workload would run the
        // unsearched schedule: `repeats: 0` still times one run.
        let m = TimedMeasurer { repeats: 0, warmup: 1, max_lanes: usize::MAX };
        let p = Conv2dParams::square(8, 8, 8, 3, 1, 1);
        let s = ConvSchedule { ic_bn: 8, oc_bn: 8, reg_n: 4, ..Default::default() };
        assert!(m.conv_time(&p, &s).is_finite());
        assert!(m.transform_time(8, 8, 8, 8, 4).is_finite());
    }
}
