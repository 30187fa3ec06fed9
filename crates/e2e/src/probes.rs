//! Fixed-shape single-layer probes: the same few kernel, transform and pool
//! calls in every traced run, whatever the workload, so a change to one
//! layer can be seen apart from the model around it. Each kernel probe is
//! single-threaded and reports the best of the searched schedules.

use std::time::Instant;

use neocpu::CpuTarget;
use neocpu_kernels::conv::{conv2d_nchwc_u8, Conv2dParams, ConvQuant, ConvSchedule, Epilogue};
use neocpu_kernels::quantize::{quantize_dense_weights, quantize_slice};
use neocpu_search::{local_search, CostModel, LocalSearchCfg, TimedMeasurer};
use neocpu_tensor::transform::to_layout_into;
use neocpu_tensor::{DType, Layout, Tensor};
use neocpu_threadpool::{Parallelism, Sequential, ThreadPool};

use crate::metrics::Values;
use crate::rng::Rng;
use crate::Res;

const REPEATS: usize = 5;
const PRESELECT: usize = 8;

/// Shortest of `REPEATS` timed calls after one warm-up, in seconds.
fn best_of(mut call: impl FnMut() -> Res<()>) -> Res<f64> {
    call()?;
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let t = Instant::now();
        call()?;
        best = best.min(t.elapsed().as_secs_f64());
    }
    Ok(best)
}

fn f32_conv_us(p: &Conv2dParams, target: &CpuTarget) -> f64 {
    let measurer = TimedMeasurer {
        repeats: REPEATS,
        warmup: 1,
        max_lanes: target.max_lanes(),
    };
    let cfg = LocalSearchCfg {
        preselect: Some(PRESELECT),
        keep: 1,
        ..LocalSearchCfg::default()
    };
    local_search(p, &measurer, &cfg)
        .first()
        .map_or(f64::NAN, |r| f64::from(r.time) * 1e6)
}

fn int8_conv_us(p: &Conv2dParams, target: &CpuTarget) -> Res<f64> {
    let model = target.analytical_model();
    let mut candidates: Vec<ConvSchedule> = ConvSchedule::candidates(p, 64)
        .into_iter()
        .filter(|s| model.conv_time_i8(p, s).is_finite())
        .collect();
    candidates.sort_by(|a, b| {
        model
            .conv_time_i8(p, a)
            .total_cmp(&model.conv_time_i8(p, b))
    });
    candidates.truncate(PRESELECT);
    let weights = Tensor::random(
        [p.out_channels, p.in_channels, p.kernel_h, p.kernel_w],
        Layout::Oihw,
        2,
        1.0,
    )?;
    let mut rng = Rng::new(1);
    let mut best = f64::NAN;
    for s in &candidates {
        let mut input = Tensor::zeros_dtyped(
            [1, p.in_channels, p.in_h, p.in_w],
            Layout::NchwC(s.ic_bn),
            DType::U8,
        )?;
        input
            .data_u8_mut()
            .iter_mut()
            .for_each(|b| *b = rng.next_u64() as u8);
        let qw = quantize_dense_weights(&weights, s.ic_bn, s.oc_bn)?;
        let mult: Vec<f32> = qw.scales.iter().map(|w| w / 127.0).collect();
        let mut out = Tensor::zeros(
            [1, p.out_channels, p.out_h(), p.out_w()],
            Layout::NchwC(s.oc_bn),
        )?;
        let quant = ConvQuant {
            mult: &mult,
            zero_point: 128,
        };
        let secs = best_of(|| {
            conv2d_nchwc_u8(
                &input,
                &qw.tensor,
                &mut out,
                p,
                s,
                &quant,
                &Epilogue::none(),
                &Sequential,
                target.max_lanes(),
                None,
            )
            .map_err(Into::into)
        })?;
        best = best.min(secs * 1e6);
    }
    Ok(best)
}

/// Computed bytes (read plus written) over time, GB/s, of quantizing 1 Mi
/// f32 values to u8.
fn quantize_gbps() -> Res<f64> {
    const N: usize = 1 << 20;
    let mut rng = Rng::new(2);
    let src: Vec<f32> = (0..N).map(|_| rng.next_f64() as f32 * 8.0 - 4.0).collect();
    let mut dst = vec![0u8; N];
    let secs = best_of(|| {
        quantize_slice(std::hint::black_box(&src), &mut dst, 4.0 / 127.0, 128);
        std::hint::black_box(&mut dst);
        Ok(())
    })?;
    Ok((N * 5) as f64 / 1e9 / secs)
}

/// Computed bytes over time, GB/s, of re-blocking a [1,256,56,56] activation
/// NCHW16c → NCHW8c and back.
fn transform_gbps() -> Res<f64> {
    let shape = [1, 256, 56, 56];
    let mut wide = Tensor::random(shape, Layout::NchwC(16), 3, 1.0)?;
    let mut narrow = Tensor::zeros(shape, Layout::NchwC(8))?;
    let down = best_of(|| to_layout_into(&wide, &mut narrow).map_err(Into::into))?;
    let up = best_of(|| to_layout_into(&narrow, &mut wide).map_err(Into::into))?;
    let bytes = (wide.num_elements() * 4 * 2) as f64;
    Ok(2.0 * bytes / 1e9 / (down + up))
}

/// Mean cost of an empty parallel region on `pool`, µs. The first batch of
/// regions is not timed: a fresh pool's worker starts parked, and the
/// scheduler needs a few milliseconds to move the calling thread off the
/// core the worker is bound to.
fn region_overhead_us(pool: &ThreadPool) -> f64 {
    const REGIONS: usize = 2000;
    let parts = pool.num_threads();
    let batch = || {
        let t = Instant::now();
        for _ in 0..REGIONS {
            pool.run(parts, &|_, _| {});
        }
        t.elapsed().as_secs_f64() * 1e6 / REGIONS as f64
    };
    batch();
    batch()
}

/// Runs every fixed-shape probe and sets its metric. `smoke` divides the
/// channel counts by four, as `ModelScale::tiny` does, so that a debug build
/// gets through them in seconds; those numbers are not comparable with a
/// full run's.
pub fn fixed_shapes(values: &mut Values, pool: &ThreadPool, smoke: bool) -> Res<()> {
    let target = CpuTarget::host();
    let c = |channels: usize| if smoke { channels / 4 } else { channels };
    let dense3x3 = Conv2dParams::square(c(128), c(128), 28, 3, 1, 1);
    let pointwise = Conv2dParams::square(c(512), c(512), 14, 1, 1, 0);
    values.set("kernels.dense3x3_us", f32_conv_us(&dense3x3, &target));
    values.set(
        "kernels.dense1x1_us",
        f32_conv_us(&Conv2dParams::square(c(256), c(1024), 14, 1, 1, 0), &target),
    );
    values.set("kernels.pointwise_us", f32_conv_us(&pointwise, &target));
    values.set(
        "kernels.depthwise3x3_us",
        f32_conv_us(&Conv2dParams::depthwise(c(512), 14, 3, 1, 1), &target),
    );
    values.set(
        "kernels.int8_dense3x3_us",
        int8_conv_us(&dense3x3, &target)?,
    );
    values.set(
        "kernels.int8_pointwise_us",
        int8_conv_us(&pointwise, &target)?,
    );
    values.set("kernels.quantize_gbps", quantize_gbps()?);
    values.set("tensor.transform_gbps", transform_gbps()?);
    values.set("threadpool.region_overhead_us", region_overhead_us(pool));
    Ok(())
}
