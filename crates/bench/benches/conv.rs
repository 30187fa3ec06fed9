//! Criterion microbenchmarks for the convolution template: the blocked
//! `NCHW[x]c` kernel against the NCHW/NHWC reference kernels on
//! representative ResNet-50 layer shapes, plus the schedule knobs
//! (`reg_n`, `unroll_ker`, SIMD-lane caps) in isolation — the data behind
//! the Table 3 "Layout Opt." row at the single-operation level.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neocpu_kernels::conv::{
    conv2d_nchw_direct, conv2d_nchwc, conv2d_nhwc_direct, Conv2dParams, ConvSchedule, Epilogue,
};
use neocpu_tensor::{transform::to_layout, Layout, Tensor};
use neocpu_threadpool::Sequential;

fn blocked_io(p: &Conv2dParams, s: &ConvSchedule) -> (Tensor, Tensor, Tensor) {
    let input = Tensor::random([1, p.in_channels, p.in_h, p.in_w], Layout::Nchw, 1, 1.0)
        .expect("valid input");
    let weights = Tensor::random(
        [p.out_channels, p.in_channels, p.kernel_h, p.kernel_w],
        Layout::Oihw,
        2,
        1.0,
    )
    .expect("valid weights");
    let bi = to_layout(&input, Layout::NchwC(s.ic_bn)).expect("blockable");
    let bw = to_layout(&weights, Layout::OihwIo { i: s.ic_bn, o: s.oc_bn }).expect("blockable");
    let out = Tensor::zeros([1, p.out_channels, p.out_h(), p.out_w()], Layout::NchwC(s.oc_bn))
        .expect("valid output");
    (bi, bw, out)
}

/// NCHW vs NHWC vs blocked template on a mid-network ResNet shape.
fn bench_layout_families(c: &mut Criterion) {
    // conv3_x-like shape kept small so Criterion stays quick.
    let p = Conv2dParams::square(128, 128, 28, 3, 1, 1);
    let s = ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 16, unroll_ker: true, ..Default::default() };
    let mut group = c.benchmark_group("conv_layouts");
    group.sample_size(10);

    let input = Tensor::random([1, 128, 28, 28], Layout::Nchw, 1, 1.0).expect("input");
    let weights = Tensor::random([128, 128, 3, 3], Layout::Oihw, 2, 1.0).expect("weights");
    let mut out = Tensor::zeros([1, 128, 28, 28], Layout::Nchw).expect("out");
    group.bench_function("nchw_direct", |b| {
        b.iter(|| {
            conv2d_nchw_direct(&input, &weights, &mut out, &p, &Epilogue::none(), &Sequential)
                .expect("conv")
        })
    });

    let nhwc = to_layout(&input, Layout::Nhwc).expect("nhwc");
    let mut out_nhwc = Tensor::zeros([1, 128, 28, 28], Layout::Nhwc).expect("out");
    group.bench_function("nhwc_direct", |b| {
        b.iter(|| {
            conv2d_nhwc_direct(&nhwc, &weights, &mut out_nhwc, &p, &Epilogue::none(), &Sequential)
                .expect("conv")
        })
    });

    let (bi, bw, mut bo) = blocked_io(&p, &s);
    group.bench_function("nchwc_template", |b| {
        b.iter(|| {
            conv2d_nchwc(&bi, &bw, &mut bo, &p, &s, &Epilogue::none(), &Sequential, usize::MAX, None)
                .expect("conv")
        })
    });
    group.finish();
}

/// Register-blocking factor sweep (the `reg_n` axis of the tuple).
fn bench_reg_n(c: &mut Criterion) {
    let p = Conv2dParams::square(64, 64, 56, 3, 1, 1);
    let mut group = c.benchmark_group("conv_reg_n");
    group.sample_size(10);
    for reg_n in [2usize, 4, 8, 16, 28] {
        let s = ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n, unroll_ker: true, ..Default::default() };
        let (bi, bw, mut bo) = blocked_io(&p, &s);
        group.bench_with_input(BenchmarkId::from_parameter(reg_n), &reg_n, |b, _| {
            b.iter(|| {
                conv2d_nchwc(&bi, &bw, &mut bo, &p, &s, &Epilogue::none(), &Sequential, usize::MAX, None)
                    .expect("conv")
            })
        });
    }
    group.finish();
}

/// Kernel-loop unrolling on small kernels.
fn bench_unroll(c: &mut Criterion) {
    let p = Conv2dParams::square(64, 64, 28, 3, 1, 1);
    let mut group = c.benchmark_group("conv_unroll");
    group.sample_size(10);
    for unroll in [false, true] {
        let s = ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 16, unroll_ker: unroll, ..Default::default() };
        let (bi, bw, mut bo) = blocked_io(&p, &s);
        group.bench_with_input(BenchmarkId::from_parameter(unroll), &unroll, |b, _| {
            b.iter(|| {
                conv2d_nchwc(&bi, &bw, &mut bo, &p, &s, &Epilogue::none(), &Sequential, usize::MAX, None)
                    .expect("conv")
            })
        });
    }
    group.finish();
}

/// SIMD microkernel tiers: AVX-512 (oc_bn 16) vs AVX2 (oc_bn 8) vs the
/// portable scalar path (lane cap 1).
fn bench_isa_tiers(c: &mut Criterion) {
    let p = Conv2dParams::square(64, 64, 28, 3, 1, 1);
    let mut group = c.benchmark_group("conv_isa");
    group.sample_size(10);
    for (label, oc_bn, lanes) in
        [("avx512_16", 16usize, usize::MAX), ("avx2_8", 8, 8), ("scalar", 16, 1)]
    {
        let s = ConvSchedule { ic_bn: 16, oc_bn, reg_n: 16, unroll_ker: true, ..Default::default() };
        let (bi, bw, mut bo) = blocked_io(&p, &s);
        group.bench_function(label, |b| {
            b.iter(|| {
                conv2d_nchwc(&bi, &bw, &mut bo, &p, &s, &Epilogue::none(), &Sequential, lanes, None)
                    .expect("conv")
            })
        });
    }
    group.finish();
}

/// The dataflow axis of the schedule tuple: the same stride-1 3×3 workload
/// through the output-stationary and shift-reuse strip microkernels
/// (EXPERIMENTS.md E13).
fn bench_dataflow(c: &mut Criterion) {
    use neocpu_kernels::conv::Dataflow;
    let p = Conv2dParams::square(64, 64, 56, 3, 1, 1);
    let mut group = c.benchmark_group("conv_dataflow");
    group.sample_size(10);
    for dataflow in Dataflow::ALL {
        let s = ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 16, unroll_ker: true, dataflow };
        let (bi, bw, mut bo) = blocked_io(&p, &s);
        group.bench_function(dataflow.token(), |b| {
            b.iter(|| {
                conv2d_nchwc(&bi, &bw, &mut bo, &p, &s, &Epilogue::none(), &Sequential, usize::MAX, None)
                    .expect("conv")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_layout_families,
    bench_reg_n,
    bench_unroll,
    bench_isa_tiers,
    bench_dataflow
);
criterion_main!(benches);
