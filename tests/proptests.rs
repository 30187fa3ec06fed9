//! Cross-crate property-based tests on the stack's core invariants.

use neocpu_kernels::conv::{
    conv2d_nchw_direct, conv2d_nchwc, padded_input_len, simd_strip_exists, strip_plan,
    Conv2dParams, ConvSchedule, Dataflow, Epilogue,
};
use neocpu_tensor::{transform::to_layout, DType, Layout, Tensor};
use neocpu_threadpool::{split_even, Sequential};
use proptest::prelude::*;

/// Factors of `n` (helper for valid blocking choices).
fn factors(n: usize) -> Vec<usize> {
    (1..=n).filter(|&d| n.is_multiple_of(d)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// NCHW → NCHW[x]c → NCHW is the identity for any valid block factor.
    #[test]
    fn transform_round_trip_is_identity(
        n in 1usize..3,
        c in 1usize..33,
        h in 1usize..9,
        w in 1usize..9,
        fsel in 0usize..6,
        seed in 0u64..1000,
    ) {
        let fs = factors(c);
        let x = fs[fsel % fs.len()];
        let t = Tensor::random([n, c, h, w], Layout::Nchw, seed, 1.0).unwrap();
        let blocked = to_layout(&t, Layout::NchwC(x)).unwrap();
        let back = to_layout(&blocked, Layout::Nchw).unwrap();
        prop_assert_eq!(t.data(), back.data());
    }

    /// Re-blocking directly equals re-blocking through plain NCHW.
    #[test]
    fn reblock_equals_round_trip(
        c in 1usize..25,
        h in 1usize..6,
        w in 1usize..6,
        fa in 0usize..5,
        fb in 0usize..5,
        seed in 0u64..1000,
    ) {
        let fs = factors(c);
        let (a, b) = (fs[fa % fs.len()], fs[fb % fs.len()]);
        let t = Tensor::random([1, c, h, w], Layout::Nchw, seed, 1.0).unwrap();
        let ta = to_layout(&t, Layout::NchwC(a)).unwrap();
        let direct = to_layout(&ta, Layout::NchwC(b)).unwrap();
        let via = to_layout(&to_layout(&ta, Layout::Nchw).unwrap(), Layout::NchwC(b)).unwrap();
        prop_assert_eq!(direct.data(), via.data());
    }

    /// The blocked convolution template agrees with the naive reference for
    /// arbitrary workloads and valid schedules.
    #[test]
    fn blocked_conv_matches_reference(
        cin_sel in 0usize..4,
        cout_sel in 0usize..4,
        size in 5usize..12,
        kernel_sel in 0usize..3,
        stride in 1usize..3,
        ic_sel in 0usize..4,
        oc_sel in 0usize..4,
        reg_sel in 0usize..4,
        seed in 0u64..500,
    ) {
        let cin = [3, 4, 6, 8][cin_sel];
        let cout = [2, 4, 5, 8][cout_sel];
        let kernel = [1, 3, 5][kernel_sel];
        let pad = kernel / 2;
        let p = Conv2dParams::square(cin, cout, size, kernel, stride, pad);
        prop_assume!(p.out_h() > 0 && p.out_w() > 0);
        let fin = factors(cin);
        let fout = factors(cout);
        let s = ConvSchedule {
            ic_bn: fin[ic_sel % fin.len()],
            oc_bn: fout[oc_sel % fout.len()],
            reg_n: [2, 4, 8, 16][reg_sel],
            ..Default::default()
        };
        let input = Tensor::random([1, cin, size, size], Layout::Nchw, seed, 1.0).unwrap();
        let weights =
            Tensor::random([cout, cin, kernel, kernel], Layout::Oihw, seed + 1, 1.0).unwrap();

        let mut reference =
            Tensor::zeros([1, cout, p.out_h(), p.out_w()], Layout::Nchw).unwrap();
        conv2d_nchw_direct(&input, &weights, &mut reference, &p, &Epilogue::none(), &Sequential)
            .unwrap();

        let bi = to_layout(&input, Layout::NchwC(s.ic_bn)).unwrap();
        let bw = to_layout(&weights, Layout::OihwIo { i: s.ic_bn, o: s.oc_bn }).unwrap();
        let mut out =
            Tensor::zeros([1, cout, p.out_h(), p.out_w()], Layout::NchwC(s.oc_bn)).unwrap();
        conv2d_nchwc(&bi, &bw, &mut out, &p, &s, &Epilogue::none(), &Sequential, usize::MAX, None)
            .unwrap();
        prop_assert!(
            reference.approx_eq(&out, 1e-3),
            "diff {}",
            reference.max_abs_diff(&out)
        );
    }

    /// The depthwise template agrees with the grouped scalar reference for
    /// arbitrary channel counts, strides, paddings and block factors — with
    /// the padded-input scratch poisoned with NaN, so any tap outside the
    /// written region shows up as a mismatch.
    #[test]
    fn depthwise_conv_matches_reference(
        c_sel in 0usize..5,
        size in 5usize..12,
        kernel_sel in 0usize..2,
        stride in 1usize..3,
        bn_sel in 0usize..4,
        reg_sel in 0usize..4,
        batch in 1usize..3,
        seed in 0u64..500,
    ) {
        let c = [3, 6, 8, 16, 24][c_sel];
        let kernel = [3, 5][kernel_sel];
        let pad = kernel / 2;
        let p = Conv2dParams::depthwise(c, size, kernel, stride, pad);
        prop_assume!(p.out_h() > 0 && p.out_w() > 0);
        let fs = factors(c);
        let bn = fs[bn_sel % fs.len()];
        let s = ConvSchedule {
            ic_bn: bn,
            oc_bn: bn,
            reg_n: [1, 2, 4, 8][reg_sel],
            ..Default::default()
        };
        let input = Tensor::random([batch, c, size, size], Layout::Nchw, seed, 1.0).unwrap();
        let weights =
            Tensor::random([c, 1, kernel, kernel], Layout::Oihw, seed + 1, 1.0).unwrap();

        let mut reference =
            Tensor::zeros([batch, c, p.out_h(), p.out_w()], Layout::Nchw).unwrap();
        conv2d_nchw_direct(&input, &weights, &mut reference, &p, &Epilogue::none(), &Sequential)
            .unwrap();

        let bi = to_layout(&input, Layout::NchwC(bn)).unwrap();
        let bw = to_layout(&weights, Layout::OihwIo { i: 1, o: bn }).unwrap();
        let mut out =
            Tensor::zeros([batch, c, p.out_h(), p.out_w()], Layout::NchwC(bn)).unwrap();
        let mut scratch = vec![f32::NAN; padded_input_len(&p, bn, batch)];
        let scratch_arg = (!scratch.is_empty()).then_some(scratch.as_mut_slice());
        conv2d_nchwc(
            &bi, &bw, &mut out, &p, &s, &Epilogue::none(), &Sequential, usize::MAX, scratch_arg,
        )
        .unwrap();
        prop_assert!(
            reference.approx_eq(&out, 1e-3),
            "diff {}",
            reference.max_abs_diff(&out)
        );
    }

    /// The candidate generator never returns an empty set, and everything
    /// it returns validates — including prime and otherwise irregular
    /// channel counts where the preferred block factors don't divide.
    #[test]
    fn conv_candidates_never_empty(
        cin in 1usize..67,
        cout in 1usize..67,
        size in 1usize..15,
        kernel_sel in 0usize..3,
        stride in 1usize..3,
        depthwise in any::<bool>(),
        max_block_sel in 0usize..3,
    ) {
        let kernel = [1, 3, 5][kernel_sel];
        let pad = kernel / 2;
        let p = if depthwise {
            Conv2dParams::depthwise(cin, size, kernel, stride, pad)
        } else {
            Conv2dParams::square(cin, cout, size, kernel, stride, pad)
        };
        prop_assume!(p.out_h() > 0 && p.out_w() > 0);
        let max_block = [8, 16, 64][max_block_sel];
        let cands = ConvSchedule::candidates(&p, max_block);
        prop_assert!(!cands.is_empty(), "no candidates for {p:?}");
        for s in &cands {
            prop_assert!(s.validate(&p).is_ok(), "invalid candidate {s:?} for {p:?}");
        }
    }

    /// Whatever the block, lane cap, dataflow, kernel width, element type and
    /// `reg_n` — candidates or not — a strip plan tiles its row exactly with non-empty
    /// strips no longer than `reg_n`, and where a tier serves the block it
    /// uses that tier's strips only.
    #[test]
    fn strip_plan_tiles_any_row(
        oc_sel in 0usize..5,
        lanes_sel in 0usize..3,
        shift_reuse in any::<bool>(),
        kw_sel in 0usize..5,
        reg_n in 1usize..29,
        width in 0usize..5000,
        int8 in any::<bool>(),
    ) {
        let act = if int8 { DType::U8 } else { DType::F32 };
        let oc_bn = [1, 4, 8, 16, 32][oc_sel];
        let max_lanes = [1, 8, 16][lanes_sel];
        let kw = [1, 2, 3, 5, 7][kw_sel];
        let df = if shift_reuse { Dataflow::ShiftReuse } else { Dataflow::OutputStationary };
        let served = oc_bn <= max_lanes && simd_strip_exists(oc_bn, df, 1, kw, act);
        let mut covered = 0usize;
        for len in strip_plan(oc_bn, max_lanes, df, kw, reg_n, width, act) {
            prop_assert!(len >= 1 && len <= reg_n, "strip of {len} under reg_n {reg_n}");
            prop_assert!(!served || simd_strip_exists(oc_bn, df, len, kw, act), "{len} not in the table");
            covered += len;
        }
        prop_assert_eq!(covered, width);
    }

    /// An arbitrary *invalid* schedule must surface as `Err` from the
    /// blocked convolution — never a panic or an out-of-bounds access.
    #[test]
    fn invalid_schedule_errors_never_panic(
        ic_bn in 0usize..40,
        oc_bn in 0usize..40,
        reg_n in 0usize..40,
        seed in 0u64..200,
    ) {
        let p = Conv2dParams::square(12, 20, 8, 3, 1, 1);
        let s = ConvSchedule { ic_bn, oc_bn, reg_n, ..Default::default() };
        prop_assume!(s.validate(&p).is_err());
        let input = Tensor::random([1, 12, 8, 8], Layout::Nchw, seed, 1.0).unwrap();
        let weights = Tensor::random([20, 12, 3, 3], Layout::Oihw, seed + 1, 1.0).unwrap();
        let mut out = Tensor::zeros([1, 20, 8, 8], Layout::Nchw).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            conv2d_nchwc(&input, &weights, &mut out, &p, &s, &Epilogue::none(), &Sequential, 16, None)
        }));
        match caught {
            Ok(res) => prop_assert!(res.is_err(), "invalid schedule {s:?} was accepted"),
            Err(_) => prop_assert!(false, "conv2d_nchwc panicked on invalid schedule {s:?}"),
        }
    }

    /// Static loop partitioning covers the range exactly once with balanced
    /// chunk sizes.
    #[test]
    fn split_even_partitions(total in 0usize..10_000, parts in 1usize..64) {
        let ranges = split_even(total, parts);
        let mut covered = 0usize;
        let mut next = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, next);
            covered += r.len();
            next = r.end;
        }
        prop_assert_eq!(covered, total);
        if !ranges.is_empty() {
            let max = ranges.iter().map(|r| r.len()).max().unwrap();
            let min = ranges.iter().map(|r| r.len()).min().unwrap();
            prop_assert!(max - min <= 1);
        }
    }
}

/// Plain scalar pooling reference: same window semantics as
/// `neocpu_kernels::pool2d` (padding excluded from max and from the avg
/// divisor; a window entirely in padding defensively yields `0.0`), with
/// the loop order matched so results are bit-identical, not approximate.
#[allow(clippy::too_many_arguments)]
fn pool_reference(
    src: &[f32],
    n: usize,
    c: usize,
    ih: usize,
    iw: usize,
    p: &neocpu_kernels::pool2d::Pool2dParams,
    kind: neocpu_kernels::pool2d::PoolKind,
) -> Vec<f32> {
    use neocpu_kernels::pool2d::PoolKind;
    let (oh, ow) = (p.out_h(ih), p.out_w(iw));
    let mut out = Vec::with_capacity(n * c * oh * ow);
    for img in 0..n {
        for ch in 0..c {
            let plane = (img * c + ch) * ih * iw;
            for y in 0..oh {
                for x in 0..ow {
                    let mut acc = match kind {
                        PoolKind::Max => f32::NEG_INFINITY,
                        PoolKind::Avg => 0.0,
                    };
                    let mut count = 0usize;
                    for r in 0..p.kernel_h {
                        let yy = (y * p.stride_h + r) as isize - p.pad_h as isize;
                        if yy < 0 || yy as usize >= ih {
                            continue;
                        }
                        for s in 0..p.kernel_w {
                            let xx = (x * p.stride_w + s) as isize - p.pad_w as isize;
                            if xx < 0 || xx as usize >= iw {
                                continue;
                            }
                            let v = src[plane + yy as usize * iw + xx as usize];
                            match kind {
                                PoolKind::Max => acc = acc.max(v),
                                PoolKind::Avg => acc += v,
                            }
                            count += 1;
                        }
                    }
                    out.push(if count == 0 {
                        0.0
                    } else {
                        match kind {
                            PoolKind::Max => acc,
                            PoolKind::Avg => acc / count as f32,
                        }
                    });
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Pooling agrees with the scalar reference for arbitrary window
    /// geometry — ceil mode on and off, stride larger than the kernel,
    /// asymmetric padding — no non-finite value escapes (the padding-only
    /// ceil-mode window bug), the output dims obey the PyTorch/ONNX clamp
    /// (every window starts inside `input + left padding`), and the
    /// blocked `NCHW[x]c` path matches plain NCHW.
    #[test]
    fn pooling_matches_scalar_reference(
        c in 1usize..9,
        ih in 1usize..11,
        iw in 1usize..11,
        kh in 1usize..5,
        kw in 1usize..5,
        sh in 1usize..5,
        sw in 1usize..5,
        ph_sel in 0usize..4,
        pw_sel in 0usize..4,
        ceil in any::<bool>(),
        max_pool in any::<bool>(),
        seed in 0u64..10_000,
    ) {
        use neocpu_kernels::pool2d::{pool2d, Pool2dParams, PoolKind};

        let p = Pool2dParams {
            kernel_h: kh,
            kernel_w: kw,
            stride_h: sh,
            stride_w: sw,
            // Padding stays below the kernel (the pooling convention);
            // pad_h and pad_w are drawn independently, so asymmetric
            // configurations are covered.
            pad_h: ph_sel % kh,
            pad_w: pw_sel % kw,
            ceil_mode: ceil,
        };
        let (oh, ow) = (p.out_h(ih), p.out_w(iw));
        prop_assume!(oh > 0 && ow > 0);
        // Convention clamp: every output window must start inside the
        // input plus left padding (otherwise max pooling reduces over
        // nothing and would emit -inf).
        prop_assert!((oh - 1) * sh < ih + p.pad_h);
        prop_assert!((ow - 1) * sw < iw + p.pad_w);

        let kind = if max_pool { PoolKind::Max } else { PoolKind::Avg };
        let input = Tensor::random([1, c, ih, iw], Layout::Nchw, seed, 1.0).unwrap();
        let reference = pool_reference(input.data(), 1, c, ih, iw, &p, kind);

        let mut out = Tensor::zeros([1, c, oh, ow], Layout::Nchw).unwrap();
        pool2d(&input, &mut out, &p, kind, &Sequential).unwrap();
        prop_assert!(out.data().iter().all(|v| v.is_finite()),
            "non-finite pooling output for {p:?}");
        prop_assert_eq!(out.data(), reference.as_slice());

        // Blocked layout must agree with NCHW for any valid block factor.
        let block = *factors(c).last().unwrap();
        let bi = to_layout(&input, Layout::NchwC(block)).unwrap();
        let mut bo = Tensor::zeros([1, c, oh, ow], Layout::NchwC(block)).unwrap();
        pool2d(&bi, &mut bo, &p, kind, &Sequential).unwrap();
        let back = to_layout(&bo, Layout::Nchw).unwrap();
        prop_assert_eq!(back.data(), reference.as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Whole-pipeline equivalence on randomly shaped mini-CNNs: the O2
    /// pipeline must agree with O0 for any architecture the builder can
    /// express.
    #[test]
    fn random_mini_cnn_pipeline_equivalence(
        c1 in 1usize..3,
        width_sel in 0usize..3,
        kernel_sel in 0usize..2,
        with_pool in any::<bool>(),
        with_residual in any::<bool>(),
        seed in 0u64..100,
    ) {
        use neocpu::{compile, CompileOptions, CpuTarget, OptLevel};
        use neocpu_graph::GraphBuilder;

        let width = [8usize, 12, 16][width_sel];
        let kernel = [1usize, 3][kernel_sel];
        let mut b = GraphBuilder::new(seed);
        let x = b.input([1, 4 * c1, 10, 10]);
        let mut cur = b.conv_bn_relu(x, width, kernel, 1, kernel / 2);
        if with_residual {
            let c2 = b.conv2d_opts(cur, width, 3, 1, 1, false);
            let bn = b.batch_norm(c2);
            let a = b.add(bn, cur);
            cur = b.relu(a);
        }
        if with_pool {
            cur = b.max_pool(cur, 2, 2, 0);
        }
        let f = b.flatten(cur);
        let d = b.dense(f, 5);
        let s = b.softmax(d);
        let g = b.finish(vec![s]);

        let input = Tensor::random([1, 4 * c1, 10, 10], Layout::Nchw, seed + 7, 1.0).unwrap();
        let target = CpuTarget::host();
        let o0 = compile(&g, &target, &CompileOptions::level(OptLevel::O0)).unwrap();
        let o2 = compile(&g, &target, &CompileOptions::level(OptLevel::O2)).unwrap();
        let a = o0.run(std::slice::from_ref(&input)).unwrap();
        let b2 = o2.run(std::slice::from_ref(&input)).unwrap();
        prop_assert!(a[0].approx_eq(&b2[0], 1e-3), "diff {}", a[0].max_abs_diff(&b2[0]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// u8 affine quantization round-trips within half a quantization step:
    /// any representable grid point perturbed by less than `scale/2` comes
    /// back within `scale/2` — including at the saturating edges (codes 0
    /// and 255), where clamping absorbs the outward jitter.
    #[test]
    fn quantize_round_trip_is_bounded(
        scale_mil in 1u32..5000,
        zp in any::<u8>(),
        code in any::<u8>(),
        jitter_mil in -499i32..500,
    ) {
        use neocpu_kernels::quantize::{dequantize_value, quantize_value};
        let scale = scale_mil as f32 / 1000.0;
        let x = dequantize_value(code, scale, zp) + scale * (jitter_mil as f32 / 1000.0);
        let back = dequantize_value(quantize_value(x, scale, zp), scale, zp);
        prop_assert!(
            (x - back).abs() <= scale / 2.0 + scale * 1e-5,
            "x {x} back {back} scale {scale} zp {zp}"
        );
    }

    /// Quantization saturates deterministically for every scale/zero-point:
    /// NaN maps to the zero point, ±inf and arbitrarily-far out-of-range
    /// values clamp to the representable edges — never a UB float→int cast,
    /// never a value-dependent surprise.
    #[test]
    fn quantize_saturation_is_deterministic(
        scale_mil in 1u32..5000,
        zp in any::<u8>(),
        mag in 1.0f32..1e30,
    ) {
        use neocpu_kernels::quantize::{dequantize_value, quantize_value};
        let scale = scale_mil as f32 / 1000.0;
        prop_assert_eq!(quantize_value(f32::NAN, scale, zp), zp);
        prop_assert_eq!(quantize_value(f32::INFINITY, scale, zp), 255);
        prop_assert_eq!(quantize_value(f32::NEG_INFINITY, scale, zp), 0);
        let hi = dequantize_value(255, scale, zp);
        let lo = dequantize_value(0, scale, zp);
        // `+ mag * scale` may overflow to inf — saturation must hold anyway.
        prop_assert_eq!(quantize_value(hi + mag * scale, scale, zp), 255);
        prop_assert_eq!(quantize_value(lo - mag * scale, scale, zp), 0);
    }

    /// Every body of the quantize primitive is `quantize_value`, bit for
    /// bit: the scalar loop, AVX2 and AVX-512 (lane caps 1, 8, 16 reach each
    /// on one host) over arbitrary bit patterns — NaN payloads, ±inf,
    /// denormals — exact `.5` ties on both sides of zero (a power-of-two
    /// scale makes the quotient exact), the values one ulp around every tie,
    /// and quotients out to ±1e30; at every length 0..=67 (all tail lengths
    /// of both vector widths) and unaligned offsets into both buffers, with
    /// guard bytes that a store past the slice would clobber. The dequantized
    /// codes are always finite.
    #[test]
    fn quantize_bodies_are_quantize_value_bit_for_bit(
        len in 0usize..68,
        src_off in 0usize..5,
        dst_off in 0usize..9,
        scale_sel in 0usize..4,
        scale_mil in 1u32..5000,
        zp in any::<u8>(),
        seed in any::<u64>(),
    ) {
        use neocpu_kernels::quantize::{
            dequantize_slice, dequantize_value, quantize_slice, quantize_slice_par, quantize_value,
        };
        let scale = [0.25, 1.0 / 128.0, 3.0, scale_mil as f32 / 1000.0][scale_sel];
        let mut state = seed;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut src = vec![0f32; src_off + len];
        for v in &mut src[src_off..] {
            let r = next();
            let tie = ((r >> 8) % 601) as f32 - 300.0 + 0.5;
            *v = match r % 8 {
                0 | 1 => f32::from_bits((r >> 32) as u32),
                2 => tie * scale,
                3 => f32::from_bits((tie * scale).to_bits() + 1),
                4 => f32::from_bits((tie * scale).to_bits() - 1),
                5 => ((r >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0) * 1e30 * scale,
                6 => f32::from_bits((r >> 40) as u32 & 0x807f_ffff),
                _ => [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0]
                    [(r >> 8) as usize % 6],
            };
        }
        let src = &src[src_off..];
        let want: Vec<u8> = src.iter().map(|&x| quantize_value(x, scale, zp)).collect();
        const GUARD: u8 = 0xa5;
        for cap in [1usize, 8, 16] {
            let mut out = vec![GUARD; dst_off + len + 16];
            quantize_slice_par(src, &mut out[dst_off..dst_off + len], scale, zp, &Sequential, cap);
            prop_assert_eq!(&out[dst_off..dst_off + len], &want[..], "lane cap {}", cap);
            prop_assert!(out[..dst_off].iter().chain(&out[dst_off + len..]).all(|&b| b == GUARD));
        }
        let mut q = vec![0u8; len];
        quantize_slice(src, &mut q, scale, zp);
        prop_assert_eq!(&q, &want);
        let mut back = vec![0f32; len];
        dequantize_slice(&q, &mut back, scale, zp);
        for (&c, &b) in q.iter().zip(&back) {
            prop_assert!(b.is_finite());
            prop_assert_eq!(b, dequantize_value(c, scale, zp));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The memory planner's interval packing never hands overlapping arena
    /// regions to values whose live ranges overlap, keeps every offset
    /// vector-aligned, and never exceeds the arena length it reports.
    #[test]
    fn live_range_packing_never_overlaps(
        count in 1usize..24,
        seed in 0u64..1_000_000,
    ) {
        use neocpu::memory::{pack_live_ranges, LiveRange, ALIGN_ELEMS};

        let mut rng = TestRng::new(seed);
        let ranges: Vec<LiveRange> = (0..count)
            .map(|_| {
                let start = (rng.next_u64() % 24) as usize;
                let dur = (rng.next_u64() % 12) as usize;
                // A few pinned ranges (graph outputs live forever).
                let end = if rng.next_u64().is_multiple_of(8) { usize::MAX } else { start + dur };
                let len = 1 + (rng.next_u64() % 300) as usize;
                LiveRange { start, end, len }
            })
            .collect();
        let (offsets, arena_len) = pack_live_ranges(&ranges);
        prop_assert_eq!(offsets.len(), ranges.len());
        for (r, &off) in ranges.iter().zip(&offsets) {
            prop_assert!(off.is_multiple_of(ALIGN_ELEMS), "offset {} unaligned", off);
            prop_assert!(off + r.len <= arena_len, "region [{}, {}) beyond arena {}",
                off, off + r.len, arena_len);
        }
        for i in 0..ranges.len() {
            for j in i + 1..ranges.len() {
                if ranges[i].overlaps(&ranges[j]) {
                    let (a0, a1) = (offsets[i], offsets[i] + ranges[i].len);
                    let (b0, b1) = (offsets[j], offsets[j] + ranges[j].len);
                    prop_assert!(
                        a1 <= b0 || b1 <= a0,
                        "live-overlapping ranges {} and {} share arena bytes: \
                         [{}, {}) vs [{}, {})", i, j, a0, a1, b0, b1
                    );
                }
            }
        }
    }
}

/// Every tiny zoo model after the passes that precede layout planning.
fn prepared_tiny_zoo() -> &'static [(&'static str, neocpu_graph::Graph)] {
    use neocpu_graph::passes::{fuse_ops, simplify_inference};
    use neocpu_models::{build, zoo, ModelScale};
    static ZOO: std::sync::OnceLock<Vec<(&'static str, neocpu_graph::Graph)>> =
        std::sync::OnceLock::new();
    ZOO.get_or_init(|| {
        let prepare = |g| fuse_ops(&simplify_inference(&g).unwrap()).unwrap();
        zoo().into_iter().map(|k| (k.name(), prepare(build(k, ModelScale::tiny(k), 42)))).collect()
    })
}

/// The module graph of every tiny quantized-zoo model compiled int8 at O2
/// and O3: `Quantize` nodes placed, folded where they can be, weights packed.
fn int8_tiny_module_graphs() -> &'static [(String, neocpu_graph::Graph)] {
    use neocpu::{compile_quantized, CompileOptions, CpuTarget, OptLevel, QuantizeOptions};
    use neocpu_models::{build, quantized_zoo, ModelScale};
    static GRAPHS: std::sync::OnceLock<Vec<(String, neocpu_graph::Graph)>> =
        std::sync::OnceLock::new();
    GRAPHS.get_or_init(|| {
        let mut graphs = Vec::new();
        for kind in quantized_zoo() {
            let g = build(kind, ModelScale::tiny(kind), 42);
            for level in [OptLevel::O2, OptLevel::O3] {
                let opts = CompileOptions::level(level);
                let (m, report) =
                    compile_quantized(&g, &CpuTarget::host(), &opts, &QuantizeOptions::default())
                        .unwrap();
                assert!(report.quantized > 0 && !report.fell_back, "{report:?}");
                graphs.push((format!("{} int8 {level:?}", kind.name()), m.graph().clone()));
            }
        }
        graphs
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// Layout and dtype planning is a fixed point of the placer and clean
    /// under the checker: on every tiny zoo model, a uniform plan (block
    /// drawn from 4, 8, 16) and a plan with a random candidate schedule per
    /// conv, and the int8 modules of the quantized zoo at O2 and O3, come
    /// back from `insert_layout_transforms` node for node, and
    /// `infer_layouts` accepts their layouts and their dtypes.
    #[test]
    fn layout_planning_is_idempotent_and_checker_clean(
        block_sel in 0usize..3,
        seed in any::<u64>(),
    ) {
        use neocpu_graph::passes::{
            insert_layout_transforms, plan_assigned, plan_uniform, UniformPlanCfg,
        };
        use neocpu_graph::{infer_layouts, infer_shapes, Graph, Op};

        let nodes = |g: &Graph| -> Vec<(Op, Vec<usize>)> {
            g.nodes.iter().map(|n| (n.op.clone(), n.inputs.clone())).collect()
        };
        let mut state = seed;
        let cfg = UniformPlanCfg::default();
        for (name, g) in prepared_tiny_zoo() {
            let mut schedules = std::collections::HashMap::new();
            for id in g.conv_ids() {
                let Op::Conv2d { params, .. } = &g.nodes[id].op else { unreachable!() };
                let cands = ConvSchedule::candidates(params, 16);
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                schedules.insert(id, cands[(state >> 33) as usize % cands.len()]);
            }
            let uniform = UniformPlanCfg { block: [4, 8, 16][block_sel], ..cfg };
            let plans = [
                ("uniform", plan_uniform(g, &uniform).unwrap()),
                ("assigned", plan_assigned(g, &schedules, &cfg).unwrap()),
            ];
            for (plan, planned) in plans {
                let again = insert_layout_transforms(&planned).unwrap();
                let same = nodes(&again) == nodes(&planned);
                prop_assert!(same, "{name} {plan}: the placer changed a planned graph");
                prop_assert_eq!(&again.outputs, &planned.outputs);
                let shapes = infer_shapes(&planned).unwrap();
                let checked = infer_layouts(&planned, &shapes);
                prop_assert!(checked.is_ok(), "{name} {plan}: {:?}", checked.err());
            }
        }
        for (module, g) in int8_tiny_module_graphs() {
            let again = insert_layout_transforms(g).unwrap();
            prop_assert!(nodes(&again) == nodes(g), "{module}: the placer changed the graph");
            prop_assert_eq!(&again.outputs, &g.outputs);
            let checked = infer_layouts(g, &infer_shapes(g).unwrap());
            prop_assert!(checked.is_ok(), "{module}: {:?}", checked.err());
            let (_, dtypes) = checked.unwrap();
            prop_assert!(dtypes.contains(&DType::U8), "{module}: no u8 edge");
        }
    }
}
