//! Exhaustive differential test of the conv strip microkernels.
//!
//! Every strip the dispatcher can reach is run — {dense, depthwise} ×
//! {f32, int8} × every [`Dataflow`] × lane cap {1, 8, 16} × every `reg_n`
//! the candidate generator proposes for the element type (plus one no tier
//! holds; the int8 strips also under every f32 length) × stride {1, 2} ×
//! kernel width {1, 3, 5, 7} — with the output and the padded-input scratch
//! poisoned, so a strip that skips a pixel or reads outside the written halo
//! cannot pass by luck. f32 results are held against the NCHW reference;
//! int8 SIMD results must be bit-identical to the scalar strip, and every
//! strip length to every other (integer accumulation is exact).
//!
//! The second half pins the strip dispatch table: a schedule the candidate
//! generator emits for a SIMD block but the table lacks would silently run
//! the scalar fallback and only show up as a slow layer.

use std::collections::HashSet;

use neocpu_kernels::conv::{
    conv2d_nchw_direct, conv2d_nchwc, conv2d_nchwc_u8, fitting_reg_n, padded_input_len,
    reg_n_candidates, simd_strip_exists, Conv2dParams, ConvQuant, ConvSchedule, Dataflow, Epilogue,
};
use neocpu_kernels::quantize::{quantize_dense_weights, quantize_dw_weights};
use neocpu_tensor::{transform::to_layout, DType, Layout, Tensor};
use neocpu_threadpool::Sequential;

/// Output width of every workload: each ladder width gets at least one
/// full strip, and `31 mod reg_n` leaves a remainder for every `reg_n > 1`
/// — 31 = 16+8+4+2+1 = 14+14+2+1 = 7·4+2+1, so every short strip runs too.
const OUT_W: usize = 31;
const OUT_H: usize = 2;
/// A `reg_n` no tier monomorphizes: a SIMD tier runs it as its longest
/// strip below (2), the scalar tier (lane cap 1) as the runtime length 3.
const TAIL_WIDTH: usize = 3;
const LANE_CAPS: [usize; 3] = [1, 8, 16];
const KERNEL_WIDTHS: [usize; 4] = [1, 3, 5, 7];

/// Two channel chunks in, so the strips' input-chunk stride is exercised.
fn workload(depthwise: bool, bn: usize, kernel: usize, stride: usize) -> Conv2dParams {
    let pad = kernel / 2;
    let in_size = |out: usize| (out - 1) * stride + kernel - 2 * pad;
    let base = if depthwise {
        Conv2dParams::depthwise(2 * bn, 1, kernel, stride, pad)
    } else {
        Conv2dParams::square(2 * bn, bn, 1, kernel, stride, pad)
    };
    let p = Conv2dParams { in_h: in_size(OUT_H), in_w: in_size(OUT_W), ..base };
    assert_eq!((p.out_h(), p.out_w()), (OUT_H, OUT_W));
    p
}

/// Every schedule of the matrix for one workload, channel block and
/// activation type.
fn schedules(p: &Conv2dParams, bn: usize, act: DType) -> Vec<ConvSchedule> {
    let mut out = Vec::new();
    for dataflow in Dataflow::ALL {
        let mut widths = reg_n_candidates(bn, dataflow, p.kernel_w, act);
        widths.push(TAIL_WIDTH);
        for reg_n in widths {
            let s = ConvSchedule { ic_bn: bn, oc_bn: bn, reg_n, dataflow };
            // Shift-reuse is undefined for strided workloads.
            if s.validate(p).is_ok() {
                out.push(s);
            }
        }
    }
    out
}

fn for_each_workload(mut f: impl FnMut(&Conv2dParams, usize)) {
    for depthwise in [false, true] {
        for bn in [8, 16] {
            for kernel in KERNEL_WIDTHS {
                for stride in [1, 2] {
                    f(&workload(depthwise, bn, kernel, stride), bn);
                }
            }
        }
    }
}

fn weight_dims(p: &Conv2dParams) -> [usize; 4] {
    [p.out_channels, p.in_channels_per_group(), p.kernel_h, p.kernel_w]
}

fn out_dims(p: &Conv2dParams) -> [usize; 4] {
    [1, p.out_channels, p.out_h(), p.out_w()]
}

#[test]
fn f32_strips_match_the_nchw_reference() {
    let mut runs = 0usize;
    for_each_workload(|p, bn| {
        let seed = (p.kernel_w * 10 + p.stride_w) as u64;
        let input =
            Tensor::random([1, p.in_channels, p.in_h, p.in_w], Layout::Nchw, seed, 1.0).unwrap();
        let weights = Tensor::random(weight_dims(p), Layout::Oihw, seed + 1, 1.0).unwrap();
        let mut reference = Tensor::zeros(out_dims(p), Layout::Nchw).unwrap();
        conv2d_nchw_direct(&input, &weights, &mut reference, p, &Epilogue::none(), &Sequential)
            .unwrap();
        let bi = to_layout(&input, Layout::NchwC(bn)).unwrap();
        let wi = if p.is_depthwise() { 1 } else { bn };
        let bw = to_layout(&weights, Layout::OihwIo { i: wi, o: bn }).unwrap();
        for s in schedules(p, bn, DType::F32) {
            for max_lanes in LANE_CAPS {
                let mut out = Tensor::zeros(out_dims(p), Layout::NchwC(bn)).unwrap();
                out.data_mut().fill(f32::NAN);
                let mut scratch = vec![f32::NAN; padded_input_len(p, bn, 1)];
                let scratch = (!scratch.is_empty()).then_some(scratch.as_mut_slice());
                conv2d_nchwc(
                    &bi, &bw, &mut out, p, &s, &Epilogue::none(), &Sequential, max_lanes, scratch,
                )
                .unwrap();
                // `max_abs_diff` skips NaN (it compares false), so the
                // poison needs its own check.
                assert!(
                    out.data().iter().all(|v| v.is_finite()),
                    "{p:?} {s:?} lanes {max_lanes}: poison survived in the output"
                );
                assert!(
                    reference.approx_eq(&out, 1e-3),
                    "{p:?} {s:?} lanes {max_lanes}: diff {}",
                    reference.max_abs_diff(&out)
                );
                runs += 1;
            }
        }
    });
    // 2 shapes × 2 blocks × 4 widths × 2 strides, ≥ 4 strip lengths × 3
    // lane caps each: a collapsed matrix must not pass.
    assert!(runs >= 32 * 12, "only {runs} strip runs");
}

#[test]
fn int8_simd_strips_are_bit_identical_to_the_scalar_strip() {
    let mut runs = 0usize;
    for_each_workload(|p, bn| {
        let mut input = Tensor::zeros_dtyped(
            [1, p.in_channels, p.in_h, p.in_w],
            Layout::NchwC(bn),
            DType::U8,
        )
        .unwrap();
        // Full-range activations (LCG bytes) so the u8 × i8 pair sums reach
        // the magnitudes the ±63 weight range is sized for.
        let mut state = 0x9E37_79B9u32 ^ (p.kernel_w * 8 + p.stride_w) as u32;
        for b in input.data_u8_mut() {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *b = (state >> 24) as u8;
        }
        let weights = Tensor::random(weight_dims(p), Layout::Oihw, 7, 1.0).unwrap();
        let wq = if p.is_depthwise() {
            quantize_dw_weights(&weights, bn).unwrap()
        } else {
            quantize_dense_weights(&weights, bn, bn).unwrap()
        };
        let mult: Vec<f32> = wq.scales.iter().map(|s| s / 255.0).collect();
        let quant = ConvQuant { mult: &mult, zero_point: 128 };
        let run = |s: &ConvSchedule, max_lanes: usize| {
            let mut out = Tensor::zeros(out_dims(p), Layout::NchwC(bn)).unwrap();
            out.data_mut().fill(f32::NAN);
            let mut scratch = vec![0xAAu8; padded_input_len(p, bn, 1)];
            let scratch = (!scratch.is_empty()).then_some(scratch.as_mut_slice());
            conv2d_nchwc_u8(
                &input, &wq.tensor, &mut out, p, s, &quant, &Epilogue::none(), &Sequential,
                max_lanes, scratch,
            )
            .map(|()| out)
        };
        // The int8 strip lengths, and — the 28 only the f32 table holds among
        // them — every f32 one: a u8 call handed such a `reg_n` runs the
        // longest int8 strip below it.
        let mut all = schedules(p, bn, DType::U8);
        for s in schedules(p, bn, DType::F32) {
            if !all.contains(&s) {
                all.push(s);
            }
        }
        // Exact accumulation also makes the result independent of how a row
        // is cut: every schedule's output is the first one's.
        let mut first: Option<(ConvSchedule, Tensor)> = None;
        for s in all {
            if s.dataflow != Dataflow::OutputStationary {
                // The int8 templates implement one dataflow; anything else
                // must be refused, not silently run as output-stationary.
                assert!(run(&s, usize::MAX).is_err(), "{s:?} accepted by the int8 template");
                continue;
            }
            let scalar = run(&s, 1).unwrap();
            assert!(scalar.data().iter().all(|v| v.is_finite()), "{p:?} {s:?}: poison survived");
            let (s0, want) = first.get_or_insert_with(|| (s, scalar.clone()));
            assert_eq!(want.data(), scalar.data(), "{p:?}: {s:?} differs from {s0:?}");
            for max_lanes in [8, 16] {
                let simd = run(&s, max_lanes).unwrap();
                assert_eq!(
                    scalar.data(),
                    simd.data(),
                    "{p:?} {s:?} lanes {max_lanes} differs from the scalar strip"
                );
                runs += 1;
            }
        }
    });
    // ≥ 6 output-stationary strip lengths × 2 SIMD lane caps per workload.
    assert!(runs >= 32 * 12, "only {runs} strip runs");
}

/// The strip lengths each tier monomorphizes per activation type, written
/// out a second time on purpose: dropping or adding a dispatch-table entry
/// must be a deliberate edit here too — an int8 length above 16 on the
/// AVX-512 row in particular needs a recorded `reg_n` sweep (`layer_rates`)
/// that shows it does not spill. `(lanes, type, dataflow, kernel widths,
/// strip lengths)`.
type TableRow = (usize, DType, Dataflow, &'static [usize], &'static [usize]);
const EXPECTED_TABLE: [TableRow; 10] = [
    (8, DType::F32, Dataflow::OutputStationary, &[1, 3, 5, 7], &[12, 8, 7, 4, 2, 1]),
    (8, DType::F32, Dataflow::ShiftReuse, &[3], &[12, 8, 7, 4, 2, 1]),
    (8, DType::F32, Dataflow::ShiftReuse, &[5], &[10, 8, 4, 2, 1]),
    (8, DType::F32, Dataflow::ShiftReuse, &[7], &[8, 4, 2, 1]),
    (16, DType::F32, Dataflow::OutputStationary, &[1, 3, 5, 7], &[28, 16, 14, 8, 7, 4, 2, 1]),
    (16, DType::F32, Dataflow::ShiftReuse, &[3], &[28, 16, 14, 8, 7, 4, 2, 1]),
    (16, DType::F32, Dataflow::ShiftReuse, &[5], &[24, 16, 8, 4, 2, 1]),
    (16, DType::F32, Dataflow::ShiftReuse, &[7], &[24, 16, 8, 4, 2, 1]),
    (8, DType::U8, Dataflow::OutputStationary, &[1, 3, 5, 7], &[12, 8, 7, 4, 2, 1]),
    (16, DType::U8, Dataflow::OutputStationary, &[1, 3, 5, 7], &[16, 14, 8, 7, 4, 2, 1]),
];

#[test]
fn dispatch_table_is_pinned_and_covers_every_emitted_candidate() {
    for (lanes, act, dataflow, kernel_widths, lengths) in EXPECTED_TABLE {
        for &kw in kernel_widths {
            let have: Vec<usize> = (1..=28)
                .rev()
                .filter(|&rn| simd_strip_exists(lanes, dataflow, rn, kw, act))
                .collect();
            assert_eq!(have, lengths, "lanes {lanes} {act} {dataflow:?} kw {kw}");
        }
    }
    // The int8 strips are output-stationary only.
    for lanes in [8, 16] {
        assert!(reg_n_candidates(lanes, Dataflow::ShiftReuse, 3, DType::U8).is_empty());
    }
    // Shift-reuse needs overlapping taps; scalar blocks have no table.
    assert!(!simd_strip_exists(16, Dataflow::ShiftReuse, 8, 1, DType::F32));
    assert!(!simd_strip_exists(4, Dataflow::OutputStationary, 4, 3, DType::F32));

    // Everything the candidate generator emits for a SIMD block — over the
    // matrix workloads and a few real layer shapes — has a table entry, for
    // f32 and for u8 activations. The u8 space is what the int8 template
    // admits, and it equals what the search used to derive from the f32
    // space: the schedules `validate_int8` admits, each `reg_n` re-fit to
    // the int8 strips (every tier's table, as the generator knows no lane
    // cap).
    let (mut checked, mut checked_i8) = (0usize, 0usize);
    let mut check = |p: &Conv2dParams| {
        for s in ConvSchedule::candidates(p, 64) {
            if s.oc_bn == 8 || s.oc_bn == 16 {
                assert!(
                    simd_strip_exists(s.oc_bn, s.dataflow, s.reg_n, p.kernel_w, DType::F32),
                    "{s:?} emitted for {p:?} has no SIMD strip"
                );
                checked += 1;
            } else {
                assert_eq!(s.dataflow, Dataflow::OutputStationary, "scalar block {s:?}");
            }
        }
        let int8 = ConvSchedule::candidates_for(p, 64, DType::U8);
        for s in &int8 {
            assert!(s.validate_int8(p).is_ok(), "{s:?} emitted for {p:?} fails validate_int8");
            if s.oc_bn == 8 || s.oc_bn == 16 {
                assert!(
                    simd_strip_exists(s.oc_bn, s.dataflow, s.reg_n, p.kernel_w, DType::U8),
                    "{s:?} emitted for {p:?} has no int8 strip"
                );
                checked_i8 += 1;
            }
        }
        let emitted: HashSet<ConvSchedule> = int8.iter().copied().collect();
        assert_eq!(emitted.len(), int8.len(), "duplicate int8 candidates for {p:?}");
        let refit: HashSet<ConvSchedule> = ConvSchedule::candidates(p, 64)
            .into_iter()
            .filter(|s| s.validate_int8(p).is_ok())
            .map(|s| ConvSchedule {
                reg_n: fitting_reg_n(p, s.oc_bn, usize::MAX, s.reg_n, DType::U8),
                ..s
            })
            .collect();
        assert_eq!(emitted, refit, "int8 candidates of {p:?}");
    };
    for_each_workload(|p, _| check(p));
    let stem = Conv2dParams::square(3, 64, 224, 7, 2, 3);
    for p in [
        stem,
        Conv2dParams::square(64, 64, 56, 3, 1, 1),
        Conv2dParams::square(512, 2048, 7, 1, 1, 0),
        Conv2dParams::depthwise(32, 112, 3, 1, 1),
        Conv2dParams::depthwise(1024, 7, 3, 1, 1),
        Conv2dParams::square(16, 16, 1, 1, 1, 0),
        // Prime channel counts: only the factor 1 (and the whole count)
        // blocks them.
        Conv2dParams::square(7, 13, 28, 3, 1, 1),
        Conv2dParams::square(12, 13, 28, 3, 1, 1),
        Conv2dParams::depthwise(13, 28, 3, 1, 1),
    ] {
        check(&p);
    }
    assert!(checked > 500, "only {checked} SIMD candidates checked");
    assert!(checked_i8 > 200, "only {checked_i8} SIMD int8 candidates checked");
    // A 3-channel stem has no input-channel block that quad-packs.
    assert!(ConvSchedule::candidates_for(&stem, 64, DType::U8).is_empty());
}
