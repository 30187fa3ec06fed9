//! The int8 instantiation of the blocked template, one property per test:
//! the u8×i8 convolution against an f32 convolution over the *dequantized*
//! operands, SIMD tiers bit-identical (integer accumulation is exact),
//! caller-planned scratch, the fused epilogue after the dequantizing store,
//! and the operands the template must refuse.
//!
//! `tests/strip_matrix.rs` and `tests/conv_driver_matrix.rs` sweep the same
//! code over every strip length and driver axis; these are the readable
//! single cases (they lived in `conv/int8.rs`'s test module).

use neocpu_kernels::conv::{
    conv2d_nchw_direct, conv2d_nchwc_u8, padded_input_len, Conv2dParams, ConvQuant, ConvSchedule,
    Epilogue,
};
use neocpu_kernels::quantize::{self, quantize_dense_weights, quantize_dw_weights};
use neocpu_tensor::{transform::to_layout, DType, Layout, Tensor};
use neocpu_threadpool::Sequential;

/// Builds a quantized workload: random f32 input/weights, calibrated
/// activation quantization, quantized weights, folded multiplier and
/// bias correction. Returns everything both the int8 kernel and the f32
/// reference need.
struct QuantCase {
    input_f32: Tensor,
    input_q: Tensor,
    weights_f32: Tensor,
    wq: quantize::QuantizedWeights,
    mult: Vec<f32>,
    bias_corr: Vec<f32>,
    scale: f32,
    zp: u8,
}

fn make_case(p: &Conv2dParams, ic_bn: usize, oc_bn: usize, seed: u64) -> QuantCase {
    let input_f32 =
        Tensor::random([1, p.in_channels, p.in_h, p.in_w], Layout::Nchw, seed, 1.0).unwrap();
    // Calibrate: [-1, 1) input range.
    let (lo, hi) = (-1.0f32, 1.0f32);
    let scale = (hi - lo) / 255.0;
    let zp = (-lo / scale).round().clamp(0.0, 255.0) as u8;
    let in_b = to_layout(&input_f32, Layout::NchwC(ic_bn)).unwrap();
    let mut input_q = Tensor::zeros_dtyped(
        [1, p.in_channels, p.in_h, p.in_w],
        Layout::NchwC(ic_bn),
        DType::U8,
    )
    .unwrap();
    quantize::quantize_tensor(&in_b, &mut input_q, scale, zp).unwrap();

    let wshape = [p.out_channels, p.in_channels_per_group(), p.kernel_h, p.kernel_w];
    let weights_f32 = Tensor::random(wshape, Layout::Oihw, seed + 1, 0.5).unwrap();
    let wq = if p.is_depthwise() {
        quantize_dw_weights(&weights_f32, oc_bn).unwrap()
    } else {
        quantize_dense_weights(&weights_f32, ic_bn, oc_bn).unwrap()
    };
    let mult: Vec<f32> = wq.scales.iter().map(|&sw| sw * scale).collect();
    let bias_corr: Vec<f32> = mult
        .iter()
        .zip(&wq.tap_sums)
        .map(|(&m, &ts)| -m * f32::from(zp) * ts as f32)
        .collect();
    QuantCase { input_f32, input_q, weights_f32, wq, mult, bias_corr, scale, zp }
}

/// Reference: f32 conv over the *dequantized* operands — what the int8
/// kernel computes exactly (modulo f32 summation order).
fn dequantized_reference(case: &QuantCase, p: &Conv2dParams) -> Tensor {
    let mut deq = Tensor::zeros(case.input_f32.shape().clone(), case.input_q.layout()).unwrap();
    quantize::dequantize_tensor(&case.input_q, &mut deq, case.scale, case.zp).unwrap();
    let deq = to_layout(&deq, Layout::Nchw).unwrap();
    let mut wdeq = Tensor::zeros(case.weights_f32.shape().clone(), Layout::Oihw).unwrap();
    {
        let src = &case.wq;
        let d = case.weights_f32.shape().dims().to_vec();
        for o in 0..d[0] {
            for i in 0..d[1] {
                for r in 0..d[2] {
                    for s in 0..d[3] {
                        let off = src.tensor.layout().offset(src.tensor.shape(), &[o, i, r, s]);
                        let v = f32::from(src.tensor.data_i8()[off]) * src.scales[o];
                        wdeq.set(&[o, i, r, s], v);
                    }
                }
            }
        }
    }
    let mut out =
        Tensor::zeros([1, p.out_channels, p.out_h(), p.out_w()], Layout::Nchw).unwrap();
    conv2d_nchw_direct(&deq, &wdeq, &mut out, p, &Epilogue::none(), &Sequential).unwrap();
    out
}

fn run_int8(case: &QuantCase, p: &Conv2dParams, s: &ConvSchedule, max_lanes: usize) -> Tensor {
    let mut out =
        Tensor::zeros([1, p.out_channels, p.out_h(), p.out_w()], Layout::NchwC(s.oc_bn))
            .unwrap();
    let quant = ConvQuant { mult: &case.mult, zero_point: case.zp };
    let epi = Epilogue { bias: Some(&case.bias_corr), relu: false, residual: None, requant: None };
    conv2d_nchwc_u8(
        &case.input_q, &case.wq.tensor, &mut out, p, s, &quant, &epi, &Sequential, max_lanes,
        None,
    )
    .unwrap();
    out
}

#[test]
fn int8_matches_dequantized_reference_scalar() {
    let p = Conv2dParams::square(8, 6, 9, 3, 1, 1);
    let s = ConvSchedule { ic_bn: 4, oc_bn: 3, reg_n: 4, ..Default::default() };
    let case = make_case(&p, 4, 3, 101);
    let got = run_int8(&case, &p, &s, 1);
    let want = dequantized_reference(&case, &p);
    assert!(want.approx_eq(&got, 1e-3), "diff {}", want.max_abs_diff(&got));
}

#[test]
fn int8_simd_paths_are_bit_identical_to_scalar() {
    // Padded, strided, tail-strip workload; oc_bn 8 → AVX2, 16 → AVX-512
    // where the host supports them (falls back to scalar otherwise, and
    // the comparison is then trivially exact).
    for &(oc_bn, lanes) in &[(8usize, 8usize), (16, 16)] {
        let p = Conv2dParams::square(16, 32, 11, 3, 2, 1);
        let s = ConvSchedule { ic_bn: 8, oc_bn, reg_n: 4, ..Default::default() };
        let case = make_case(&p, 8, oc_bn, 202);
        let scalar = run_int8(&case, &p, &s, 1);
        let simd = run_int8(&case, &p, &s, lanes);
        assert_eq!(scalar.data(), simd.data(), "oc_bn {oc_bn} not bit-identical");
    }
}

#[test]
fn int8_depthwise_matches_dequantized_reference() {
    let p = Conv2dParams::depthwise(16, 9, 3, 1, 1);
    let s = ConvSchedule { ic_bn: 8, oc_bn: 8, reg_n: 4, ..Default::default() };
    let case = make_case(&p, 8, 8, 404);
    let got = run_int8(&case, &p, &s, usize::MAX);
    let want = dequantized_reference(&case, &p);
    assert!(want.approx_eq(&got, 1e-3), "diff {}", want.max_abs_diff(&got));
    // SIMD vs scalar bit-identical here too.
    let scalar = run_int8(&case, &p, &s, 1);
    assert_eq!(scalar.data(), got.data());
}

#[test]
fn int8_depthwise_avx512_matches_scalar() {
    let p = Conv2dParams::depthwise(32, 9, 3, 2, 1);
    let s = ConvSchedule { ic_bn: 16, oc_bn: 16, reg_n: 2, ..Default::default() };
    let case = make_case(&p, 16, 16, 505);
    let scalar = run_int8(&case, &p, &s, 1);
    let simd = run_int8(&case, &p, &s, 16);
    assert_eq!(scalar.data(), simd.data());
}

#[test]
fn planned_scratch_matches_internal_padding() {
    let p = Conv2dParams::square(8, 8, 10, 3, 1, 1);
    let s = ConvSchedule { ic_bn: 4, oc_bn: 8, reg_n: 4, ..Default::default() };
    let case = make_case(&p, 4, 8, 606);
    let auto = run_int8(&case, &p, &s, usize::MAX);
    let mut planned =
        Tensor::zeros([1, 8, 10, 10], Layout::NchwC(8)).unwrap();
    let quant = ConvQuant { mult: &case.mult, zero_point: case.zp };
    let epi = Epilogue { bias: Some(&case.bias_corr), relu: false, residual: None, requant: None };
    // Poisoned scratch must be fully overwritten by the halo writer.
    let mut scratch = vec![0xAAu8; padded_input_len(&p, s.ic_bn, 1)];
    conv2d_nchwc_u8(
        &case.input_q, &case.wq.tensor, &mut planned, &p, &s, &quant, &epi, &Sequential,
        usize::MAX, Some(&mut scratch),
    )
    .unwrap();
    assert_eq!(auto.data(), planned.data());

    // Wrong-length scratch is rejected.
    let mut short = vec![0u8; 8];
    assert!(conv2d_nchwc_u8(
        &case.input_q, &case.wq.tensor, &mut planned, &p, &s, &quant, &epi, &Sequential,
        usize::MAX, Some(&mut short),
    )
    .is_err());
}

#[test]
fn rejects_unquaddable_ic_bn_and_wrong_dtypes() {
    let p = Conv2dParams::square(6, 8, 6, 3, 1, 1);
    let s = ConvSchedule { ic_bn: 3, oc_bn: 8, reg_n: 4, ..Default::default() };
    let input =
        Tensor::zeros_dtyped([1, 6, 6, 6], Layout::NchwC(3), DType::U8).unwrap();
    let weights =
        Tensor::zeros_dtyped([8, 6, 3, 3], Layout::OihwIo { i: 3, o: 8 }, DType::I8).unwrap();
    let mut out = Tensor::zeros([1, 8, 6, 6], Layout::NchwC(8)).unwrap();
    let mult = vec![1.0f32; 8];
    let quant = ConvQuant { mult: &mult, zero_point: 0 };
    assert!(conv2d_nchwc_u8(
        &input, &weights, &mut out, &p, &s, &quant, &Epilogue::none(), &Sequential,
        usize::MAX, None,
    )
    .is_err());

    // f32 input with an int8-valid schedule: dtype check fires.
    let p = Conv2dParams::square(8, 8, 6, 3, 1, 1);
    let s = ConvSchedule { ic_bn: 4, oc_bn: 8, reg_n: 4, ..Default::default() };
    let f32_input = Tensor::zeros([1, 8, 6, 6], Layout::NchwC(4)).unwrap();
    let weights =
        Tensor::zeros_dtyped([8, 8, 3, 3], Layout::OihwIo4 { i: 4, o: 8 }, DType::I8).unwrap();
    let mut out = Tensor::zeros([1, 8, 6, 6], Layout::NchwC(8)).unwrap();
    assert!(conv2d_nchwc_u8(
        &f32_input, &weights, &mut out, &p, &s, &quant, &Epilogue::none(), &Sequential,
        usize::MAX, None,
    )
    .is_err());
}

#[test]
fn fused_epilogue_applies_after_dequant() {
    let p = Conv2dParams::square(8, 8, 6, 3, 1, 1);
    let s = ConvSchedule { ic_bn: 4, oc_bn: 8, reg_n: 4, ..Default::default() };
    let case = make_case(&p, 4, 8, 707);
    let plain = run_int8(&case, &p, &s, usize::MAX);

    // Now with bias + relu + residual on top of the correction term.
    let bias: Vec<f32> = (0..8).map(|i| case.bias_corr[i] + i as f32 * 0.05).collect();
    let residual = Tensor::random([1, 8, 6, 6], Layout::NchwC(8), 808, 0.5).unwrap();
    let mut out = Tensor::zeros([1, 8, 6, 6], Layout::NchwC(8)).unwrap();
    let quant = ConvQuant { mult: &case.mult, zero_point: case.zp };
    let epi = Epilogue { bias: Some(&bias), relu: true, residual: Some(&residual), requant: None };
    conv2d_nchwc_u8(
        &case.input_q, &case.wq.tensor, &mut out, &p, &s, &quant, &epi, &Sequential,
        usize::MAX, None,
    )
    .unwrap();
    // Expected = plain + (bias - corr) + residual, clamped at zero.
    let mut worst = 0f32;
    let d = out.shape().dims().to_vec();
    for c in 0..d[1] {
        for h in 0..d[2] {
            for w in 0..d[3] {
                let idx = [0, c, h, w];
                let expect = (plain.at(&idx) + c as f32 * 0.05 + residual.at(&idx)).max(0.0);
                worst = worst.max((out.at(&idx) - expect).abs());
            }
        }
    }
    assert!(worst <= 1e-5, "epilogue mismatch {worst}");
}
