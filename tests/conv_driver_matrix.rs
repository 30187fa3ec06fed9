//! Differential test of the conv *row driver* — the loop nest around the
//! strips that `tests/strip_matrix.rs` covers.
//!
//! {dense, depthwise} × {f32, u8} × batch {1, 3} × `par` {`Sequential`,
//! 2-thread `ThreadPool`} × scratch {`None`, poisoned `Some`} × lane cap
//! {host, 1} × epilogue {none, bias + residual + ReLU} × pad {0, 1} × stride
//! {1, 2}, with the output poisoned too — and then the same over the row
//! shapes the strip plan and the pointwise strip row exist for: output
//! widths {7, 13, 14, 29} (one strip, 8+4+1, 8+4+2, 8·3+4+1 under `reg_n`
//! 8) and pointwise planes of 7×7, 14×14 and 3×29 pixels, which the driver
//! cuts into pixel blocks that cross image rows. Every workload has two
//! channel chunks on each side and a non-square image, so a wrong
//! batch/chunk stride or a swapped height/width cannot pass by luck; the
//! residual of the full epilogue is what a wrong block offset misreads.
//! f32 results are held against the NCHW reference; int8 results are
//! bit-identical across `par`, scratch and tier (integer accumulation is
//! exact) and within the dequantized-reference budget — which is what
//! catches a halo filled with anything but the zero point. Every case also
//! runs with a requantizing epilogue into a u8 tensor, per lane cap and
//! `par`, and must equal `quantize_slice` of its own f32 output byte for
//! byte — the property that lets the graph fold a `Quantize` node into its
//! producer without moving a single output bit. The last test pins the
//! error paths every instantiation keeps.

use neocpu_kernels::conv::{
    conv2d_nchw_direct, conv2d_nchwc, conv2d_nchwc_u8, padded_input_len, Conv2dParams, ConvQuant,
    ConvSchedule, Dataflow, Epilogue,
};
use neocpu_kernels::quantize::{
    dequantize_tensor, quantize_dense_weights, quantize_dw_weights, quantize_slice,
    quantize_tensor, quantize_value, QuantizedWeights,
};
use neocpu_tensor::{transform::to_layout, DType, Layout, Tensor};
use neocpu_threadpool::{Parallelism, Sequential, ThreadPool};

const BN: usize = 8;
const TOL: f32 = 1e-3;

#[derive(Debug, Clone, Copy)]
struct Case {
    depthwise: bool,
    batch: usize,
    kernel: usize,
    pad: usize,
    stride: usize,
    /// Input `(height, width)`.
    image: (usize, usize),
    reg_n: usize,
    full_epilogue: bool,
}

impl Case {
    fn params(&self) -> Conv2dParams {
        let base = if self.depthwise {
            Conv2dParams::depthwise(2 * BN, 1, self.kernel, self.stride, self.pad)
        } else {
            Conv2dParams::square(BN, 2 * BN, 1, self.kernel, self.stride, self.pad)
        };
        Conv2dParams { in_h: self.image.0, in_w: self.image.1, ..base }
    }

    /// Dense: two input chunks of 4 (quad-packable) into two output chunks
    /// of 8. Depthwise: two chunks of 8.
    fn schedule(&self) -> ConvSchedule {
        let ic_bn = if self.depthwise { BN } else { BN / 2 };
        ConvSchedule {
            ic_bn,
            oc_bn: BN,
            reg_n: self.reg_n,
            ..Default::default()
        }
    }

    fn seed(&self) -> u64 {
        let shape = self.image.1 * 10_000 + self.kernel * 1000;
        (shape + usize::from(self.depthwise) * 500 + self.batch * 100 + self.pad * 10 + self.stride)
            as u64
    }
}

/// 7×10 image, 3×3 kernel: output widths {8, 10, 4, 5} against `reg_n` 4,
/// so half the cases end their rows on a remainder strip.
fn for_each_case(mut f: impl FnMut(Case)) {
    for depthwise in [false, true] {
        for batch in [1, 3] {
            for pad in [0, 1] {
                for stride in [1, 2] {
                    for full_epilogue in [false, true] {
                        let (kernel, image, reg_n) = (3, (7, 10), 4);
                        f(Case { depthwise, batch, kernel, pad, stride, image, reg_n, full_epilogue });
                    }
                }
            }
        }
    }
}

/// The row shapes, all at `reg_n` 8: padded 3×3 rows of the four widths,
/// and the three pointwise planes (49, 196 and 87 pixels in blocks of 8, 16
/// and 32 — the last block of each is a remainder).
fn for_each_row_case(mut f: impl FnMut(Case)) {
    let rows = [7, 13, 14, 29].map(|w| (3, 1, (3, w)));
    let planes = [(7, 7), (14, 14), (3, 29)].map(|image| (1, 0, image));
    for (kernel, pad, image) in rows.into_iter().chain(planes) {
        for depthwise in [false, true] {
            for batch in [1, 3] {
                for full_epilogue in [false, true] {
                    let (stride, reg_n) = (1, 8);
                    f(Case { depthwise, batch, kernel, pad, stride, image, reg_n, full_epilogue });
                }
            }
        }
    }
}

fn in_dims(p: &Conv2dParams, batch: usize) -> [usize; 4] {
    [batch, p.in_channels, p.in_h, p.in_w]
}

fn weight_dims(p: &Conv2dParams) -> [usize; 4] {
    [p.out_channels, p.in_channels_per_group(), p.kernel_h, p.kernel_w]
}

fn out_dims(p: &Conv2dParams, batch: usize) -> [usize; 4] {
    [batch, p.out_channels, p.out_h(), p.out_w()]
}

fn f32_weight_layout(p: &Conv2dParams, s: &ConvSchedule) -> Layout {
    Layout::OihwIo { i: if p.is_depthwise() { 1 } else { s.ic_bn }, o: s.oc_bn }
}

/// The bias / residual / ReLU operands of the full epilogue, in NCHW.
struct EpilogueData {
    bias: Vec<f32>,
    residual: Tensor,
}

impl EpilogueData {
    fn new(p: &Conv2dParams, batch: usize, seed: u64) -> Self {
        Self {
            bias: (0..p.out_channels).map(|c| c as f32 * 0.1 - 0.4).collect(),
            residual: Tensor::random(out_dims(p, batch), Layout::Nchw, seed + 9, 1.0).unwrap(),
        }
    }
}

/// The lane caps every case runs under: the host's tier and the scalar one.
const LANE_CAPS: [usize; 2] = [usize::MAX, 1];

/// Runs `conv` under every lane cap × `par` × scratch combination with the
/// output (and the scratch, when given) poisoned, and returns the outputs,
/// four per lane cap: `[seq/None, seq/Some, pool/None, pool/Some]`.
fn run_variants<T: Copy>(
    p: &Conv2dParams,
    s: &ConvSchedule,
    batch: usize,
    poison: T,
    conv: impl Fn(&mut Tensor, &dyn Parallelism, usize, Option<&mut [T]>),
) -> Vec<Tensor> {
    let pool = ThreadPool::new(2);
    let pars: [&dyn Parallelism; 2] = [&Sequential, &pool];
    let mut outs = Vec::new();
    for max_lanes in LANE_CAPS {
        for par in pars {
            for planned in [false, true] {
                let mut out = Tensor::zeros(out_dims(p, batch), Layout::NchwC(s.oc_bn)).unwrap();
                out.data_mut().fill(f32::NAN);
                let mut scratch = vec![poison; padded_input_len(p, s.ic_bn, batch)];
                conv(&mut out, par, max_lanes, planned.then_some(scratch.as_mut_slice()));
                assert!(out.data().iter().all(|v| v.is_finite()), "{p:?}: poison survived");
                outs.push(out);
            }
        }
    }
    outs
}

/// Qparams that cover the middle half of the finite `values`' range, so a
/// quantize of them saturates at both ends.
fn middle_half_qparams(values: &[f32]) -> (f32, u8) {
    let finite = values.iter().filter(|v| v.is_finite());
    let (lo, hi) = finite.fold((f32::MAX, f32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let scale = (hi - lo) / 2.0 / 255.0;
    (scale, (128.0 - (lo + hi) / 2.0 / scale).clamp(0.0, 255.0) as u8)
}

/// The channel of element `i` of a blocked `[n, C/bn, oh, ow, bn]` output of `p`.
fn blocked_channel(i: usize, p: &Conv2dParams, bn: usize) -> usize {
    i / (p.out_h() * p.out_w() * bn) % (p.out_channels / bn) * bn + i % bn
}

/// The fused store against the pair it replaces: `conv` with a requantizing
/// epilogue into a poisoned u8 tensor, per lane cap × `par`, equals
/// `quantize_slice` of that lane cap's f32 output (`outs`, as
/// [`run_variants`] returns them), saturation at both ends included.
fn check_requant(
    p: &Conv2dParams,
    s: &ConvSchedule,
    batch: usize,
    outs: &[Tensor],
    conv: impl Fn(&mut Tensor, &dyn Parallelism, usize, (f32, u8)),
) {
    let requant = middle_half_qparams(outs[0].data());
    let pool = ThreadPool::new(2);
    let pars: [&dyn Parallelism; 2] = [&Sequential, &pool];
    for (tier, max_lanes) in outs.chunks(4).zip(LANE_CAPS) {
        let mut want = vec![0u8; tier[0].num_elements()];
        quantize_slice(tier[0].data(), &mut want, requant.0, requant.1);
        assert!(want.contains(&0) && want.contains(&255), "{p:?}: nothing saturates");
        for (i, par) in pars.into_iter().enumerate() {
            let mut out =
                Tensor::zeros_dtyped(out_dims(p, batch), Layout::NchwC(s.oc_bn), DType::U8).unwrap();
            out.data_u8_mut().fill(0xAA);
            conv(&mut out, par, max_lanes, requant);
            assert!(out.data_u8() == want, "{p:?}: lanes {max_lanes} par {i}: fused bytes differ");
        }
    }
}

/// One f32 case: every variant against the NCHW reference, and bit-identical
/// within a lane cap (the tiers differ by FMA rounding, nothing else does).
fn check_f32(case: Case) {
    let (p, s, seed) = (case.params(), case.schedule(), case.seed());
    let input = Tensor::random(in_dims(&p, case.batch), Layout::Nchw, seed, 1.0).unwrap();
    let weights = Tensor::random(weight_dims(&p), Layout::Oihw, seed + 1, 1.0).unwrap();
    let epi_data = EpilogueData::new(&p, case.batch, seed);
    let epilogue = |residual| {
        if case.full_epilogue {
            Epilogue { bias: Some(&epi_data.bias), relu: true, residual: Some(residual), requant: None }
        } else {
            Epilogue::none()
        }
    };
    let mut reference = Tensor::zeros(out_dims(&p, case.batch), Layout::Nchw).unwrap();
    conv2d_nchw_direct(
        &input,
        &weights,
        &mut reference,
        &p,
        &epilogue(&epi_data.residual),
        &Sequential,
    )
    .unwrap();

    let bi = to_layout(&input, Layout::NchwC(s.ic_bn)).unwrap();
    let bw = to_layout(&weights, f32_weight_layout(&p, &s)).unwrap();
    let res_b = to_layout(&epi_data.residual, Layout::NchwC(s.oc_bn)).unwrap();
    let outs = run_variants(&p, &s, case.batch, f32::NAN, |out, par, max_lanes, scratch| {
        conv2d_nchwc(&bi, &bw, out, &p, &s, &epilogue(&res_b), par, max_lanes, scratch).unwrap();
    });
    for tier in outs.chunks(4) {
        assert!(
            reference.approx_eq(&tier[0], TOL),
            "{case:?}: diff {}",
            reference.max_abs_diff(&tier[0])
        );
        for (i, out) in tier.iter().enumerate().skip(1) {
            assert_eq!(tier[0].data(), out.data(), "{case:?}: variant {i} differs");
        }
    }
    check_requant(&p, &s, case.batch, &outs, |out, par, max_lanes, requant| {
        let epilogue = Epilogue { requant: Some(requant), ..epilogue(&res_b) };
        conv2d_nchwc(&bi, &bw, out, &p, &s, &epilogue, par, max_lanes, None).unwrap();
    });
}

#[test]
fn f32_driver_matches_the_nchw_reference() {
    let mut cases = 0usize;
    for_each_case(|case| {
        check_f32(case);
        cases += 1;
    });
    assert_eq!(cases, 32);
}

#[test]
fn f32_rows_and_pointwise_planes_match_the_nchw_reference() {
    let mut cases = 0usize;
    for_each_row_case(|case| {
        check_f32(case);
        cases += 1;
    });
    assert_eq!(cases, 7 * 8, "four row widths and three planes, eight cases each");
}

/// A quantized workload and everything the int8 template and its f32
/// reference need: calibrated `[-1, 1)` activations, quantized weights, the
/// folded multiplier and the zero-point bias correction.
struct QuantCase {
    input_q: Tensor,
    wq: QuantizedWeights,
    mult: Vec<f32>,
    bias_corr: Vec<f32>,
    scale: f32,
    zp: u8,
}

impl QuantCase {
    fn new(p: &Conv2dParams, s: &ConvSchedule, batch: usize, seed: u64) -> Self {
        let scale = 2.0f32 / 255.0;
        let zp = (1.0 / scale).round() as u8;
        let input =
            Tensor::random(in_dims(p, batch), Layout::NchwC(s.ic_bn), seed, 1.0).unwrap();
        let mut input_q =
            Tensor::zeros_dtyped(in_dims(p, batch), Layout::NchwC(s.ic_bn), DType::U8).unwrap();
        quantize_tensor(&input, &mut input_q, scale, zp).unwrap();
        let weights = Tensor::random(weight_dims(p), Layout::Oihw, seed + 1, 0.5).unwrap();
        let wq = if p.is_depthwise() {
            quantize_dw_weights(&weights, s.oc_bn).unwrap()
        } else {
            quantize_dense_weights(&weights, s.ic_bn, s.oc_bn).unwrap()
        };
        let mult: Vec<f32> = wq.scales.iter().map(|&sw| sw * scale).collect();
        let bias_corr =
            mult.iter().zip(&wq.tap_sums).map(|(&m, &ts)| -m * f32::from(zp) * ts as f32).collect();
        Self { input_q, wq, mult, bias_corr, scale, zp }
    }

    /// The f32 convolution of the *dequantized* operands — what the int8
    /// template computes exactly, modulo f32 summation order.
    fn dequantized_reference(&self, p: &Conv2dParams, epilogue: &Epilogue<'_>) -> Tensor {
        let dims = self.input_q.shape().dims().to_vec();
        let mut deq = Tensor::zeros(dims.clone(), self.input_q.layout()).unwrap();
        dequantize_tensor(&self.input_q, &mut deq, self.scale, self.zp).unwrap();
        let deq = to_layout(&deq, Layout::Nchw).unwrap();
        let wt = &self.wq.tensor;
        let mut wdeq = Tensor::zeros(weight_dims(p), Layout::Oihw).unwrap();
        let wd = weight_dims(p);
        for o in 0..wd[0] {
            for i in 0..wd[1] {
                for r in 0..wd[2] {
                    for c in 0..wd[3] {
                        let off = wt.layout().offset(wt.shape(), &[o, i, r, c]);
                        let v = f32::from(wt.data_i8()[off]) * self.wq.scales[o];
                        wdeq.set(&[o, i, r, c], v);
                    }
                }
            }
        }
        let mut out = Tensor::zeros(out_dims(p, dims[0]), Layout::Nchw).unwrap();
        conv2d_nchw_direct(&deq, &wdeq, &mut out, p, epilogue, &Sequential).unwrap();
        out
    }
}

/// One u8 case: within the dequantized-reference budget, and bit-identical
/// across every variant — lane caps included.
fn check_int8(case: Case) {
    let (p, s, seed) = (case.params(), case.schedule(), case.seed());
    let q = QuantCase::new(&p, &s, case.batch, seed);
    let epi_data = EpilogueData::new(&p, case.batch, seed);
    let reference = q.dequantized_reference(
        &p,
        &if case.full_epilogue {
            Epilogue {
                bias: Some(&epi_data.bias),
                relu: true,
                residual: Some(&epi_data.residual),
                requant: None,
            }
        } else {
            Epilogue::none()
        },
    );

    // The zero-point correction always rides in the bias.
    let bias: Vec<f32> = q
        .bias_corr
        .iter()
        .zip(&epi_data.bias)
        .map(|(&corr, &b)| if case.full_epilogue { corr + b } else { corr })
        .collect();
    let res_b = to_layout(&epi_data.residual, Layout::NchwC(s.oc_bn)).unwrap();
    let epilogue = |requant| Epilogue {
        bias: Some(&bias),
        relu: case.full_epilogue,
        residual: case.full_epilogue.then_some(&res_b),
        requant,
    };
    let quant = ConvQuant { mult: &q.mult, zero_point: q.zp };
    let outs = run_variants(&p, &s, case.batch, 0xAAu8, |out, par, max_lanes, scratch| {
        conv2d_nchwc_u8(
            &q.input_q,
            &q.wq.tensor,
            out,
            &p,
            &s,
            &quant,
            &epilogue(None),
            par,
            max_lanes,
            scratch,
        )
        .unwrap();
    });
    assert!(
        reference.approx_eq(&outs[0], TOL),
        "{case:?}: diff {}",
        reference.max_abs_diff(&outs[0])
    );
    for (i, out) in outs.iter().enumerate().skip(1) {
        assert_eq!(outs[0].data(), out.data(), "{case:?}: variant {i} differs");
    }
    check_requant(&p, &s, case.batch, &outs, |out, par, max_lanes, requant| {
        let (input, weights, epilogue) = (&q.input_q, &q.wq.tensor, epilogue(Some(requant)));
        conv2d_nchwc_u8(input, weights, out, &p, &s, &quant, &epilogue, par, max_lanes, None)
            .unwrap();
    });
}

#[test]
fn int8_driver_is_deterministic_and_matches_the_dequantized_reference() {
    let mut cases = 0usize;
    for_each_case(|case| {
        check_int8(case);
        cases += 1;
    });
    assert_eq!(cases, 32);
}

#[test]
fn int8_rows_and_pointwise_planes_are_deterministic_and_match_the_reference() {
    let mut cases = 0usize;
    for_each_row_case(|case| {
        check_int8(case);
        cases += 1;
    });
    assert_eq!(cases, 7 * 8, "four row widths and three planes, eight cases each");
}

/// What the fused store replaced, written out as it was: a bias pass, a
/// residual pass and a ReLU pass over the staged f32 values of a blocked
/// `[n, C/bn, oh, ow, bn]` tensor, then `quantize_value` of each.
fn three_pass(
    staged: &Tensor,
    p: &Conv2dParams,
    bn: usize,
    bias: Option<&[f32]>,
    residual: Option<&Tensor>,
    relu: bool,
    requant: Option<(f32, u8)>,
) -> Vec<u32> {
    let mut v = staged.data()[..staged.num_elements()].to_vec();
    if let Some(bias) = bias {
        for (i, x) in v.iter_mut().enumerate() {
            *x += bias[blocked_channel(i, p, bn)];
        }
    }
    if let Some(residual) = residual {
        for (x, r) in v.iter_mut().zip(residual.data()) {
            *x += r;
        }
    }
    if relu {
        for x in v.iter_mut() {
            *x = x.max(0.0);
        }
    }
    match requant {
        Some((scale, zp)) => v.iter().map(|&x| u32::from(quantize_value(x, scale, zp))).collect(),
        None => v.iter().map(|x| x.to_bits()).collect(),
    }
}

/// One case of the one-pass epilogue check: `conv(epilogue, out, max_lanes)`
/// runs the template under test into a poisoned `out`. The staged values are
/// its output under `Epilogue::none()`; every bias × residual × ReLU ×
/// requant combination of the fused store must then equal [`three_pass`] of
/// them bit for bit, at the host's tier and on the scalar one.
fn check_one_pass(
    what: &str,
    p: &Conv2dParams,
    s: &ConvSchedule,
    batch: usize,
    seed: u64,
    conv: impl Fn(&Epilogue<'_>, &mut Tensor, usize),
) {
    let layout = Layout::NchwC(s.oc_bn);
    let epi = EpilogueData::new(p, batch, seed);
    let residual = to_layout(&epi.residual, layout).unwrap();
    for max_lanes in LANE_CAPS {
        let mut staged = Tensor::zeros(out_dims(p, batch), layout).unwrap();
        staged.data_mut().fill(f32::NAN);
        conv(&Epilogue::none(), &mut staged, max_lanes);
        let data = &staged.data()[..staged.num_elements()];
        assert!(
            data.iter().any(|v| v.is_nan()) && data.contains(&f32::INFINITY) && data.contains(&f32::NEG_INFINITY),
            "{what}: the staged values hold no NaN / +inf / -inf"
        );
        let qparams = middle_half_qparams(data);
        for combo in 0..16 {
            let bias = (combo & 1 != 0).then_some(epi.bias.as_slice());
            let res = (combo & 2 != 0).then_some(&residual);
            let (relu, requant) = (combo & 4 != 0, (combo & 8 != 0).then_some(qparams));
            let want = three_pass(&staged, p, s.oc_bn, bias, res, relu, requant);
            let dtype = if requant.is_some() { DType::U8 } else { DType::F32 };
            let mut out = Tensor::zeros_dtyped(out_dims(p, batch), layout, dtype).unwrap();
            let got: Vec<u32> = if requant.is_some() {
                out.data_u8_mut().fill(0xAA);
                conv(&Epilogue { bias, relu, residual: res, requant }, &mut out, max_lanes);
                out.data_u8().iter().map(|&b| u32::from(b)).collect()
            } else {
                out.data_mut().fill(f32::NAN);
                conv(&Epilogue { bias, relu, residual: res, requant }, &mut out, max_lanes);
                out.data()[..out.num_elements()].iter().map(|v| v.to_bits()).collect()
            };
            let diff = want.iter().zip(&got).position(|(w, g)| w != g);
            assert_eq!(
                diff, None,
                "{what} lanes {max_lanes} bias {} residual {} relu {relu} requant {}: element {diff:?}",
                bias.is_some(), res.is_some(), requant.is_some()
            );
        }
    }
}

/// Every case of both matrices, f32 and u8, through [`check_one_pass`] — as
/// the matrix blocks it (two 8-wide output chunks: the AVX2 body) and with
/// one 16-wide chunk (the AVX-512 body); lane cap 1 runs the scalar body.
/// The f32 template gets its NaN and infinities from poisoned input pixels,
/// the u8 template from per-channel multipliers.
#[test]
fn one_pass_epilogue_equals_the_three_passes_it_replaced() {
    let mut cases = Vec::new();
    for_each_case(|case| cases.push(case));
    for_each_row_case(|case| cases.push(case));
    for case in cases.into_iter().filter(|c| !c.full_epilogue) {
        let (p, seed) = (case.params(), case.seed());
        let wide = 2 * BN;
        let dw_or = |dense: usize| if case.depthwise { wide } else { dense };
        let wide = ConvSchedule { ic_bn: dw_or(BN / 2), oc_bn: wide, ..case.schedule() };
        for s in [case.schedule(), wide] {
            let what = format!("{case:?} oc_bn {}", s.oc_bn);
            let mut input =
                Tensor::random(in_dims(&p, case.batch), Layout::NchwC(s.ic_bn), seed, 1.0).unwrap();
            let weights = Tensor::random(weight_dims(&p), Layout::Oihw, seed + 1, 1.0).unwrap();
            let bw = to_layout(&weights, f32_weight_layout(&p, &s)).unwrap();
            // Of batch item 0, chunk 0: a NaN pixel, and sub-channel 1 of two
            // pixels no kernel window spans both of — whatever the weights'
            // signs, the same tap sees +inf in one window and -inf in another.
            for (h, w, c, v) in [(0, 0, 0, f32::NAN), (2, 2, 1, f32::INFINITY), (2, 6, 1, f32::NEG_INFINITY)] {
                input.data_mut()[(h * p.in_w + w) * s.ic_bn + c] = v;
            }
            check_one_pass(&format!("f32 {what}"), &p, &s, case.batch, seed, |epilogue, out, lanes| {
                conv2d_nchwc(&input, &bw, out, &p, &s, epilogue, &Sequential, lanes, None).unwrap();
            });

            let q = QuantCase::new(&p, &s, case.batch, seed);
            // An infinite multiplier on a channel whose first accumulator is
            // positive and on one where it is negative, a NaN one elsewhere.
            let mut probe = Tensor::zeros(out_dims(&p, case.batch), Layout::NchwC(s.oc_bn)).unwrap();
            let quant = ConvQuant { mult: &q.mult, zero_point: q.zp };
            let (input, weights) = (&q.input_q, &q.wq.tensor);
            let none = Epilogue::none();
            conv2d_nchwc_u8(input, weights, &mut probe, &p, &s, &quant, &none, &Sequential, 1, None)
                .unwrap();
            let channel = |i: usize| blocked_channel(i, &p, s.oc_bn);
            let staged = &probe.data()[..probe.num_elements()];
            let up = channel(staged.iter().position(|&v| v > 0.0).expect("a positive accumulator"));
            let down = channel(staged.iter().position(|&v| v < 0.0).expect("a negative one"));
            let mut mult = q.mult.clone();
            (mult[up], mult[down]) = (f32::INFINITY, f32::INFINITY);
            mult[(0..p.out_channels).find(|c| ![up, down].contains(c)).unwrap()] = f32::NAN;
            let quant = ConvQuant { mult: &mult, zero_point: q.zp };
            check_one_pass(&format!("u8 {what}"), &p, &s, case.batch, seed, |epilogue, out, lanes| {
                conv2d_nchwc_u8(input, weights, out, &p, &s, &quant, epilogue, &Sequential, lanes, None)
                    .unwrap();
            });
        }
    }
}

/// Every way a caller can hand the template the wrong thing is an `Err`
/// (never a panic, never a silent misread) — for both shapes and both
/// element types.
#[test]
fn every_instantiation_keeps_its_error_paths() {
    for depthwise in [false, true] {
        let case = Case {
            depthwise,
            batch: 1,
            kernel: 3,
            pad: 1,
            stride: 1,
            image: (7, 10),
            reg_n: 4,
            full_epilogue: false,
        };
        let (p, s) = (case.params(), case.schedule());
        let other = Layout::NchwC(2);

        // ---- f32 ----
        let input = Tensor::zeros(in_dims(&p, 1), Layout::NchwC(s.ic_bn)).unwrap();
        let weights = Tensor::zeros(weight_dims(&p), f32_weight_layout(&p, &s)).unwrap();
        let run = |input: &Tensor,
                   weights: &Tensor,
                   out_layout: Layout,
                   p: &Conv2dParams,
                   scratch: Option<&mut [f32]>| {
            let mut out = Tensor::zeros(out_dims(p, 1), out_layout).unwrap();
            conv2d_nchwc(
                input,
                weights,
                &mut out,
                p,
                &s,
                &Epilogue::none(),
                &Sequential,
                usize::MAX,
                scratch,
            )
        };
        let good_out = Layout::NchwC(s.oc_bn);
        run(&input, &weights, good_out, &p, None).expect("the well-formed call");
        let bad_input = Tensor::zeros(in_dims(&p, 1), other).unwrap();
        assert!(run(&bad_input, &weights, good_out, &p, None).is_err(), "input layout");
        let bad_weights = Tensor::zeros(weight_dims(&p), Layout::Oihw).unwrap();
        assert!(run(&input, &bad_weights, good_out, &p, None).is_err(), "weight layout");
        assert!(run(&input, &weights, other, &p, None).is_err(), "output layout");
        let mut short = vec![0.0f32; 8];
        assert!(run(&input, &weights, good_out, &p, Some(&mut short)).is_err(), "scratch length");
        let grouped = Conv2dParams { groups: 2, ..p };
        assert!(run(&input, &weights, good_out, &grouped, None).is_err(), "grouped non-depthwise");

        // ---- u8 ----
        let input_q =
            Tensor::zeros_dtyped(in_dims(&p, 1), Layout::NchwC(s.ic_bn), DType::U8).unwrap();
        let wq_layout = if depthwise {
            Layout::OihwIo { i: 1, o: s.oc_bn }
        } else {
            Layout::OihwIo4 { i: s.ic_bn, o: s.oc_bn }
        };
        let weights_q = Tensor::zeros_dtyped(weight_dims(&p), wq_layout, DType::I8).unwrap();
        let mult = vec![1.0f32; p.out_channels];
        let run_q = |input: &Tensor,
                     weights: &Tensor,
                     out_layout: Layout,
                     p: &Conv2dParams,
                     s: &ConvSchedule,
                     mult: &[f32],
                     scratch: Option<&mut [u8]>| {
            let mut out = Tensor::zeros(out_dims(p, 1), out_layout).unwrap();
            conv2d_nchwc_u8(
                input,
                weights,
                &mut out,
                p,
                s,
                &ConvQuant { mult, zero_point: 3 },
                &Epilogue::none(),
                &Sequential,
                usize::MAX,
                scratch,
            )
        };
        run_q(&input_q, &weights_q, good_out, &p, &s, &mult, None).expect("the well-formed call");
        let bad_input = Tensor::zeros_dtyped(in_dims(&p, 1), other, DType::U8).unwrap();
        assert!(
            run_q(&bad_input, &weights_q, good_out, &p, &s, &mult, None).is_err(),
            "input layout"
        );
        let bad_weights = Tensor::zeros_dtyped(weight_dims(&p), Layout::Oihw, DType::I8).unwrap();
        assert!(
            run_q(&input_q, &bad_weights, good_out, &p, &s, &mult, None).is_err(),
            "weight layout"
        );
        assert!(run_q(&input_q, &weights_q, other, &p, &s, &mult, None).is_err(), "output layout");
        // f32 operands in the right layouts: the dtype check fires.
        assert!(run_q(&input, &weights_q, good_out, &p, &s, &mult, None).is_err(), "input dtype");
        let f32_weights = Tensor::zeros(weight_dims(&p), wq_layout).unwrap();
        assert!(
            run_q(&input_q, &f32_weights, good_out, &p, &s, &mult, None).is_err(),
            "weight dtype"
        );
        let mut short = vec![0u8; 8];
        assert!(
            run_q(&input_q, &weights_q, good_out, &p, &s, &mult, Some(&mut short)).is_err(),
            "scratch length"
        );
        assert!(
            run_q(&input_q, &weights_q, good_out, &p, &s, &mult[1..], None).is_err(),
            "mult length"
        );
        let sr = ConvSchedule { dataflow: Dataflow::ShiftReuse, ..s };
        assert!(
            run_q(&input_q, &weights_q, good_out, &p, &sr, &mult, None).is_err(),
            "non-os dataflow"
        );
        let grouped = Conv2dParams { groups: 2, ..p };
        assert!(
            run_q(&input_q, &weights_q, good_out, &grouped, &s, &mult, None).is_err(),
            "grouped non-depthwise"
        );
        // ---- requantizing store, both element types ----
        // The output is u8 exactly when the epilogue requantizes, and a
        // residual stays an f32 tensor of the output's shape.
        let requant = |residual| Epilogue { residual, requant: Some((0.1, 7)), ..Epilogue::none() };
        let res_ok = Tensor::zeros(out_dims(&p, 1), good_out).unwrap();
        let res_short = Tensor::zeros([1, p.out_channels, 1, 1], good_out).unwrap();
        let res_u8 = Tensor::zeros_dtyped(out_dims(&p, 1), good_out, DType::U8).unwrap();
        let quant = ConvQuant { mult: &mult, zero_point: 3 };
        let run = |u8_input: bool, out_dtype: DType, epi: &Epilogue<'_>| {
            let mut out = Tensor::zeros_dtyped(out_dims(&p, 1), good_out, out_dtype).unwrap();
            let (par, lanes) = (&Sequential, usize::MAX);
            if u8_input {
                conv2d_nchwc_u8(&input_q, &weights_q, &mut out, &p, &s, &quant, epi, par, lanes, None)
            } else {
                conv2d_nchwc(&input, &weights, &mut out, &p, &s, epi, par, lanes, None)
            }
        };
        for u8_input in [false, true] {
            run(u8_input, DType::U8, &requant(None)).expect("the well-formed requantizing call");
            run(u8_input, DType::U8, &requant(Some(&res_ok))).expect("with an f32 residual");
            assert!(run(u8_input, DType::U8, &Epilogue::none()).is_err(), "u8 output, no requant");
            assert!(run(u8_input, DType::F32, &requant(None)).is_err(), "requant, f32 output");
            assert!(run(u8_input, DType::U8, &requant(Some(&res_short))).is_err(), "residual shape");
            assert!(run(u8_input, DType::U8, &requant(Some(&res_u8))).is_err(), "residual dtype");
        }
        if !depthwise {
            // Dense int8 needs quad-packable input blocks.
            let odd = ConvSchedule { ic_bn: 2, ..s };
            let input_q = Tensor::zeros_dtyped(in_dims(&p, 1), other, DType::U8).unwrap();
            let weights_q = Tensor::zeros_dtyped(
                weight_dims(&p),
                Layout::OihwIo { i: 2, o: s.oc_bn },
                DType::I8,
            )
            .unwrap();
            assert!(
                run_q(&input_q, &weights_q, good_out, &p, &odd, &mult, None).is_err(),
                "ic_bn % 4"
            );
        }
    }
}
