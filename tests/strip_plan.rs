//! The property the strip plan exists for: on a channel block a SIMD tier
//! serves, no output pixel reaches a scalar strip.
//!
//! First the plan itself, exhaustively: every tier × dataflow × kernel
//! width × candidate `reg_n` × row width 1..=64 tiles the row exactly, in
//! lengths the tier holds for the element type, full strips first. Then the
//! zoo: every convolution of every model, compiled for the host and for both
//! paper x86 targets with the analytical search (`O3`) and with the uniform
//! plan (`O2`), at the paper's input resolution (the 14- and 7-wide maps are
//! the point; channels are quartered to keep the graphs small) — and the
//! quantized zoo the same way, where the strips are the int8 ones. Nothing
//! is timed; only the int8 compiles execute (their calibration run).

use neocpu::{
    compile, compile_quantized, CompileOptions, CpuTarget, Module, OptLevel, PoolChoice,
    QuantizeOptions,
};
use neocpu_graph::Op;
use neocpu_kernels::conv::{reg_n_candidates, simd_strip_exists, strip_plan, Dataflow};
use neocpu_models::{build, quantized_zoo, zoo, ModelKind, ModelScale};
use neocpu_tensor::DType;

#[test]
fn plan_tiles_every_row_in_the_tiers_own_lengths() {
    let mut plans = 0usize;
    for lanes in [8usize, 16] {
        for (act, dataflow) in [
            (DType::F32, Dataflow::OutputStationary),
            (DType::F32, Dataflow::ShiftReuse),
            (DType::U8, Dataflow::OutputStationary),
        ] {
            for kw in [1usize, 3, 5, 7] {
                for reg_n in reg_n_candidates(lanes, dataflow, kw, act) {
                    for width in 1..=64usize {
                        let plan: Vec<usize> =
                            strip_plan(lanes, lanes, dataflow, kw, reg_n, width, act).collect();
                        let what =
                            format!("lanes {lanes} {act} {dataflow:?} kw {kw} rn {reg_n} w {width}");
                        assert_eq!(plan.iter().sum::<usize>(), width, "{what}: {plan:?}");
                        let full = width / reg_n;
                        assert!(plan[..full].iter().all(|&l| l == reg_n), "{what}: {plan:?}");
                        assert!(plan[full..].iter().all(|&l| l < reg_n), "{what}: {plan:?}");
                        assert!(
                            plan[full..].windows(2).all(|w| w[0] >= w[1]),
                            "{what}: remainder not greedy: {plan:?}"
                        );
                        for &l in &plan {
                            assert!(simd_strip_exists(lanes, dataflow, l, kw, act), "{what}: {plan:?}");
                        }
                        plans += 1;
                    }
                }
            }
        }
    }
    assert!(plans > 3 * 64 * 20, "only {plans} plans checked");
    // A block no tier serves — or one the lane cap hands to the scalar
    // strips, which take any length — is `reg_n` strips and one remainder.
    for (oc_bn, max_lanes) in [(4, 16), (16, 8), (8, 1)] {
        for act in [DType::F32, DType::U8] {
            let os = Dataflow::OutputStationary;
            let plan: Vec<usize> = strip_plan(oc_bn, max_lanes, os, 3, 8, 30, act).collect();
            assert_eq!(plan, [8, 8, 8, 6], "oc_bn {oc_bn} lanes {max_lanes} {act}");
        }
    }
}

/// Paper-resolution spatial shapes, quartered channels, ten classes.
fn scale(kind: ModelKind) -> ModelScale {
    ModelScale { input: kind.full_input(), ..ModelScale::tiny(kind) }
}

/// Checks each conv of `module` whose block a tier serves: its strip row is
/// cut into lengths its tier holds for its activation type (u8 for a
/// quantized conv), and the `reg_n` the module reports is the first strip
/// that runs. Returns how many convs of each type were held to that.
fn check_module(module: &Module, target: &CpuTarget, what: &str) -> [usize; 2] {
    let mut served = [0usize; 2];
    for node in &module.graph().nodes {
        let Op::Conv2d { params: p, schedule, quant, .. } = &node.op else { continue };
        let s = schedule.expect("compiled convs carry a schedule");
        let act = if quant.is_some() { DType::U8 } else { DType::F32 };
        let tier = s.oc_bn <= target.max_lanes()
            && simd_strip_exists(s.oc_bn, s.dataflow, 1, p.kernel_w, act);
        if !tier {
            continue;
        }
        served[usize::from(quant.is_some())] += 1;
        let what = format!("{what} on {}: {act} {p:?} {s:?}", target.name);
        let width = p.strip_row().1;
        let mut plan =
            strip_plan(s.oc_bn, target.max_lanes(), s.dataflow, p.kernel_w, s.reg_n, width, act)
                .peekable();
        assert_eq!(plan.peek(), Some(&s.reg_n), "{what}: reg_n is not the strip that runs");
        for len in plan {
            assert!(
                simd_strip_exists(s.oc_bn, s.dataflow, len, p.kernel_w, act),
                "{what}: {len} of {width} pixels would run a strip its tier does not hold"
            );
        }
    }
    served
}

#[test]
fn no_zoo_conv_sends_a_pixel_to_a_scalar_strip() {
    for target in [CpuTarget::host(), CpuTarget::skylake_avx512(), CpuTarget::epyc_avx2()] {
        for level in [OptLevel::O3, OptLevel::O2] {
            let opts = CompileOptions::level(level).with_pool(PoolChoice::Sequential);
            let mut served = 0usize;
            for kind in zoo() {
                let what = format!("{} {level:?}", kind.name());
                let module = compile(&build(kind, scale(kind), 5), &target, &opts)
                    .unwrap_or_else(|e| panic!("{what} on {}: {e}", target.name));
                served += check_module(&module, &target, &what)[0];
            }
            // A scalar host (no x86 tier) has nothing to hold to the rule.
            if target.max_lanes() >= 8 {
                assert!(served > 900, "{} {level:?}: only {served} convs checked", target.name);
            }
        }
    }
}

/// The same for the int8 modules: a conv the quantization pass rewrote was
/// scheduled by a planner that thinks in f32 strips (`O2`'s uniform plan, the
/// compile fallback, a search over the f32 candidate list), and the module
/// must still record — and its rows be cut into — its tier's int8 lengths.
#[test]
fn no_quantized_zoo_conv_plans_a_strip_outside_its_int8_list() {
    let qopts = QuantizeOptions { auto_runs: 1, ..QuantizeOptions::default() };
    for target in [CpuTarget::host(), CpuTarget::skylake_avx512(), CpuTarget::epyc_avx2()] {
        for level in [OptLevel::O3, OptLevel::O2] {
            let opts = CompileOptions::level(level).with_pool(PoolChoice::Sequential);
            let mut served = 0usize;
            for kind in quantized_zoo() {
                let what = format!("int8 {} {level:?}", kind.name());
                let (module, report) =
                    compile_quantized(&build(kind, scale(kind), 5), &target, &opts, &qopts)
                        .unwrap_or_else(|e| panic!("{what} on {}: {e}", target.name));
                assert!(!report.fell_back, "{what} on {}: {report:?}", target.name);
                served += check_module(&module, &target, &what)[1];
            }
            if target.max_lanes() >= 8 {
                assert!(served > 60, "{} {level:?}: only {served} int8 convs checked", target.name);
            }
        }
    }
}
