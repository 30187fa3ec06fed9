//! The property the strip plan exists for: on a channel block a SIMD tier
//! serves, no output pixel reaches a scalar strip.
//!
//! First the plan itself, exhaustively: every tier × dataflow × kernel
//! width × candidate `reg_n` × row width 1..=64 tiles the row exactly, in
//! lengths the tier holds, full strips first. Then the zoo: every
//! convolution of every model, compiled for the host and for both paper x86
//! targets with the analytical search (`O3`) and with the uniform plan
//! (`O2`), at the paper's input resolution (the 14- and 7-wide maps are the
//! point; channels are quartered to keep the graphs small). These are
//! deterministic — nothing is timed, nothing executes.

use neocpu::{compile, CompileOptions, CpuTarget, OptLevel, PoolChoice};
use neocpu_graph::Op;
use neocpu_kernels::conv::{reg_n_candidates, simd_strip_exists, strip_plan, Dataflow};
use neocpu_models::{build, zoo, ModelKind, ModelScale};

#[test]
fn plan_tiles_every_row_in_the_tiers_own_lengths() {
    let mut plans = 0usize;
    for lanes in [8usize, 16] {
        for dataflow in Dataflow::ALL {
            for kw in [1usize, 3, 5, 7] {
                for reg_n in reg_n_candidates(lanes, dataflow, kw) {
                    for width in 1..=64usize {
                        let plan: Vec<usize> =
                            strip_plan(lanes, lanes, dataflow, kw, reg_n, width).collect();
                        let what = format!("lanes {lanes} {dataflow:?} kw {kw} rn {reg_n} w {width}");
                        assert_eq!(plan.iter().sum::<usize>(), width, "{what}: {plan:?}");
                        let full = width / reg_n;
                        assert!(plan[..full].iter().all(|&l| l == reg_n), "{what}: {plan:?}");
                        assert!(plan[full..].iter().all(|&l| l < reg_n), "{what}: {plan:?}");
                        assert!(
                            plan[full..].windows(2).all(|w| w[0] >= w[1]),
                            "{what}: remainder not greedy: {plan:?}"
                        );
                        for &l in &plan {
                            assert!(simd_strip_exists(lanes, dataflow, l, kw), "{what}: {plan:?}");
                        }
                        plans += 1;
                    }
                }
            }
        }
    }
    assert!(plans > 2 * 64 * 20, "only {plans} plans checked");
    // A block no tier serves — or one the lane cap hands to the scalar
    // strips, which take any length — is `reg_n` strips and one remainder.
    for (oc_bn, max_lanes) in [(4, 16), (16, 8), (8, 1)] {
        let plan: Vec<usize> =
            strip_plan(oc_bn, max_lanes, Dataflow::OutputStationary, 3, 8, 30).collect();
        assert_eq!(plan, [8, 8, 8, 6], "oc_bn {oc_bn} lanes {max_lanes}");
    }
}

/// Paper-resolution spatial shapes, quartered channels, ten classes.
fn scale(kind: ModelKind) -> ModelScale {
    ModelScale { input: kind.full_input(), ..ModelScale::tiny(kind) }
}

/// Compiles every zoo model for `target` at `level` and checks each conv
/// whose block a tier serves: its strip row is cut into table lengths only,
/// and the `reg_n` the module reports is the first strip that runs. Returns
/// how many convs were held to that.
fn check_zoo(target: &CpuTarget, level: OptLevel) -> usize {
    let opts = CompileOptions::level(level).with_pool(PoolChoice::Sequential);
    let mut served = 0usize;
    for kind in zoo() {
        let module = compile(&build(kind, scale(kind), 5), target, &opts)
            .unwrap_or_else(|e| panic!("{} {level:?} on {}: {e}", kind.name(), target.name));
        for node in &module.graph().nodes {
            let Op::Conv2d { params: p, schedule, .. } = &node.op else { continue };
            let s = schedule.expect("compiled convs carry a schedule");
            let tier = s.oc_bn <= target.max_lanes()
                && simd_strip_exists(s.oc_bn, s.dataflow, 1, p.kernel_w);
            if !tier {
                continue;
            }
            served += 1;
            let what = format!("{} {level:?} on {}: {p:?} {s:?}", kind.name(), target.name);
            let width = p.strip_row().1;
            let mut plan =
                strip_plan(s.oc_bn, target.max_lanes(), s.dataflow, p.kernel_w, s.reg_n, width)
                    .peekable();
            assert_eq!(plan.peek(), Some(&s.reg_n), "{what}: reg_n is not the strip that runs");
            for len in plan {
                assert!(
                    simd_strip_exists(s.oc_bn, s.dataflow, len, p.kernel_w),
                    "{what}: {len} of {width} pixels would run the scalar strip"
                );
            }
        }
    }
    served
}

#[test]
fn no_zoo_conv_sends_a_pixel_to_a_scalar_strip() {
    for target in [CpuTarget::host(), CpuTarget::skylake_avx512(), CpuTarget::epyc_avx2()] {
        for level in [OptLevel::O3, OptLevel::O2] {
            let served = check_zoo(&target, level);
            // A scalar host (no x86 tier) has nothing to hold to the rule.
            if target.max_lanes() >= 8 {
                assert!(served > 900, "{} {level:?}: only {served} convs checked", target.name);
            }
        }
    }
}
