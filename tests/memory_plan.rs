//! Integration tests for the static memory planner and the arena executor.
//!
//! Two properties are checked end-to-end through the public API:
//!
//! 1. **Bit-exactness** — for real model topologies (ResNet-style residual
//!    graphs, Inception-style concat graphs), the arena-backed planned run
//!    produces byte-identical output to the naive clone-everything
//!    reference interpreter ([`neocpu::Module::run_reference`]). Same
//!    kernels, same order — only the storage strategy differs, so any
//!    difference is a planner bug.
//! 2. **Plan quality** — over the whole model zoo, the planned arena
//!    peak stays strictly below the naive sum of all intermediate outputs,
//!    and liveness reuse actually fires.
//! 3. **A module holds only what it runs** — every parameter a compiled
//!    module keeps is referenced by one of its nodes, and compiling never
//!    writes through the parameter handles it shares with the caller's
//!    graph.

use neocpu::{
    compile, compile_quantized, compile_with_report, CompileOptions, CpuTarget, OptLevel,
    QuantizeOptions,
};
use neocpu_graph::Graph;
use neocpu_models::{build, quantized_zoo, zoo, ModelKind, ModelScale};
use neocpu_search::SchemeDatabase;
use neocpu_tensor::{Layout, Tensor};

fn tiny_input(kind: ModelKind, seed: u64) -> Tensor {
    let scale = ModelScale::tiny(kind);
    Tensor::random([1, 3, scale.input, scale.input], Layout::Nchw, seed, 1.0).unwrap()
}

fn assert_bit_exact(kind: ModelKind, levels: &[OptLevel]) {
    let input = tiny_input(kind, 42);
    let g = build(kind, ModelScale::tiny(kind), 4242);
    for &level in levels {
        let m = compile(&g, &CpuTarget::host(), &CompileOptions::level(level))
            .unwrap_or_else(|e| panic!("{} {level:?}: compile failed: {e}", kind.name()));
        let planned = m.run(std::slice::from_ref(&input)).unwrap();
        let reference = m.run_reference(std::slice::from_ref(&input)).unwrap();
        assert_eq!(planned.len(), reference.len(), "{}: output arity", kind.name());
        for (p, r) in planned.iter().zip(&reference) {
            assert_eq!(
                p.data(),
                r.data(),
                "{} {level:?}: arena run is not bit-identical to the reference run",
                kind.name()
            );
        }
    }
}

/// ResNet-style graph: residual adds, in-place Relu, downsample branches.
#[test]
fn resnet18_arena_matches_reference_bit_exact() {
    assert_bit_exact(ModelKind::ResNet18, &[OptLevel::O0, OptLevel::O2, OptLevel::O3]);
}

/// Bottleneck variant: longer branch lifetimes across the skip connection.
#[test]
fn resnet50_arena_matches_reference_bit_exact() {
    assert_bit_exact(ModelKind::ResNet50, &[OptLevel::O2]);
}

/// Inception-style graph: concat fan-ins with branches of differing depth,
/// the hardest liveness shape for interval packing.
#[test]
fn inception_v3_arena_matches_reference_bit_exact() {
    assert_bit_exact(ModelKind::InceptionV3, &[OptLevel::O2]);
}

/// DenseNet-style graph: every block output stays live into a concat far
/// downstream, so reuse must not clobber long-lived values.
#[test]
fn densenet121_arena_matches_reference_bit_exact() {
    assert_bit_exact(ModelKind::DenseNet121, &[OptLevel::O2]);
}

/// MobileNet: depthwise convs whose padded-input scratch lives in the
/// arena — the scratch region must stay disjoint from every live value.
#[test]
fn mobilenet_arena_matches_reference_bit_exact() {
    assert_bit_exact(ModelKind::MobileNet, &[OptLevel::O0, OptLevel::O2, OptLevel::O3]);
}

/// Int8 modules plan u8 values — the outputs of convs with a folded
/// `Quantize` among them — at a quarter of the slots and pad u8 scratch:
/// the arena run still equals the reference run bit for bit, also with the
/// standalone `Quantize` nodes on a 2-thread pool.
#[test]
fn folded_int8_arena_matches_reference_bit_exact() {
    for kind in quantized_zoo() {
        let g = build(kind, ModelScale::tiny(kind), 4242);
        let opts = CompileOptions::level(OptLevel::O3).with_threads(2);
        let (m, report) =
            compile_quantized(&g, &CpuTarget::host(), &opts, &QuantizeOptions::default()).unwrap();
        assert!(!report.fell_back && report.folded >= 2, "{}: {report:?}", kind.name());
        let input = tiny_input(kind, 42);
        let planned = m.run(std::slice::from_ref(&input)).unwrap();
        let reference = m.run_reference(std::slice::from_ref(&input)).unwrap();
        for (p, r) in planned.iter().zip(&reference) {
            assert_eq!(p.data(), r.data(), "{}: int8 arena run != reference run", kind.name());
        }
    }
}

/// Across the whole zoo the planner must beat the naive allocator: the
/// arena peak stays strictly below the sum of all intermediate outputs,
/// and at least one liveness-reuse decision fires per model.
#[test]
fn planned_peak_beats_naive_across_the_zoo() {
    for kind in zoo() {
        let g = build(kind, ModelScale::tiny(kind), 7);
        let mut db = SchemeDatabase::new();
        let (m, report) = compile_with_report(
            &g,
            &CpuTarget::host(),
            &CompileOptions::level(OptLevel::O2),
            &mut db,
        )
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", kind.name()));
        let mem = report.memory;
        assert_eq!(&mem, m.memory_report(), "{}: report/module disagree", kind.name());
        assert!(mem.planned_peak_bytes > 0, "{}: empty plan", kind.name());
        assert!(
            mem.planned_peak_bytes < mem.naive_bytes,
            "{}: planned peak {} is not below naive {}",
            kind.name(),
            mem.planned_peak_bytes,
            mem.naive_bytes
        );
        // Epilogue fusion can absorb every Relu/Add into the convs (SSD);
        // reuse decisions are required only where eligible ops survive.
        let eligible = m.graph().nodes.iter().any(|n| {
            matches!(
                n.op,
                neocpu_graph::Op::Relu | neocpu_graph::Op::Add | neocpu_graph::Op::Flatten
            )
        });
        assert!(
            !eligible || mem.reused > 0,
            "{}: no in-place reuse decisions despite eligible ops",
            kind.name()
        );
    }
}

/// The arena survives reuse across runs: outputs of a second warm run on
/// the same pooled context equal a fresh module's outputs.
#[test]
fn warm_context_reuse_is_stable_on_resnet18() {
    let kind = ModelKind::ResNet18;
    let input = tiny_input(kind, 9);
    let g = build(kind, ModelScale::tiny(kind), 99);
    let m = compile(&g, &CpuTarget::host(), &CompileOptions::level(OptLevel::O2)).unwrap();
    let first = m.run(std::slice::from_ref(&input)).unwrap();
    // The second run reuses the pooled context (stale arena contents).
    let second = m.run(std::slice::from_ref(&input)).unwrap();
    assert_eq!(first[0].data(), second[0].data());
    // Explicit context path agrees as well.
    let mut ctx = m.make_context();
    m.run_with(&mut ctx, std::slice::from_ref(&input)).unwrap();
    assert_eq!(first[0].data(), ctx.output(0).unwrap().data());
}

/// Bytes of the module's parameters, then bytes of those its nodes
/// reference (each tensor once); panics on a parameter no node references.
fn held_and_referenced_bytes(m: &neocpu::Module, what: &str) -> (usize, usize) {
    let g = m.graph();
    let referenced: std::collections::BTreeSet<usize> =
        g.nodes.iter().flat_map(|n| n.op.param_ids()).collect();
    for p in 0..g.params.len() {
        assert!(referenced.contains(&p), "{what}: parameter {p} is referenced by no node");
    }
    let bytes = |p: usize| std::mem::size_of_val(g.params[p].data());
    ((0..g.params.len()).map(bytes).sum(), referenced.into_iter().map(bytes).sum())
}

/// Over the zoo at every level and over the quantized zoo, the compiled
/// module keeps no pre-fold, pre-transform or pre-quantization tensor.
#[test]
fn modules_hold_only_the_parameters_they_reference() {
    let target = CpuTarget::host();
    for kind in zoo() {
        let g = build(kind, ModelScale::tiny(kind), 11);
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            let m = compile(&g, &target, &CompileOptions::level(level)).unwrap();
            let what = format!("{} {level:?}", kind.name());
            let (held, referenced) = held_and_referenced_bytes(&m, &what);
            assert_eq!(held, referenced, "{what}");
        }
    }
    for kind in quantized_zoo() {
        let g = build(kind, ModelScale::tiny(kind), 11);
        let opts = CompileOptions::level(OptLevel::O3);
        let (m, report) = compile_quantized(&g, &target, &opts, &QuantizeOptions::default()).unwrap();
        assert!(report.quantized > 0 && !report.fell_back, "{}: {report:?}", kind.name());
        let what = format!("{} int8", kind.name());
        let (held, referenced) = held_and_referenced_bytes(&m, &what);
        assert_eq!(held, referenced, "{what}");
    }
}

fn param_bits(g: &Graph) -> Vec<Vec<u32>> {
    g.params.iter().map(|t| t.data().iter().map(|v| v.to_bits()).collect()).collect()
}

fn output_bits(m: &neocpu::Module, input: &Tensor) -> Vec<Vec<u32>> {
    let outs = m.run(std::slice::from_ref(input)).unwrap();
    outs.iter().map(|t| t.data().iter().map(|v| v.to_bits()).collect()).collect()
}

/// Modules share parameter handles with the graph they were compiled
/// from. Compiling one graph twice, f32 and int8, must leave the caller's
/// parameters bit for bit as they were, and the second compile of each
/// kind must run exactly like the first.
#[test]
fn compiling_twice_leaves_the_callers_parameters_untouched() {
    let kind = ModelKind::MobileNet;
    let g = build(kind, ModelScale::tiny(kind), 23);
    let before = param_bits(&g);
    let (target, opts) = (CpuTarget::host(), CompileOptions::level(OptLevel::O3));
    let int8 = || compile_quantized(&g, &target, &opts, &QuantizeOptions::default()).unwrap().0;
    let f32_modules = [compile(&g, &target, &opts).unwrap(), compile(&g, &target, &opts).unwrap()];
    let int8_modules = [int8(), int8()];
    assert!(param_bits(&g) == before, "compiling wrote to the caller's parameters");
    let input = tiny_input(kind, 5);
    for [first, second] in [&f32_modules, &int8_modules] {
        assert_eq!(output_bits(first, &input), output_bits(second, &input));
    }
}
