//! A module planned at batch B runs any n ∈ 1..=B rows (the executor's
//! n-row runs, which the serving engine uses to run a formed batch of n
//! requests without padding it to B).
//!
//! The property: every n-row run is **bit-identical**, row for row, to the
//! first n rows of the B-row run on the same images — across f32 and int8
//! modules, `O2` and `O3` (analytical search), a sequential executor and a
//! 2-thread pool, and on one context cycled through every row count, so
//! stale arena rows of a larger run can never leak into a smaller one.

use neocpu::{
    compile, compile_quantized, CompileOptions, CpuTarget, Module, NeoError, OptLevel,
    QuantizeOptions,
};
use neocpu_graph::GraphBuilder;
use neocpu_models::{build, quantized_zoo, ModelKind, ModelScale};
use neocpu_tensor::{Layout, Tensor};

const B: usize = 4;

/// The first `rows` images of `batch`, as their own tensor.
fn prefix(batch: &Tensor, rows: usize) -> Tensor {
    let mut dims = batch.shape().dims().to_vec();
    let row_len = batch.data().len() / dims[0];
    dims[0] = rows;
    Tensor::from_vec(batch.data()[..rows * row_len].to_vec(), dims, batch.layout()).unwrap()
}

/// Runs every row count on one context — B first, then 1, 2, …, B−1, then
/// B again — and holds each output to the same rows of the first B-row run.
fn assert_prefix_runs_match(m: &Module, what: &str, input: &Tensor) {
    let mut ctx = m.make_context();
    m.run_with(&mut ctx, std::slice::from_ref(input)).unwrap();
    let full: Vec<Tensor> = ctx.outputs().into_iter().cloned().collect();
    for rows in (1..B).chain([B]) {
        m.run_with(&mut ctx, &[prefix(input, rows)])
            .unwrap_or_else(|e| panic!("{what}: {rows}-row run failed: {e}"));
        for (o, (got, want)) in ctx.outputs().into_iter().zip(&full).enumerate() {
            assert_eq!(got.shape().dims()[0], rows, "{what}: output #{o} of a {rows}-row run");
            let n = got.data().len();
            assert_eq!(n * B, want.data().len() * rows, "{what}: output #{o} row length");
            assert_eq!(
                got.data(),
                &want.data()[..n],
                "{what}: output #{o} of the {rows}-row run differs from the B-row run's rows"
            );
        }
    }
    // The pooled entry point takes the same row counts.
    let one = m.run(&[prefix(input, 1)]).unwrap();
    assert_eq!(one[0].data(), &full[0].data()[..one[0].data().len()], "{what}: Module::run");
}

fn batch_input(kind: ModelKind, seed: u64) -> Tensor {
    let scale = ModelScale::tiny(kind);
    Tensor::random([B, 3, scale.input, scale.input], Layout::Nchw, seed, 1.0).unwrap()
}

/// `O2` on the sequential executor, `O3` on a 2-thread pool.
fn assert_f32_prefix_runs(kind: ModelKind) {
    let g = build(kind, ModelScale::tiny(kind).with_batch(B), 4242);
    let input = batch_input(kind, 7);
    for (level, threads) in [(OptLevel::O2, 1), (OptLevel::O3, 2)] {
        let opts = CompileOptions::level(level).with_threads(threads);
        let m = compile(&g, &CpuTarget::host(), &opts).unwrap();
        let what = format!("{} f32 {level:?} {threads}t", kind.name());
        assert_prefix_runs_match(&m, &what, &input);
    }
}

#[test]
fn f32_n_row_runs_are_the_rows_of_the_batch_b_run() {
    assert_f32_prefix_runs(ModelKind::MobileNet);
    assert_f32_prefix_runs(ModelKind::ResNet50);
}

/// The concat graphs: Inception's branch fan-ins, DenseNet's long-lived
/// block outputs.
#[test]
fn f32_n_row_runs_of_concat_graphs_are_the_rows_of_the_batch_b_run() {
    assert_f32_prefix_runs(ModelKind::InceptionV3);
    assert_f32_prefix_runs(ModelKind::DenseNet121);
}

#[test]
fn int8_n_row_runs_are_the_rows_of_the_batch_b_run() {
    for kind in quantized_zoo() {
        let g = build(kind, ModelScale::tiny(kind).with_batch(B), 4242);
        let input = batch_input(kind, 11);
        for level in [OptLevel::O2, OptLevel::O3] {
            let opts = CompileOptions::level(level).with_threads(2);
            let (m, report) =
                compile_quantized(&g, &CpuTarget::host(), &opts, &QuantizeOptions::default())
                    .unwrap();
            assert!(!report.fell_back && report.quantized > 0, "{}: {report:?}", kind.name());
            let what = format!("{} int8 {level:?}", kind.name());
            assert_prefix_runs_match(&m, &what, &input);
        }
    }
}

/// The leading dim is checked before anything runs: 0 rows and more than
/// B rows are rejected, and so are inputs that disagree on n. The module
/// stays usable after each rejection.
#[test]
fn runs_reject_zero_surplus_and_disagreeing_row_counts() {
    let mut b = GraphBuilder::new(3);
    let x = b.input([B, 4, 8, 8]);
    let y = b.input([B, 4, 8, 8]);
    let a = b.add(x, y);
    let c = b.conv2d(a, 8, 3, 1, 1);
    let g = b.finish(vec![c]);
    let m = compile(&g, &CpuTarget::host(), &CompileOptions::level(OptLevel::O2)).unwrap();
    let rows = |n: usize, seed: u64| Tensor::random([n, 4, 8, 8], Layout::Nchw, seed, 1.0).unwrap();
    let bad_input = |r: neocpu::Result<Vec<Tensor>>| {
        let err = r.expect_err("must be rejected");
        assert!(matches!(err, NeoError::BadInput(_)), "unexpected error: {err}");
    };
    bad_input(m.run(&[rows(0, 1), rows(0, 2)]));
    bad_input(m.run(&[rows(B + 1, 1), rows(B + 1, 2)]));
    bad_input(m.run(&[rows(2, 1), rows(3, 2)]));
    bad_input(m.run(&[rows(B, 1), rows(1, 2)]));
    for n in 1..=B {
        let out = m.run(&[rows(n, 1), rows(n, 2)]).unwrap();
        assert_eq!(out[0].shape().dims(), &[n, 8, 8, 8]);
    }
}
