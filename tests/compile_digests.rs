//! Every program the compiler emits for the model zoo, held by one digest
//! per `(model, target, level)` against a checked-in file of expected lines.
//!
//! A change that means to leave programs alone — a refactor, a solver swap,
//! a deleted option — must leave `tests/compile_digests.txt` byte for byte.
//! A change that means to move programs re-blesses: a failing run writes
//! every line it computed to `compile_digests.actual` under cargo's
//! `CARGO_TARGET_TMPDIR` (the failure message prints the path); copy that
//! file over the expected one and list every line that moved, and why.
//!
//! Each line is `model target level dtype digest transforms=N`, plus
//! `report=DIGEST` for an int8 compile. The digest is FNV-1a 64 over:
//! - every node's op, with its workload, schedule, fused epilogue and
//!   quantization state, and the node's inputs;
//! - every node's inferred layout and dtype;
//! - the graph outputs;
//! - every parameter's shape, layout, dtype and bits.
//!
//! `transform_count` stands beside it, and an int8 compile adds a digest of
//! its `QuantizeReport`: conv counts, the fold census with each standalone
//! node's reason, the accuracy gate's verdict and the compile diagnostics.
//!
//! The tier-1 test covers the 16 zoo models at tiny scale, O0–O3, on the
//! three paper targets, the quantized zoo at O1–O3, and DenseNet-161 at
//! tiny scale but input 112, O3 on `skylake_avx512`, the one reduced-scale
//! program whose plan a ×10 transform price moves (211 lines). The
//! ignored test covers the same targets at full scale, O3 only (54 lines,
//! `tests/compile_digests_full.txt`); run it in release:
//! `cargo test --release --test compile_digests -- --ignored`.
//!
//! No line depends on the machine it runs on. `CpuTarget::host` is left
//! out: its ISA is the machine's. The compile searches with the analytical
//! model only, and the strip table and lane cap it plans with are the
//! target's, not the host's. What calibration derives is the exception: the
//! int8 compile runs the f32 module to record activation ranges, and f32
//! strips agree with each other only within rounding (`strip_matrix` holds
//! them to the reference within a tolerance), so a host without AVX-512
//! calibrates other bits. Those values are hashed by presence and dtype
//! only — an int8 conv's input scale and zero point, its multiplier and
//! folded-bias parameters, a requantizing epilogue's and a `Quantize`
//! node's scale and zero point — and the report digest leaves
//! `max_abs_error` out. Forcing the f32 lane cap to 1 on an AVX-512 host
//! moved 16 of the 264 lines before they were masked, and none after.

use std::collections::HashSet;
use std::fmt::Debug;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use neocpu::{
    compile, compile_quantized, CompileOptions, CompileReport, CpuTarget, OptLevel,
    QuantizeOptions, QuantizeReport,
};
use neocpu_graph::{infer_layouts, infer_shapes, Graph, Op, ParamId};
use neocpu_models::{build, quantized_zoo, zoo, ModelKind, ModelScale};
use neocpu_tensor::{DType, Tensor};

/// FNV-1a, 64 bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A value by its `Debug` text, closed by a separator byte so that two
    /// adjacent fields cannot trade characters. `Debug` prints an `f32` as
    /// the shortest text that reads back to the same bits.
    fn debug(&mut self, value: impl Debug) {
        self.bytes(format!("{value:?}").as_bytes());
        self.bytes(&[0xff]);
    }

    fn tensor_bits(&mut self, t: &Tensor) {
        let n = t.num_elements();
        match t.dtype() {
            DType::F32 => t.data()[..n].iter().for_each(|v| self.bytes(&v.to_bits().to_le_bytes())),
            DType::U8 => self.bytes(&t.data_u8()[..n]),
            DType::I8 => t.data_i8()[..n].iter().for_each(|v| self.bytes(&v.to_le_bytes())),
        }
    }
}

/// `op` with every value calibration derives set to zero, and the
/// parameters that hold such values: an int8 conv's input scale and zero
/// point, its multiplier and its zero-point-folded bias; a requantizing
/// epilogue's and a `Quantize` node's scale and zero point.
fn mask_calibrated(op: &Op) -> (Op, Vec<ParamId>) {
    let mut op = op.clone();
    let mut params = Vec::new();
    match &mut op {
        Op::Conv2d { bias, quant, requant, .. } => {
            if let Some(q) = quant {
                (q.in_scale, q.in_zp) = (0.0, 0);
                params.push(q.mult);
                params.extend(*bias);
            }
            if let Some(r) = requant {
                *r = (0.0, 0);
            }
        }
        Op::Quantize { scale, zero_point } => {
            (*scale, *zero_point) = (0.0, 0);
        }
        _ => {}
    }
    (op, params)
}

/// The digest of one module's graph.
fn graph_digest(g: &Graph) -> u64 {
    let shapes = infer_shapes(g).expect("a compiled module's graph infers");
    let (layouts, dtypes) = infer_layouts(g, &shapes).expect("a compiled module's graph infers");
    let mut h = Fnv::new();
    let mut calibrated = HashSet::new();
    for (id, node) in g.nodes.iter().enumerate() {
        let (op, params) = mask_calibrated(&node.op);
        calibrated.extend(params);
        h.debug(op);
        h.debug(&node.inputs);
        h.debug((layouts[id], dtypes[id]));
    }
    h.debug(&g.outputs);
    for (id, p) in g.params.iter().enumerate() {
        h.debug((p.shape().dims(), p.layout(), p.dtype()));
        if !calibrated.contains(&id) {
            h.tensor_bits(p);
        }
    }
    h.0
}

/// The digest of a `QuantizeReport`, its compile diagnostics included.
fn report_digest(r: &QuantizeReport) -> u64 {
    let mut h = Fnv::new();
    h.debug((r.quantized, r.skipped, r.fell_back, r.folded, r.folded_elements));
    h.debug(&r.standalone);
    let CompileReport { dropped_schemes, fallbacks, memory } = &r.compile;
    h.debug((dropped_schemes, fallbacks, memory));
    h.0
}

/// One program to compile: `int8` runs `compile_quantized`, and `input`
/// overrides the scale's input resolution (the line names it after the
/// model, `DenseNet-161@112`).
#[derive(Clone, Copy)]
struct Case {
    kind: ModelKind,
    target: fn() -> CpuTarget,
    level: OptLevel,
    int8: bool,
    input: Option<usize>,
}

fn digest_line(case: Case, scale: fn(ModelKind) -> ModelScale) -> String {
    let target = (case.target)();
    let mut model_scale = scale(case.kind);
    model_scale.input = case.input.unwrap_or(model_scale.input);
    let g = build(case.kind, model_scale, 7);
    let opts = CompileOptions::level(case.level);
    let model = match case.input {
        Some(input) => format!("{}@{input}", case.kind.name()),
        None => case.kind.name().to_string(),
    };
    let program = format!("{model} {} {:?}", target.name, case.level);
    let (module, report) = if case.int8 {
        let (m, r) =
            compile_quantized(&g, &target, &opts, &QuantizeOptions::default()).expect(&program);
        (m, format!(" report={:016x}", report_digest(&r)))
    } else {
        (compile(&g, &target, &opts).expect(&program), String::new())
    };
    format!(
        "{program} {} {:016x} transforms={}{report}",
        if case.int8 { "int8" } else { "f32" },
        graph_digest(module.graph()),
        module.transform_count(),
    )
}

const TARGETS: [fn() -> CpuTarget; 3] =
    [CpuTarget::skylake_avx512, CpuTarget::epyc_avx2, CpuTarget::arm_a72_neon];

/// The f32 zoo at `levels`, then the quantized zoo at `int8_levels`, each
/// on every target.
fn cases(levels: &[OptLevel], int8_levels: &[OptLevel]) -> Vec<Case> {
    let mut out = Vec::new();
    for (models, levels, int8) in [(zoo(), levels, false), (quantized_zoo(), int8_levels, true)] {
        for target in TARGETS {
            for &kind in &models {
                for &level in levels {
                    out.push(Case { kind, target, level, int8, input: None });
                }
            }
        }
    }
    out
}

/// Computes every case's line on `workers` threads, in case order.
fn digest_lines(cases: &[Case], scale: fn(ModelKind) -> ModelScale, workers: usize) -> Vec<String> {
    let next = AtomicUsize::new(0);
    let lines = Mutex::new(vec![String::new(); cases.len()]);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&case) = cases.get(i) else { break };
                let line = digest_line(case, scale);
                lines.lock().unwrap()[i] = line;
            });
        }
    });
    lines.into_inner().unwrap()
}

/// Compares the computed lines with the expected file. On any difference,
/// writes the computed lines beside the build and fails naming the first
/// differing program.
fn check(expected_file: &str, lines: &[String]) {
    let expected_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join(expected_file);
    let expected = fs::read_to_string(&expected_path).unwrap_or_default();
    let mut actual = lines.join("\n");
    actual.push('\n');
    if actual == expected {
        return;
    }
    let actual_path: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(Path::new(expected_file).with_extension("actual"));
    fs::write(&actual_path, &actual).expect("write the computed lines");
    let want: Vec<&str> = expected.lines().collect();
    let differing = (0..want.len().max(lines.len()))
        .filter(|&i| want.get(i).copied() != lines.get(i).map(String::as_str))
        .collect::<Vec<_>>();
    let first = differing[0];
    let program = |line: Option<&str>| -> String {
        line.map_or("(none)".into(), |l| l.split(' ').take(4).collect::<Vec<_>>().join(" "))
    };
    panic!(
        "{} of {} lines differ from {}; the first differing program is {} \
         (line {}):\n  expected: {}\n  computed: {}\nEvery computed line is in {}. \
         If the change means to move programs, copy that file over the expected one \
         and say which lines moved and why.",
        differing.len(),
        want.len().max(lines.len()),
        expected_path.display(),
        program(lines.get(first).map(String::as_str).or(want.get(first).copied())),
        first + 1,
        want.get(first).copied().unwrap_or("(none)"),
        lines.get(first).map_or("(none)", String::as_str),
        actual_path.display(),
    );
}

/// The one reduced-scale program known to see a target's transform price:
/// of the zoo at O3 with `mem_bytes_per_sec` ×0.1 and ×10, at channel
/// divisors 1, 2 and 4 and inputs 64, 112 and 224 (Inception at its own
/// input only), on `skylake_avx512` and `epyc_avx2`, only this program
/// moved, at ×10 on skylake. No reduced-scale program moved for
/// `epyc_avx2`: its transform price is held by the full-scale test only.
const TRANSFORM_PRICED: Case = Case {
    kind: ModelKind::DenseNet161,
    target: CpuTarget::skylake_avx512,
    level: OptLevel::O3,
    int8: false,
    input: Some(112),
};

#[test]
fn tiny_zoo_programs_match_their_digests() {
    use OptLevel::*;
    let mut cases = cases(&[O0, O1, O2, O3], &[O1, O2, O3]);
    cases.push(TRANSFORM_PRICED);
    let lines = digest_lines(&cases, ModelScale::tiny, 2);
    assert_eq!(lines.len(), 211);
    check("compile_digests.txt", &lines);
}

#[test]
#[ignore = "full scale: run in release with `-- --ignored`"]
fn full_scale_o3_programs_match_their_digests() {
    // One compile at a time: a full-scale VGG holds its weights twice while
    // it is blocked.
    let lines = digest_lines(&cases(&[OptLevel::O3], &[OptLevel::O3]), ModelScale::full, 1);
    assert_eq!(lines.len(), 54);
    check("compile_digests_full.txt", &lines);
}
