//! Fault containment demo: graceful degradation from a poisoned scheme
//! database, plus failpoint drills against a live module.
//!
//! ```text
//! cargo run --release --example fault_containment --features fault-injection
//! ```

use neocpu::faults::{self, FaultMode, Trigger};
use neocpu::{compile_with_report, CompileOptions, CpuTarget, NeoError, OptLevel};
use neocpu_graph::GraphBuilder;
use neocpu_kernels::conv::{Conv2dParams, ConvSchedule};
use neocpu_search::{RankedScheme, SchemeDatabase};
use neocpu_tensor::{Layout, Tensor};

fn main() {
    let mut b = GraphBuilder::new(11);
    let x = b.input([1, 8, 12, 12]);
    let c = b.conv_bn_relu(x, 16, 3, 1, 1);
    let g = b.finish(vec![c]);
    let target = CpuTarget::host();

    // A scheme database poisoned with an entry whose ic_bn (5) does not
    // divide the workload's input channels (8). The verifier drops it,
    // records the diagnostic, and compilation degrades to the default
    // schedule instead of aborting.
    let workload = Conv2dParams::square(8, 16, 12, 3, 1, 1);
    let mut db = SchemeDatabase::new();
    db.replace(
        &target.name,
        &workload,
        vec![RankedScheme {
            schedule: ConvSchedule { ic_bn: 5, oc_bn: 16, reg_n: 8, ..Default::default() },
            time: 1e-4,
        }],
    );
    let (module, report) =
        compile_with_report(&g, &target, &CompileOptions::level(OptLevel::O3), &mut db)
            .expect("compilation degrades instead of failing");
    println!("compiled with poisoned database; report clean: {}", report.is_clean());
    for d in &report.dropped_schemes {
        println!("  dropped  node {:>2}: {}", d.node, d.reason);
    }
    for f in &report.fallbacks {
        println!("  fallback node {:>2}: {:?} ({})", f.node, f.fallback, f.reason);
    }

    let input = Tensor::random([1, 8, 12, 12], Layout::Nchw, 5, 1.0).expect("valid input");
    let out = module.run(std::slice::from_ref(&input)).expect("clean run");
    println!("clean inference  -> output shape {:?}", out[0].shape());

    // Surplus inputs are rejected before any kernel executes.
    let two = [input.clone(), input.clone()];
    println!("surplus input    -> {}", module.run(&two).unwrap_err());

    // Fault drills: an injected error, then an injected panic, at the
    // kernel-entry failpoint. Both surface as typed errors from `run`.
    faults::arm(faults::KERNEL_ENTRY, Trigger::Always, FaultMode::Error);
    println!("injected error   -> {}", module.run(std::slice::from_ref(&input)).unwrap_err());
    faults::arm(faults::KERNEL_ENTRY, Trigger::Always, FaultMode::Panic);
    let err = module.run(std::slice::from_ref(&input)).unwrap_err();
    match &err {
        NeoError::Panicked { node, op, .. } => {
            println!("injected panic   -> contained at node {node} ({op}): {err}");
        }
        other => println!("unexpected error shape: {other}"),
    }
    faults::disarm_all();
    module.run(std::slice::from_ref(&input)).expect("module recovers after faults");
    println!("module recovered: clean run after disarming all failpoints ✔");
}
