//! The two-stage scheme search, visible end to end (§3.3): run the local
//! search on real ResNet-50 convolution workloads with the *timed*
//! measurer, persist the scheme database, then run the global search and
//! show where it overrides the local optima to avoid layout transforms.
//!
//! ```text
//! cargo run --release --example scheme_search
//! ```

use neocpu_graph::passes::{fuse_ops, simplify_inference};
use neocpu_kernels::Conv2dParams;
use neocpu_models::{build, ModelKind, ModelScale};
use neocpu_search::{
    extract_problem, local_search, solve, AnalyticalModel, GlobalCfg, LocalSearchCfg,
    SchemeDatabase, TimedMeasurer,
};

fn main() {
    let kind = ModelKind::ResNet50;
    let scale = ModelScale::tiny(kind);
    let graph = build(kind, scale, 7);
    let graph = fuse_ops(&simplify_inference(&graph).expect("simplify"))
        .expect("fuse");

    // Stage 1: local search per distinct workload, timed on the real
    // kernel with analytical pre-selection (the hybrid mode).
    let timed = TimedMeasurer { repeats: 2, warmup: 1, max_lanes: usize::MAX };
    let cfg = LocalSearchCfg { preselect: Some(12), keep: 6, ..Default::default() };
    let mut db = SchemeDatabase::new();
    let mut distinct = 0usize;
    for id in graph.conv_ids() {
        let neocpu_graph::Op::Conv2d { params, .. } = &graph.nodes[id].op else {
            unreachable!()
        };
        let p: Conv2dParams = *params;
        if db.get("host", &p).is_none() {
            let ranked = local_search(&p, &timed, &cfg);
            let best = ranked[0];
            db.replace("host", &p, ranked);
            distinct += 1;
            println!(
                "workload C{:4}→{:4} {}x{} k{}: best (ic_bn={:2}, oc_bn={:2}, reg_n={:2}) {:9.1} µs",
                p.in_channels,
                p.out_channels,
                p.in_h,
                p.in_w,
                p.kernel_h,
                best.schedule.ic_bn,
                best.schedule.oc_bn,
                best.schedule.reg_n,
                best.time * 1e6,
            );
        }
    }
    println!(
        "\n{} convolutions, {distinct} distinct workloads searched (the paper reports 20 for ResNet-50)",
        graph.conv_ids().len()
    );

    // Persist and reload the database, as a cross-model cache would.
    let path = std::env::temp_dir().join("neocpu_schemes.txt");
    db.save(&path).expect("save scheme database");
    let (db2, problems) = SchemeDatabase::load(&path).expect("load scheme database");
    assert!(problems.is_empty(), "the round-trip reported problems: {problems:?}");
    println!("scheme database round-tripped through {} ({} workloads)", path.display(), db2.len());

    // Stage 2: global search over the whole model.
    let model = AnalyticalModel::default();
    let mut ranked = |_, p: &Conv2dParams| db.get("host", p).expect("searched above").to_vec();
    let problem = extract_problem(&graph, &mut ranked, &model).expect("extract problem");
    let (assignment, obj) = solve(&problem, &GlobalCfg::default());
    let greedy: Vec<usize> = vec![0; problem.nodes.len()];
    let (g_obj, s_obj) = (problem.objective(&greedy), obj);
    println!(
        "\nglobal search: {} conv nodes, {} edges, forest = {}",
        problem.nodes.len(),
        problem.edges.len(),
        problem.is_forest()
    );
    println!("greedy local optima : {:.3} ms (modelled end-to-end conv+transform time)", g_obj * 1e3);
    println!("global assignment   : {:.3} ms", s_obj * 1e3);
    let overridden = assignment.iter().filter(|&&k| k != 0).count();
    println!(
        "the global search moved {overridden}/{} convs off their local optimum to save transforms",
        assignment.len()
    );
}
