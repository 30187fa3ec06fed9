//! Integration tests of the two-stage search on real model graphs: PBQP
//! (the one solver a compile runs) against Algorithm 2's DP, the reference
//! (the paper's ≥ 88% validation, §3.3.2), and the global search's advantage
//! over greedy local choices.

use neocpu::{CompileOptions, OptLevel};
use neocpu_graph::passes::{fuse_ops, simplify_inference};
use neocpu_models::{build, ModelKind, ModelScale};
use neocpu_search::{
    extract_problem, global::solve_dp, global::solve_pbqp, local_search, AnalyticalModel,
    GlobalCfg, LocalSearchCfg,
};

fn problem_for(kind: ModelKind, keep: usize) -> neocpu_search::SearchProblem {
    let g = build(kind, ModelScale::tiny(kind), 3);
    let g = fuse_ops(&simplify_inference(&g).unwrap()).unwrap();
    let model = AnalyticalModel::default();
    let cfg = LocalSearchCfg { keep, ..Default::default() };
    let mut ranked = |_, p: &neocpu_kernels::Conv2dParams| local_search(p, &model, &cfg);
    extract_problem(&g, &mut ranked, &model).unwrap()
}

#[test]
fn pbqp_within_quality_band_of_dp_on_models() {
    // The paper validates the PBQP approximation at ≥ 88% of the DP result.
    for kind in [ModelKind::ResNet18, ModelKind::Vgg11, ModelKind::DenseNet121] {
        let p = problem_for(kind, 4);
        let dp = p.objective(&solve_dp(&p));
        let pb = p.objective(&solve_pbqp(&p));
        assert!(
            pb <= dp / 0.88 + 1e-6,
            "{}: PBQP {pb} vs DP {dp}",
            kind.name()
        );
    }
}

#[test]
fn global_search_beats_or_ties_greedy_local_optimum() {
    // Greedy = every conv takes its locally fastest scheme (assignment 0).
    for kind in [ModelKind::ResNet18, ModelKind::Vgg11] {
        let p = problem_for(kind, 6);
        let (assign, obj) = neocpu_search::solve(&p, &GlobalCfg::default());
        let greedy = vec![0usize; p.nodes.len()];
        assert!(
            obj <= p.objective(&greedy) + 1e-9,
            "{}: global {obj} vs greedy {}",
            kind.name(),
            p.objective(&greedy)
        );
        assert_eq!(assign.len(), p.nodes.len());
    }
}

#[test]
fn ssd_problem_is_not_a_forest_and_pbqp_solves_it() {
    // SSD's residual blocks + multibox concat joins create cross edges, so
    // PBQP needs its RN step there; the solve still assigns every conv.
    let p = problem_for(ModelKind::SsdResNet50, 4);
    assert!(!p.is_forest(), "SSD conv dependency graph should have cycles");
    let (assign, obj) = neocpu_search::solve(&p, &GlobalCfg::default());
    assert_eq!(assign.len(), p.nodes.len());
    assert!(obj.is_finite());
}

#[test]
fn vgg_problem_is_a_chain_solved_exactly() {
    // On a forest PBQP's reductions are exact, and so is the DP: at the
    // compile's own candidate count they pick the same candidate for every
    // conv of VGG-11 (a chain) and MobileNet.
    let keep = CompileOptions::level(OptLevel::O3).keep_candidates;
    for kind in [ModelKind::Vgg11, ModelKind::MobileNet] {
        let p = problem_for(kind, keep);
        assert!(p.is_forest(), "{}", kind.name());
        assert_eq!(solve_dp(&p), solve_pbqp(&p), "{}", kind.name());
    }
}

#[test]
fn matched_factors_have_zero_edge_cost_in_real_problems() {
    let p = problem_for(ModelKind::ResNet18, 6);
    let mut found_zero = false;
    for e in &p.edges {
        let cols = p.nodes[e.b].candidates.len();
        for (i, ka) in p.nodes[e.a].candidates.iter().enumerate() {
            for (j, kb) in p.nodes[e.b].candidates.iter().enumerate() {
                if ka.oc_bn == kb.ic_bn && e.matrix[i * cols + j] == 0.0 {
                    found_zero = true;
                }
            }
        }
    }
    assert!(found_zero, "agreeing blockings must be free somewhere");
}
