//! Global scheme search (§3.3.2).
//!
//! The model graph is distilled into a [`SearchProblem`]: one problem node
//! per convolution carrying its candidate schedules and their local-search
//! times, and one edge per data-flow relation between convolutions carrying
//! a layout-transform cost matrix (zero where the producer's `oc_bn` equals
//! the consumer's `ic_bn`, the measured/modelled transform time otherwise).
//! Element-wise joins (`Add`, `Concat`) additionally couple their source
//! convolutions' *output* blockings, Figure 3's "Elementwise_Add could not
//! be omitted" constraint.
//!
//! [`solve`] runs the PBQP solver (register-allocation style), whose
//! R0/RI/RII reductions are exact on forests and series-parallel graphs and
//! whose RN step approximates the rest (SSD's concat blocks). Two more
//! solvers share the problem type only as references that tests and the
//! E5 table hold PBQP to: the Algorithm 2 dynamic program
//! ([`solve_dp`]) and brute-force enumeration ([`solve_exhaustive`]).

mod dp;
mod pbqp;

pub use dp::solve_dp;
pub use pbqp::solve_pbqp;

use std::cell::RefCell;
use std::collections::HashMap;

use neocpu_graph::{infer_shapes, Graph, NodeId, Op};
use neocpu_kernels::conv::{Conv2dParams, ConvSchedule};

use crate::cost::CostModel;
use crate::local::RankedScheme;

/// One convolution in the search problem.
#[derive(Debug, Clone)]
pub struct ProblemNode {
    /// Graph node id of the convolution.
    pub conv: NodeId,
    /// Its workload.
    pub params: Conv2dParams,
    /// Candidate schedules (the head of the local-search ranking).
    pub candidates: Vec<ConvSchedule>,
    /// Per-candidate execution times (seconds).
    pub costs: Vec<f32>,
}

/// A pairwise layout-compatibility cost between two problem nodes.
#[derive(Debug, Clone)]
pub struct ProblemEdge {
    /// Source problem-node index (`a < b`).
    pub a: usize,
    /// Destination problem-node index.
    pub b: usize,
    /// Row-major `|a.candidates| × |b.candidates|` transform-cost matrix.
    pub matrix: Vec<f32>,
}

/// The distilled global-search instance.
#[derive(Debug, Clone, Default)]
pub struct SearchProblem {
    /// Problem nodes in graph topological order.
    pub nodes: Vec<ProblemNode>,
    /// Edges with `a < b`, at most one per (a, b) pair.
    pub edges: Vec<ProblemEdge>,
}

impl SearchProblem {
    /// Total cost of an assignment (one candidate index per node): node
    /// execution times plus all edge transform costs. This is the single
    /// objective every solver is judged by.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` has the wrong length or an index is out of
    /// range (solver bug).
    pub fn objective(&self, assignment: &[usize]) -> f32 {
        assert_eq!(assignment.len(), self.nodes.len());
        let mut total = 0f32;
        for (n, &k) in self.nodes.iter().zip(assignment) {
            total += n.costs[k];
        }
        for e in &self.edges {
            let cols = self.nodes[e.b].candidates.len();
            total += e.matrix[assignment[e.a] * cols + assignment[e.b]];
        }
        total
    }

    /// Number of assignments in the product space.
    pub fn state_count(&self) -> f64 {
        self.nodes.iter().map(|n| n.candidates.len() as f64).product()
    }

    /// Whether the edge graph is a forest (acyclic when viewed
    /// undirected): where Algorithm 2's DP is exact, and where PBQP needs
    /// no RN step. Tests and the E5 table report it; no solve reads it.
    pub fn is_forest(&self) -> bool {
        let mut parent: Vec<usize> = (0..self.nodes.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for e in &self.edges {
            let (ra, rb) = (find(&mut parent, e.a), find(&mut parent, e.b));
            if ra == rb {
                return false;
            }
            parent[ra] = rb;
        }
        true
    }

    /// Converts an assignment into the per-conv schedule map consumed by
    /// `neocpu_graph::passes::plan_assigned`.
    pub fn assignment_to_schedules(&self, assignment: &[usize]) -> HashMap<NodeId, ConvSchedule> {
        self.nodes
            .iter()
            .zip(assignment)
            .map(|(n, &k)| (n.conv, n.candidates[k]))
            .collect()
    }
}

/// Global-search configuration. It holds nothing: PBQP is the one solver.
/// The type stays so that callers of [`solve`] keep their signature until
/// the solve learns a setting; it is built with `GlobalCfg::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalCfg {}

/// Solves a problem with PBQP, returning the chosen assignment and its
/// objective.
pub fn solve(problem: &SearchProblem, _cfg: &GlobalCfg) -> (Vec<usize>, f32) {
    let assignment = solve_pbqp(problem);
    let obj = problem.objective(&assignment);
    (assignment, obj)
}

/// Brute-force enumeration (validation tool; exponential).
///
/// # Panics
///
/// Panics if the product space exceeds 10⁷ assignments.
pub fn solve_exhaustive(problem: &SearchProblem) -> Vec<usize> {
    assert!(problem.state_count() <= 1e7, "exhaustive solver limited to small instances");
    let n = problem.nodes.len();
    let mut cur = vec![0usize; n];
    let mut best = cur.clone();
    let mut best_obj = problem.objective(&cur);
    loop {
        // Odometer increment.
        let mut i = n;
        loop {
            if i == 0 {
                return best;
            }
            i -= 1;
            cur[i] += 1;
            if cur[i] < problem.nodes[i].candidates.len() {
                break;
            }
            cur[i] = 0;
        }
        let obj = problem.objective(&cur);
        if obj < best_obj {
            best_obj = obj;
            best = cur.clone();
        }
    }
}

/// Builds the [`SearchProblem`] for a graph.
///
/// `ranked` supplies each conv's candidate list (typically the head of its
/// local search, via the [`crate::SchemeDatabase`]); `model` prices the
/// transform edges.
///
/// # Errors
///
/// Returns an error if graph shape inference fails.
pub fn extract_problem(
    g: &Graph,
    ranked: &mut dyn FnMut(NodeId, &Conv2dParams) -> Vec<RankedScheme>,
    model: &dyn CostModel,
) -> neocpu_graph::Result<SearchProblem> {
    // Each distinct transform is priced once: an edge asks for every pair of
    // its two candidate lists, a model repeats a few tensor shapes many
    // times, and a measuring model runs the transform it prices.
    let seen = RefCell::new(HashMap::new());
    let price = |c: usize, h: usize, w: usize, from: usize, to: usize| -> f32 {
        *seen
            .borrow_mut()
            .entry([c, h, w, from, to])
            .or_insert_with(|| model.transform_time(c, h, w, from, to))
    };
    let shapes = infer_shapes(g)?;
    let conv_ids = g.conv_ids();
    let mut index: HashMap<NodeId, usize> = HashMap::new();
    let mut nodes = Vec::with_capacity(conv_ids.len());
    for &id in &conv_ids {
        let Op::Conv2d { params, .. } = &g.nodes[id].op else { unreachable!() };
        let list = ranked(id, params);
        assert!(!list.is_empty(), "every conv needs at least one candidate");
        index.insert(id, nodes.len());
        nodes.push(ProblemNode {
            conv: id,
            params: *params,
            candidates: list.iter().map(|r| r.schedule).collect(),
            costs: list.iter().map(|r| r.time).collect(),
        });
    }

    // For every graph node, the set of problem nodes whose *output blocking*
    // that node's value carries (flows through layout-tolerant ops).
    let mut sources: Vec<Vec<usize>> = Vec::with_capacity(g.len());
    for (id, node) in g.nodes.iter().enumerate() {
        let s = match &node.op {
            Op::Conv2d { .. } => vec![index[&id]],
            Op::Input { .. } | Op::Flatten | Op::Dense { .. } | Op::Softmax => Vec::new(),
            Op::Add | Op::Concat => {
                let mut v: Vec<usize> = node
                    .inputs
                    .iter()
                    .flat_map(|&i| sources[i].iter().copied())
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            }
            // Unary pass-through ops (tolerant or oblivious).
            _ => node.inputs.first().map(|&i| sources[i].clone()).unwrap_or_default(),
        };
        sources.push(s);
    }

    // Edge accumulation: (a, b) → matrix, merged by element-wise addition.
    let mut edge_map: HashMap<(usize, usize), Vec<f32>> = HashMap::new();
    let mut add_edge = |a: usize, b: usize, m: Vec<f32>| {
        if a == b {
            return;
        }
        let (a, b, m) = if a < b { (a, b, m) } else { (b, a, transpose(&m, &nodes, b, a)) };
        edge_map
            .entry((a, b))
            .and_modify(|acc| {
                for (x, y) in acc.iter_mut().zip(&m) {
                    *x += y;
                }
            })
            .or_insert(m);
    };

    // Producer→consumer edges: source conv's oc_bn vs consumer's ic_bn
    // (data input) or oc_bn (fused residual input).
    for &id in &conv_ids {
        let node = &g.nodes[id];
        let bi = index[&id];
        for (slot, &inp) in node.inputs.iter().enumerate() {
            let d = shapes[inp].dims();
            let (c, h, w) = (d[1], d[2], d[3]);
            for &ai in &sources[inp] {
                let m = cost_matrix(&nodes[ai], &nodes[bi], c, h, w, &price, slot == 1);
                add_edge(ai, bi, m);
            }
        }
    }

    // Join-equality edges: all sources of an Add/Concat operand set must
    // agree on oc_bn or pay a transform on the joined tensor.
    for (id, node) in g.nodes.iter().enumerate() {
        if !matches!(node.op, Op::Add | Op::Concat) {
            continue;
        }
        let d = shapes[id].dims();
        let (c, h, w) = (d[1], d[2], d[3]);
        let srcs = &sources[id];
        for pair in srcs.windows(2) {
            let (ai, bi) = (pair[0], pair[1]);
            let m = oc_oc_matrix(&nodes[ai], &nodes[bi], c, h, w, &price);
            add_edge(ai, bi, m);
        }
    }

    let mut edges: Vec<ProblemEdge> = edge_map
        .into_iter()
        .map(|((a, b), matrix)| ProblemEdge { a, b, matrix })
        .collect();
    edges.sort_by_key(|e| (e.b, e.a));
    Ok(SearchProblem { nodes, edges })
}

/// Producer-output vs consumer-input compatibility matrix.
fn cost_matrix(
    a: &ProblemNode,
    b: &ProblemNode,
    c: usize,
    h: usize,
    w: usize,
    price: &dyn Fn(usize, usize, usize, usize, usize) -> f32,
    residual_slot: bool,
) -> Vec<f32> {
    let mut m = Vec::with_capacity(a.candidates.len() * b.candidates.len());
    for ka in &a.candidates {
        for kb in &b.candidates {
            let want = if residual_slot { kb.oc_bn } else { kb.ic_bn };
            m.push(price(c, h, w, ka.oc_bn, want));
        }
    }
    m
}

/// Output-output equality matrix for join constraints.
fn oc_oc_matrix(
    a: &ProblemNode,
    b: &ProblemNode,
    c: usize,
    h: usize,
    w: usize,
    price: &dyn Fn(usize, usize, usize, usize, usize) -> f32,
) -> Vec<f32> {
    let mut m = Vec::with_capacity(a.candidates.len() * b.candidates.len());
    for ka in &a.candidates {
        for kb in &b.candidates {
            m.push(price(c, h, w, ka.oc_bn, kb.oc_bn));
        }
    }
    m
}

/// Transposes a `|from| × |to|` matrix into `|to| × |from|`.
fn transpose(m: &[f32], nodes: &[ProblemNode], new_rows: usize, new_cols: usize) -> Vec<f32> {
    let rows = nodes[new_rows].candidates.len();
    let cols = nodes[new_cols].candidates.len();
    let mut t = vec![0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            t[r * cols + c] = m[c * rows + r];
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AnalyticalModel;
    use crate::local::{local_search, LocalSearchCfg};
    use neocpu_graph::passes::{fuse_ops, simplify_inference};
    use neocpu_graph::GraphBuilder;

    fn ranked_fn(
        keep: usize,
    ) -> impl FnMut(NodeId, &Conv2dParams) -> Vec<RankedScheme> {
        move |_, p| {
            let cfg = LocalSearchCfg { keep, ..Default::default() };
            local_search(p, &AnalyticalModel::default(), &cfg)
        }
    }

    fn chain() -> Graph {
        let mut b = GraphBuilder::new(3);
        let x = b.input([1, 16, 16, 16]);
        let c1 = b.conv2d(x, 32, 3, 1, 1);
        let r = b.relu(c1);
        let c2 = b.conv2d(r, 32, 3, 1, 1);
        let p = b.max_pool(c2, 2, 2, 0);
        let c3 = b.conv2d(p, 64, 3, 1, 1);
        let g = b.finish(vec![c3]);
        fuse_ops(&simplify_inference(&g).unwrap()).unwrap()
    }

    #[test]
    fn chain_extraction_has_linear_edges() {
        let g = chain();
        let m = AnalyticalModel::default();
        let prob = extract_problem(&g, &mut ranked_fn(4), &m).unwrap();
        assert_eq!(prob.nodes.len(), 3);
        assert_eq!(prob.edges.len(), 2);
        for e in &prob.edges {
            assert!(e.a < e.b);
        }
    }

    #[test]
    fn zero_cost_on_matching_factors() {
        let g = chain();
        let m = AnalyticalModel::default();
        let prob = extract_problem(&g, &mut ranked_fn(6), &m).unwrap();
        let e = &prob.edges[0];
        let (a, b) = (&prob.nodes[e.a], &prob.nodes[e.b]);
        for (i, ka) in a.candidates.iter().enumerate() {
            for (j, kb) in b.candidates.iter().enumerate() {
                let v = e.matrix[i * b.candidates.len() + j];
                if ka.oc_bn == kb.ic_bn {
                    assert_eq!(v, 0.0);
                } else {
                    assert!(v > 0.0);
                }
            }
        }
    }

    #[test]
    fn each_distinct_transform_is_priced_once() {
        struct Counting(RefCell<Vec<[usize; 5]>>);
        impl CostModel for Counting {
            fn conv_time(&self, _: &Conv2dParams, _: &ConvSchedule) -> f32 {
                1.0
            }
            fn transform_time(&self, c: usize, h: usize, w: usize, from: usize, to: usize) -> f32 {
                self.0.borrow_mut().push([c, h, w, from, to]);
                if from == to { 0.0 } else { 1.0 }
            }
        }
        let m = Counting(RefCell::new(Vec::new()));
        let prob = extract_problem(&chain(), &mut ranked_fn(6), &m).unwrap();
        let asked: usize = prob.edges.iter().map(|e| e.matrix.len()).sum();
        let mut priced = m.0.into_inner();
        let calls = priced.len();
        priced.sort_unstable();
        priced.dedup();
        assert_eq!(calls, priced.len(), "a transform was priced twice");
        assert!(calls < asked, "{calls} calls for {asked} matrix entries");
    }

    #[test]
    fn residual_join_adds_equality_edges() {
        let mut b = GraphBuilder::new(5);
        let x = b.input([1, 16, 8, 8]);
        let c0 = b.conv2d(x, 16, 1, 1, 0);
        let c1 = b.conv2d(c0, 16, 3, 1, 1);
        let a = b.add(c1, c0);
        let g = b.finish(vec![a]);
        let g = fuse_ops(&simplify_inference(&g).unwrap()).unwrap();
        let m = AnalyticalModel::default();
        let prob = extract_problem(&g, &mut ranked_fn(3), &m).unwrap();
        // Nodes: c0 and the fused c1(+add). Edges: c0→c1 data, c0→c1
        // residual (merged), so exactly one merged edge.
        assert_eq!(prob.nodes.len(), 2);
        assert_eq!(prob.edges.len(), 1);
    }

    #[test]
    fn exhaustive_beats_or_ties_any_assignment() {
        let g = chain();
        let m = AnalyticalModel::default();
        let prob = extract_problem(&g, &mut ranked_fn(3), &m).unwrap();
        let best = solve_exhaustive(&prob);
        let best_obj = prob.objective(&best);
        // Compare against the all-zeros (greedy local-optimum) assignment.
        let greedy = vec![0usize; prob.nodes.len()];
        assert!(best_obj <= prob.objective(&greedy) + 1e-9);
    }

    #[test]
    fn solve_matches_exhaustive_on_a_chain() {
        let g = chain();
        let m = AnalyticalModel::default();
        let prob = extract_problem(&g, &mut ranked_fn(3), &m).unwrap();
        let (assign, obj) = solve(&prob, &GlobalCfg::default());
        assert_eq!(assign.len(), 3);
        assert!((obj - prob.objective(&solve_exhaustive(&prob))).abs() <= obj * 1e-6);
        assert_eq!(solve(&SearchProblem::default(), &GlobalCfg::default()), (Vec::new(), 0.0));
    }
}
