//! Algorithm 2: dynamic-programming global search.
//!
//! Nodes are processed in topological order; the DP state of node *i* under
//! candidate *j* is the best achievable cost of everything that feeds *i*,
//! plus *i* itself:
//!
//! ```text
//! GS[i][j] = t(i, j) + Σ over in-edges (a → i):  min_k ( transform(k, j) + GS[a][k] )
//! ```
//!
//! which is line 8 of the paper's listing generalized to nodes with several
//! predecessors. On chain- and tree-structured conv graphs (VGG, plain
//! stacks) this is exact; with shared predecessors (ResNet skips, DenseNet
//! reuse) the memorized predecessor states overlap and the result is the
//! paper's practical approximation — the final assignment is read from the
//! cheapest scheme of each sink and back-propagated through the recorded
//! argmins, and its true cost is re-evaluated with
//! [`SearchProblem::objective`].
//!
//! No compile runs it: [`super::solve`] is PBQP, which is exact wherever
//! this DP is. It stays as the reference that `tests/search_quality.rs` and
//! the E5 table (`paper_tables pbqp_quality`) compare PBQP against.

use super::SearchProblem;

/// Runs the Algorithm 2 DP and returns one candidate index per node.
pub fn solve_dp(problem: &SearchProblem) -> Vec<usize> {
    let n = problem.nodes.len();
    if n == 0 {
        return Vec::new();
    }
    // In-edges per node (edges are kept with a < b and nodes are in
    // topological order, so edge (a, b) is an in-edge of b).
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut has_out: Vec<bool> = vec![false; n];
    for (ei, e) in problem.edges.iter().enumerate() {
        in_edges[e.b].push(ei);
        has_out[e.a] = true;
    }

    // gs[i][j]: cumulative best; choice[i][j]: per in-edge argmin k.
    let mut gs: Vec<Vec<f32>> = Vec::with_capacity(n);
    let mut choice: Vec<Vec<Vec<usize>>> = Vec::with_capacity(n);
    for (i, edges_in) in in_edges.iter().enumerate() {
        let cands = problem.nodes[i].candidates.len();
        let mut row = problem.nodes[i].costs.clone();
        let mut ch = vec![vec![0usize; edges_in.len()]; cands];
        for j in 0..cands {
            for (slot, &ei) in edges_in.iter().enumerate() {
                let e = &problem.edges[ei];
                let a = e.a;
                let cols = cands;
                let mut best = f32::INFINITY;
                let mut best_k = 0usize;
                for (k, &ga) in gs[a].iter().enumerate() {
                    let v = ga + e.matrix[k * cols + j];
                    if v < best {
                        best = v;
                        best_k = k;
                    }
                }
                row[j] += best;
                ch[j][slot] = best_k;
            }
        }
        gs.push(row);
        choice.push(ch);
    }

    // Back-propagate from sinks (cheapest scheme each); first assignment of
    // a shared ancestor wins.
    let mut assignment: Vec<Option<usize>> = vec![None; n];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for i in (0..n).rev() {
        if !has_out[i] {
            let j = argmin(&gs[i]);
            stack.push((i, j));
        }
    }
    while let Some((i, j)) = stack.pop() {
        if assignment[i].is_some() {
            continue;
        }
        assignment[i] = Some(j);
        for (slot, &ei) in in_edges[i].iter().enumerate() {
            let a = problem.edges[ei].a;
            stack.push((a, choice[i][j][slot]));
        }
    }
    // Isolated nodes or anything unreachable from a sink (cannot happen
    // with well-formed problems, but stay total): local best.
    assignment
        .into_iter()
        .enumerate()
        .map(|(i, a)| a.unwrap_or_else(|| argmin(&problem.nodes[i].costs)))
        .collect()
}

/// NaN-safe argmin: a NaN cost can never win — not even the one sitting at
/// index 0, which the naive `v < xs[best]` scan silently kept (NaN costs
/// can arrive from a hand-edited scheme database despite lenient load).
fn argmin(xs: &[f32]) -> usize {
    let mut best = 0;
    let mut have = false;
    for (i, &v) in xs.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        if !have || v < xs[best] {
            best = i;
            have = true;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::super::{solve_exhaustive, ProblemEdge, ProblemNode, SearchProblem};
    use super::*;
    use neocpu_kernels::conv::{Conv2dParams, ConvSchedule};

    fn mk_node(conv: usize, costs: Vec<f32>) -> ProblemNode {
        let params = Conv2dParams::square(16, 16, 8, 3, 1, 1);
        let candidates = (0..costs.len())
            .map(|i| ConvSchedule { ic_bn: 1 << i, oc_bn: 1 << i, reg_n: 4, ..Default::default() })
            .collect();
        ProblemNode { conv, params, candidates, costs }
    }

    /// Chain where the locally-best choices disagree and a transform cost
    /// forces a compromise — DP must beat greedy.
    #[test]
    fn dp_beats_greedy_on_conflicting_chain() {
        // Node 0 prefers cand 0 (cost 1 vs 2); node 1 prefers cand 1.
        // Mismatched edge costs 10.
        let nodes = vec![mk_node(0, vec![1.0, 2.0]), mk_node(1, vec![2.0, 1.0])];
        let edges = vec![ProblemEdge {
            a: 0,
            b: 1,
            matrix: vec![0.0, 10.0, 10.0, 0.0],
        }];
        let p = SearchProblem { nodes, edges };
        let dp = solve_dp(&p);
        let greedy = vec![0usize, 1];
        assert!(p.objective(&dp) < p.objective(&greedy));
        // DP must match exhaustive on a chain.
        let ex = solve_exhaustive(&p);
        assert_eq!(p.objective(&dp), p.objective(&ex));
    }

    #[test]
    fn dp_exact_on_longer_chains() {
        // Deterministic pseudo-random chain of 8 nodes × 3 candidates.
        let mut seed = 12345u64;
        let mut rnd = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f32 / 4e9).abs() + 0.01
        };
        let n = 8;
        let nodes: Vec<ProblemNode> =
            (0..n).map(|i| mk_node(i, vec![rnd(), rnd(), rnd()])).collect();
        let edges: Vec<ProblemEdge> = (1..n)
            .map(|b| ProblemEdge {
                a: b - 1,
                b,
                matrix: (0..9).map(|_| if rnd() > 0.3 { rnd() } else { 0.0 }).collect(),
            })
            .collect();
        let p = SearchProblem { nodes, edges };
        let dp = solve_dp(&p);
        let ex = solve_exhaustive(&p);
        assert!((p.objective(&dp) - p.objective(&ex)).abs() < 1e-6);
    }

    #[test]
    fn dp_handles_empty_and_isolated() {
        let p = SearchProblem::default();
        assert!(solve_dp(&p).is_empty());
        let p = SearchProblem {
            nodes: vec![mk_node(0, vec![3.0, 1.0, 2.0])],
            edges: vec![],
        };
        assert_eq!(solve_dp(&p), vec![1]);
    }

    #[test]
    fn dp_survives_nan_costs() {
        // A NaN cost at index 0 (the old argmin's silent winner) and in an
        // edge matrix: DP must pick the finite candidate, not panic or
        // propagate NaN into the assignment.
        let nodes = vec![
            mk_node(0, vec![f32::NAN, 1.0, 2.0]),
            mk_node(1, vec![2.0, f32::NAN, 1.0]),
        ];
        let edges = vec![ProblemEdge {
            a: 0,
            b: 1,
            matrix: vec![0.0, 1.0, f32::NAN, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0],
        }];
        let p = SearchProblem { nodes, edges };
        let a = solve_dp(&p);
        assert_eq!(a.len(), 2);
        assert!(p.nodes[0].costs[a[0]].is_finite(), "picked NaN candidate {}", a[0]);
        assert!(p.nodes[1].costs[a[1]].is_finite(), "picked NaN candidate {}", a[1]);
        // All-NaN costs still return a valid index (degenerate but total).
        let q = SearchProblem {
            nodes: vec![mk_node(0, vec![f32::NAN, f32::NAN])],
            edges: vec![],
        };
        let b = solve_dp(&q);
        assert!(b[0] < 2);
    }

    #[test]
    fn dp_handles_diamond_reasonably() {
        // 0 → 1 → 3, 0 → 2 → 3: shared ancestor 0, join at 3.
        let nodes = vec![
            mk_node(0, vec![1.0, 1.0]),
            mk_node(1, vec![1.0, 5.0]),
            mk_node(2, vec![5.0, 1.0]),
            mk_node(3, vec![1.0, 1.0]),
        ];
        let mismatch = vec![0.0, 3.0, 3.0, 0.0];
        let edges = vec![
            ProblemEdge { a: 0, b: 1, matrix: mismatch.clone() },
            ProblemEdge { a: 0, b: 2, matrix: mismatch.clone() },
            ProblemEdge { a: 1, b: 3, matrix: mismatch.clone() },
            ProblemEdge { a: 2, b: 3, matrix: mismatch.clone() },
        ];
        let p = SearchProblem { nodes, edges };
        let dp = solve_dp(&p);
        let ex = solve_exhaustive(&p);
        // The approximation must stay within 2× of optimal on this diamond
        // (it is exact here in practice; the bound keeps the test honest).
        assert!(p.objective(&dp) <= 2.0 * p.objective(&ex) + 1e-6);
    }
}
