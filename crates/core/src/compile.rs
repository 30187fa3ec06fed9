//! The compile pipeline: passes + search + weight pre-transformation.
//!
//! Serving-grade compilation adds two containment layers around the
//! optimization passes:
//!
//! 1. **Graceful degradation** — scheme-database entries (possibly loaded
//!    from a stale, corrupt, or foreign file) are verified against the
//!    current target *before* they can influence planning. Entries that
//!    fail are dropped and recorded in a [`CompileReport`]; a workload left
//!    with no viable scheme gets a synthesized conservative default rather
//!    than aborting compilation.
//! 2. **Module verification** — after all passes have run, every node of
//!    the final graph is checked against its invariants (topological
//!    inputs, parameter-index bounds, shape/layout agreement, conv schedule
//!    divisibility and register pressure for the target). A violation is a
//!    compiler bug or hostile input and surfaces as a typed
//!    [`NeoError::Verify`] instead of reaching kernel code.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use neocpu_graph::passes::{
    fuse_ops, plan_assigned, plan_uniform, precompute_weights, simplify_inference,
    wrap_convs_with_transforms, UniformPlanCfg,
};
use neocpu_graph::{infer_layouts, infer_shapes, Graph, NodeId, Op};
use neocpu_kernels::conv::{factors_descending, fitting_reg_n, Conv2dParams, ConvSchedule};
use neocpu_search::{
    extract_problem, local_search, solve, CostModel, GlobalCfg, LocalSearchCfg, RankedScheme,
    SchemeDatabase, TimedMeasurer,
};
use neocpu_tensor::{DType, Layout, Shape};
use neocpu_threadpool::{OmpLikePool, Parallelism, Sequential, ThreadPool};

use crate::executor::Module;
use crate::target::CpuTarget;
use crate::{NeoError, Result};

/// Optimization levels — the Table 3 ablation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// Plain NCHW direct convolution (normalized baseline).
    O0,
    /// Blocked CONVs with per-op transform pairs ("Layout Opt.").
    O1,
    /// Uniform block + graph transform elimination ("Transform Elim.").
    O2,
    /// Global scheme search ("Global Search").
    O3,
}

/// Thread-pool implementation choice (the Figure 4 axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolChoice {
    /// The custom SPSC fork-join pool (§3.1.2).
    #[default]
    Custom,
    /// The OpenMP-style mutex/condvar pool.
    OmpLike,
    /// Single-threaded inline execution.
    Sequential,
}

/// How the O3 local search prices candidate schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchStrategy {
    /// Deterministic analytical model only (fast, used in tests).
    Analytical,
    /// Analytical pre-selection of `preselect` candidates, then timed
    /// measurement of those (the harness default).
    Hybrid {
        /// Candidates surviving pre-selection.
        preselect: usize,
        /// Timed repetitions per surviving candidate.
        repeats: usize,
    },
}

/// Compilation options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileOptions {
    /// Optimization level (Table 3 ladder).
    pub opt_level: OptLevel,
    /// Epilogue fusion (on for every published configuration; off models a
    /// framework with weaker graph support).
    pub fuse: bool,
    /// Executor threads (caller + workers).
    pub threads: usize,
    /// Thread-pool implementation.
    pub pool: PoolChoice,
    /// Local-search pricing for O3.
    pub search: SearchStrategy,
    /// Candidates per CONV entering the global search.
    pub keep_candidates: usize,
}

impl CompileOptions {
    /// Defaults at a given level: fusion on, one thread, custom pool,
    /// analytical search.
    pub fn level(opt_level: OptLevel) -> Self {
        Self {
            opt_level,
            fuse: true,
            threads: 1,
            pool: PoolChoice::Custom,
            search: SearchStrategy::Analytical,
            keep_candidates: 8,
        }
    }

    /// Sets the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the pool implementation.
    pub fn with_pool(mut self, pool: PoolChoice) -> Self {
        self.pool = pool;
        self
    }
}

/// A scheme-database entry rejected by target verification during
/// compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct DroppedScheme {
    /// Conv node whose workload the entry belonged to.
    pub node: NodeId,
    /// The workload.
    pub params: Conv2dParams,
    /// The rejected schedule.
    pub schedule: ConvSchedule,
    /// Why it was rejected.
    pub reason: String,
}

/// A conv whose schedule was replaced by a synthesized default because no
/// verified candidate survived.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleFallback {
    /// Conv node that degraded.
    pub node: NodeId,
    /// The workload.
    pub params: Conv2dParams,
    /// The conservative schedule it runs with instead.
    pub fallback: ConvSchedule,
    /// Why degradation was necessary.
    pub reason: String,
}

/// Diagnostics from one compilation: what was dropped, what degraded.
///
/// A clean compile produces an empty report. A compile fed a corrupt or
/// target-mismatched scheme database still succeeds — the report is how a
/// serving process finds out it is running on fallback schedules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompileReport {
    /// Database entries rejected by verification.
    pub dropped_schemes: Vec<DroppedScheme>,
    /// Convs that degraded to a synthesized default schedule.
    pub fallbacks: Vec<ScheduleFallback>,
    /// The static memory plan's statistics: planned arena peak vs. the
    /// naive sum of all intermediate outputs, and how much was reused.
    pub memory: crate::memory::MemoryReport,
}

impl CompileReport {
    /// Whether compilation used every scheme as-is, with no degradation.
    pub fn is_clean(&self) -> bool {
        self.dropped_schemes.is_empty() && self.fallbacks.is_empty()
    }
}

/// Compiles `graph` for `target`, using a throwaway scheme database.
///
/// # Errors
///
/// Returns an error if the graph is invalid or a pass fails.
pub fn compile(graph: &Graph, target: &CpuTarget, opts: &CompileOptions) -> Result<Module> {
    let mut db = SchemeDatabase::new();
    compile_with_db(graph, target, opts, &mut db)
}

/// Compiles `graph` for `target`, reading/writing local-search results in
/// `db` (§3.3.1's cross-model workload cache).
///
/// # Errors
///
/// Returns an error if the graph is invalid or a pass fails.
pub fn compile_with_db(
    graph: &Graph,
    target: &CpuTarget,
    opts: &CompileOptions,
    db: &mut SchemeDatabase,
) -> Result<Module> {
    compile_with_report(graph, target, opts, db).map(|(m, _)| m)
}

/// Compiles `graph` like [`compile_with_db`], additionally returning the
/// [`CompileReport`] of dropped database entries and schedule fallbacks.
///
/// # Errors
///
/// Returns an error if the graph is invalid, a pass fails, or the final
/// module fails verification. A bad *database entry* is not an error — it
/// is dropped, reported, and compilation degrades gracefully.
pub fn compile_with_report(
    graph: &Graph,
    target: &CpuTarget,
    opts: &CompileOptions,
    db: &mut SchemeDatabase,
) -> Result<(Module, CompileReport)> {
    let mut report = CompileReport::default();
    let planned = plan_stage(graph, target, opts, db, &mut report, false)?;
    let module = finish_module(&planned, target, opts, &mut report)?;
    Ok((module, report))
}

/// Runs the front half of the pipeline — simplify, fuse, schedule search,
/// layout planning — and returns the planned graph with weights still in
/// their plain `OIHW` form. With `int8` set, each conv's candidate list is
/// additionally searched under the int8 cost model (see
/// [`global_search`]); the quantization pass consumes the result.
pub(crate) fn plan_stage(
    graph: &Graph,
    target: &CpuTarget,
    opts: &CompileOptions,
    db: &mut SchemeDatabase,
    report: &mut CompileReport,
    int8: bool,
) -> Result<Graph> {
    let simplified = simplify_inference(graph)?;
    let fused = if opts.fuse { fuse_ops(&simplified)? } else { simplified };

    let cfg = UniformPlanCfg {
        block: target.preferred_block(),
        reg_n: default_reg_n(target),
        unroll: true,
    };
    let planned = match opts.opt_level {
        OptLevel::O0 => fused,
        OptLevel::O1 => wrap_convs_with_transforms(&fused, &cfg)?,
        OptLevel::O2 => plan_uniform(&fused, &cfg)?,
        OptLevel::O3 => {
            let mut schedules = global_search(&fused, target, opts, db, report, int8)?;
            // Backstop: nothing unverified may reach layout planning, even
            // if the solver hands back a schedule outside the candidate set.
            for (&id, s) in schedules.iter_mut() {
                let Op::Conv2d { params, .. } = &fused.nodes[id].op else { continue };
                if let Err(reason) = verify_schedule_for_target(params, s, target) {
                    let fb = default_schedule(params, target);
                    report.fallbacks.push(ScheduleFallback {
                        node: id,
                        params: *params,
                        fallback: fb,
                        reason,
                    });
                    *s = fb;
                }
            }
            plan_assigned(&fused, &schedules, &cfg)?
        }
    };
    Ok(planned)
}

/// Runs the back half of the pipeline on a planned graph: weight
/// pre-transformation, shape/layout/dtype inference, module verification,
/// and executable module construction.
pub(crate) fn finish_module(
    planned: &Graph,
    target: &CpuTarget,
    opts: &CompileOptions,
    report: &mut CompileReport,
) -> Result<Module> {
    let pre = precompute_weights(planned)?;
    let shapes = infer_shapes(&pre)?;
    let layouts = infer_layouts(&pre, &shapes)?;
    verify_module(&pre, &shapes, &layouts, target)?;
    let pool = make_pool(opts);
    let module = Module::new(pre, shapes, layouts, pool, target.max_lanes())?;
    report.memory = *module.memory_report();
    Ok(module)
}

/// Loads a scheme database, converting I/O and parse failures into typed
/// [`NeoError::Database`] errors (strict: the first bad line fails the
/// load).
///
/// # Errors
///
/// Returns an error if the file cannot be read or any line is malformed.
pub fn load_scheme_db(path: &Path) -> Result<SchemeDatabase> {
    crate::faults::fire(crate::faults::DB_LOAD)?;
    SchemeDatabase::load(path).map_err(|e| NeoError::Database(e.to_string()))
}

/// Loads a scheme database leniently: corrupt or invalid lines are skipped
/// and returned as line-numbered diagnostics alongside the surviving
/// entries — the serving-process path, where a damaged cache must degrade
/// rather than block startup.
///
/// # Errors
///
/// Returns an error only if the file cannot be read at all.
pub fn load_scheme_db_lenient(path: &Path) -> Result<(SchemeDatabase, Vec<String>)> {
    crate::faults::fire(crate::faults::DB_LOAD)?;
    let (db, problems) =
        SchemeDatabase::load_lenient(path).map_err(|e| NeoError::Database(e.to_string()))?;
    Ok((db, problems.iter().map(ToString::to_string).collect()))
}

/// Prices candidate schedules with the int8 kernel cost — the dtype axis
/// of the search. Same candidate space, same transform costs; only the
/// conv time changes. Wrapping (rather than a second trait method on the
/// search side) lets [`local_search`] stay dtype-agnostic.
struct Int8Cost<'a, M: CostModel>(&'a M);

impl<M: CostModel> CostModel for Int8Cost<'_, M> {
    fn conv_time(&self, params: &Conv2dParams, schedule: &ConvSchedule) -> f32 {
        self.0.conv_time_i8(params, schedule)
    }
    fn transform_time(&self, c: usize, h: usize, w: usize, from: usize, to: usize) -> f32 {
        self.0.transform_time(c, h, w, from, to)
    }
}

/// Runs the two-stage search and returns per-conv schedules.
///
/// Cached database entries are verified for the current target first;
/// failures are dropped into `report` (the database may have been loaded
/// from a stale or corrupt file, or recorded for a different machine).
/// Freshly searched candidates pass through the same filter silently —
/// pruning target-infeasible points of the generic candidate space is part
/// of the search, not a fault. A workload left without any viable scheme
/// degrades to a synthesized conservative default.
///
/// With `int8` set, every conv workload is *additionally* searched under
/// the int8 cost model (always analytical — [`TimedMeasurer`] only runs
/// the f32 kernel and its [`CostModel::conv_time_i8`] default reports no
/// speedup). Int8 candidate lists are cached in `db` under the `d`-suffixed
/// dtype key, and when a workload's best int8 candidate beats its best f32
/// candidate, the int8 list is what enters the global solve — the chosen
/// schedule is then the one the quantization pass will run, not the one
/// the f32 kernel would prefer.
fn global_search(
    g: &Graph,
    target: &CpuTarget,
    opts: &CompileOptions,
    db: &mut SchemeDatabase,
    report: &mut CompileReport,
    int8: bool,
) -> Result<HashMap<NodeId, ConvSchedule>> {
    let analytical = target.analytical_model();
    let local_cfg = match opts.search {
        SearchStrategy::Analytical => {
            LocalSearchCfg { preselect: None, keep: opts.keep_candidates, ..Default::default() }
        }
        SearchStrategy::Hybrid { preselect, .. } => LocalSearchCfg {
            preselect: Some(preselect),
            preselect_model: analytical,
            keep: opts.keep_candidates,
            ..Default::default()
        },
    };
    let timed = match opts.search {
        SearchStrategy::Analytical => None,
        SearchStrategy::Hybrid { repeats, .. } => {
            Some(TimedMeasurer { repeats, warmup: 1, max_lanes: target.max_lanes() })
        }
    };
    let tname = target.name.clone();
    let mut ranked = |node: NodeId, params: &Conv2dParams| -> Vec<RankedScheme> {
        let mut kept: Vec<RankedScheme> = match db.get(&tname, params) {
            Some(cached) => cached
                .iter()
                .cloned()
                .filter(|r| match verify_ranked_for_target(params, r, target) {
                    Ok(()) => true,
                    Err(reason) => {
                        report.dropped_schemes.push(DroppedScheme {
                            node,
                            params: *params,
                            schedule: r.schedule,
                            reason,
                        });
                        false
                    }
                })
                .collect(),
            None => {
                let fresh = match &timed {
                    Some(t) => local_search(params, t, &local_cfg),
                    None => local_search(params, &analytical, &local_cfg),
                };
                fresh
                    .into_iter()
                    .filter(|r| verify_ranked_for_target(params, r, target).is_ok())
                    .collect()
            }
        };
        if kept.is_empty() {
            let fb = default_schedule(params, target);
            report.fallbacks.push(ScheduleFallback {
                node,
                params: *params,
                fallback: fb,
                reason: "no scheme survived target verification".into(),
            });
            let t = analytical.conv_time(params, &fb);
            let time = if t.is_finite() && t >= 0.0 { t } else { 1.0 };
            kept.push(RankedScheme { schedule: fb, time });
        }
        // The database ends up holding only verified entries for this
        // target — dropped schemes never resurface on the next compile.
        // `replace` (not the merging `put`) is load-bearing here: merging
        // would resurrect the very entries verification just rejected.
        db.replace(&tname, params, kept.clone());
        if int8 {
            let kept8: Vec<RankedScheme> = match db.get_dtyped(&tname, params, DType::U8) {
                Some(cached) => cached
                    .iter()
                    .cloned()
                    .filter(|r| match verify_ranked_for_target(params, r, target) {
                        Ok(()) => true,
                        Err(reason) => {
                            report.dropped_schemes.push(DroppedScheme {
                                node,
                                params: *params,
                                schedule: r.schedule,
                                reason,
                            });
                            false
                        }
                    })
                    .collect(),
                None => local_search(params, &Int8Cost(&analytical), &local_cfg)
                    .into_iter()
                    .filter(|r| verify_ranked_for_target(params, r, target).is_ok())
                    .collect(),
            };
            db.replace_dtyped(&tname, params, DType::U8, kept8.clone());
            // No fallback synthesis on the int8 side: a workload with no
            // finite int8 candidate (e.g. a 3-channel stem that cannot
            // quad-pack) simply stays on its f32 list.
            if let (Some(b8), Some(bf)) = (kept8.first(), kept.first()) {
                if b8.time < bf.time {
                    return kept8;
                }
            }
        }
        kept
    };
    // A search that measured its convolutions measures its transforms too:
    // seconds from the clock and seconds from `mem_bytes_per_sec` do not
    // add up. The model's transform is several times cheaper than the real
    // one; against measured conv times it buys a re-blocking for a few
    // percent of one layer, less than two timings of that layer differ by,
    // so two compiles of one model would re-block in different places.
    let edge_model: &dyn CostModel = match &timed {
        Some(t) => t,
        None => &analytical,
    };
    let problem = extract_problem(g, &mut ranked, edge_model)?;
    let (assignment, _obj) = solve(&problem, &GlobalCfg::default());
    Ok(problem.assignment_to_schedules(&assignment))
}

/// A conservative schedule for `params` that always verifies on `target`:
/// the largest channel factors within the preferred block, and the longest
/// strip the template runs within the target's default register blocking.
fn default_schedule(params: &Conv2dParams, target: &CpuTarget) -> ConvSchedule {
    let block = target.preferred_block();
    let oc_bn = factors_descending(params.out_channels, block).first().copied().unwrap_or(1);
    // Depthwise kernels convolve one channel block at a time, so the
    // activation and filter blockings must agree (in == out channels makes
    // `oc_bn` always a valid choice).
    let ic_bn = if params.groups > 1 {
        oc_bn
    } else {
        factors_descending(params.in_channels, block).first().copied().unwrap_or(1)
    };
    let reg_n =
        fitting_reg_n(params, oc_bn, target.max_lanes(), default_reg_n(target), DType::F32);
    ConvSchedule { ic_bn, oc_bn, reg_n, unroll_ker: true, ..Default::default() }
}

/// Checks a ranked database entry against the workload and target:
/// schedule divisibility, register pressure, and a sane cost value.
fn verify_ranked_for_target(
    params: &Conv2dParams,
    ranked: &RankedScheme,
    target: &CpuTarget,
) -> std::result::Result<(), String> {
    verify_schedule_for_target(params, &ranked.schedule, target)?;
    if !ranked.time.is_finite() || ranked.time < 0.0 {
        return Err(format!("recorded time {} is not a sane cost", ranked.time));
    }
    Ok(())
}

/// Checks a schedule against its workload (Algorithm 1 divisibility) and
/// the target's register file.
///
/// The register rule: when `oc_bn` is a (positive) multiple of the SIMD
/// width, the vector microkernel holds `reg_n × (oc_bn / lanes)`
/// accumulator tiles live — plus, in the single-row case where a dedicated
/// strip kernel dispatches, the dataflow's resident vectors (kernel vector
/// and broadcast for output-stationary; `kernel_w` kernel vectors plus the
/// in-flight input for shift-reuse) — which must all fit the architectural
/// register file. Narrower `oc_bn` runs the scalar path and carries no
/// such constraint.
fn verify_schedule_for_target(
    params: &Conv2dParams,
    s: &ConvSchedule,
    target: &CpuTarget,
) -> std::result::Result<(), String> {
    s.validate(params).map_err(|e| e.to_string())?;
    let lanes = target.max_lanes();
    if lanes > 1 && s.oc_bn >= lanes && s.oc_bn.is_multiple_of(lanes) {
        let rows = s.oc_bn / lanes;
        let resident = if rows == 1 { s.dataflow.resident_regs(params.kernel_w) } else { 0 };
        let regs = s.reg_n * rows + resident;
        let budget = target.isa.vector_registers();
        if regs > budget {
            return Err(format!(
                "schedule needs {regs} vector registers (reg_n {} × {rows} vector row(s) \
                 of oc_bn {} + {resident} resident) but {:?} has only {budget}",
                s.reg_n, s.oc_bn, target.isa
            ));
        }
    }
    Ok(())
}

/// Verifies every node of the final compiled graph before it can execute:
/// topological inputs, arity, parameter-index bounds, shape/layout
/// agreement, conv schedule validity for the target, and layout flow
/// around convs and explicit transforms.
///
/// This is the hard backstop behind graceful degradation — anything that
/// slipped past the pass pipeline surfaces here as [`NeoError::Verify`]
/// instead of reaching kernel code.
fn verify_module(
    g: &Graph,
    shapes: &[Shape],
    layouts: &[Layout],
    target: &CpuTarget,
) -> Result<()> {
    let fail = |node: usize, op: &'static str, message: String| {
        Err(NeoError::Verify { node, op, message })
    };
    if shapes.len() != g.len() || layouts.len() != g.len() {
        return Err(NeoError::Internal(format!(
            "shape/layout tables cover {}/{} nodes of a {}-node graph",
            shapes.len(),
            layouts.len(),
            g.len()
        )));
    }
    for (id, node) in g.nodes.iter().enumerate() {
        let op = node.op.name();
        for &inp in &node.inputs {
            if inp >= id {
                return fail(id, op, format!("input {inp} is not topologically earlier"));
            }
        }
        match node.op.arity() {
            Some(want) if node.inputs.len() != want => {
                return fail(
                    id,
                    op,
                    format!("expects {want} input(s), has {}", node.inputs.len()),
                );
            }
            None if node.inputs.len() < 2 => {
                return fail(id, op, format!("expects ≥ 2 inputs, has {}", node.inputs.len()));
            }
            _ => {}
        }
        for p in node.op.param_ids() {
            if p >= g.params.len() {
                return fail(
                    id,
                    op,
                    format!("parameter index {p} out of bounds ({} stored)", g.params.len()),
                );
            }
        }
        if let Err(e) = layouts[id].physical_dims(&shapes[id]) {
            return fail(
                id,
                op,
                format!("layout {} disagrees with shape {}: {e}", layouts[id], shapes[id]),
            );
        }
        match &node.op {
            Op::Conv2d { params, schedule, residual, .. } => {
                let in_dims = shapes[node.inputs[0]].dims();
                let want_in =
                    [in_dims.first().copied().unwrap_or(0), params.in_channels, params.in_h, params.in_w];
                if in_dims.len() != 4 || in_dims[1..] != want_in[1..] {
                    return fail(
                        id,
                        op,
                        format!("input shape {} does not match workload {params:?}", shapes[node.inputs[0]]),
                    );
                }
                let out_dims = shapes[id].dims();
                let want_out = [want_in[0], params.out_channels, params.out_h(), params.out_w()];
                if out_dims != want_out {
                    return fail(
                        id,
                        op,
                        format!("output shape {} does not match workload {params:?}", shapes[id]),
                    );
                }
                match schedule {
                    Some(s) => {
                        if let Err(m) = verify_schedule_for_target(params, s, target) {
                            return fail(id, op, m);
                        }
                        if layouts[node.inputs[0]] != Layout::NchwC(s.ic_bn) {
                            return fail(
                                id,
                                op,
                                format!(
                                    "scheduled conv needs NCHW{}c input, got {}",
                                    s.ic_bn,
                                    layouts[node.inputs[0]]
                                ),
                            );
                        }
                        if layouts[id] != Layout::NchwC(s.oc_bn) {
                            return fail(
                                id,
                                op,
                                format!(
                                    "scheduled conv must emit NCHW{}c, got {}",
                                    s.oc_bn, layouts[id]
                                ),
                            );
                        }
                        if *residual && layouts[node.inputs[1]] != layouts[id] {
                            return fail(
                                id,
                                op,
                                format!(
                                    "residual input layout {} must match output {}",
                                    layouts[node.inputs[1]],
                                    layouts[id]
                                ),
                            );
                        }
                    }
                    None => {
                        if layouts[node.inputs[0]] != Layout::Nchw
                            || layouts[id] != Layout::Nchw
                        {
                            return fail(
                                id,
                                op,
                                format!(
                                    "unscheduled conv runs in NCHW, got {} → {}",
                                    layouts[node.inputs[0]],
                                    layouts[id]
                                ),
                            );
                        }
                    }
                }
            }
            Op::LayoutTransform { to } if layouts[id] != *to => {
                return fail(
                    id,
                    op,
                    format!("declares target layout {to} but was assigned {}", layouts[id]),
                );
            }
            _ => {}
        }
    }
    for &o in &g.outputs {
        if o >= g.len() {
            return fail(o, "output", format!("output id {o} out of bounds"));
        }
    }
    Ok(())
}

fn default_reg_n(target: &CpuTarget) -> usize {
    match target.isa {
        crate::IsaKind::Avx512 => 16,
        crate::IsaKind::Avx2 => 8,
        crate::IsaKind::Neon => 8,
        crate::IsaKind::Generic => 4,
    }
}

fn make_pool(opts: &CompileOptions) -> Arc<dyn Parallelism> {
    match (opts.pool, opts.threads) {
        (PoolChoice::Sequential, _) | (_, 0 | 1) => Arc::new(Sequential),
        (PoolChoice::Custom, n) => Arc::new(ThreadPool::new(n)),
        (PoolChoice::OmpLike, n) => Arc::new(OmpLikePool::new(n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neocpu_graph::GraphBuilder;
    use neocpu_tensor::{Layout, Tensor};

    fn small_net() -> Graph {
        let mut b = GraphBuilder::new(5);
        let x = b.input([1, 8, 12, 12]);
        let c1 = b.conv_bn_relu(x, 16, 3, 1, 1);
        let p = b.max_pool(c1, 2, 2, 0);
        let c2 = b.conv_bn_relu(p, 16, 3, 1, 1);
        let f = b.flatten(c2);
        let d = b.dense(f, 4);
        let s = b.softmax(d);
        b.finish(vec![s])
    }

    #[test]
    fn all_levels_compile_and_agree() {
        let g = small_net();
        let target = CpuTarget::host();
        let input = Tensor::random([1, 8, 12, 12], Layout::Nchw, 3, 1.0).unwrap();
        let mut outputs = Vec::new();
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            let m = compile(&g, &target, &CompileOptions::level(level)).unwrap();
            let out = m.run(std::slice::from_ref(&input)).unwrap();
            outputs.push(out.into_iter().next().unwrap());
        }
        for o in &outputs[1..] {
            assert!(
                outputs[0].approx_eq(o, 1e-4),
                "optimization changed semantics: diff {}",
                outputs[0].max_abs_diff(o)
            );
        }
    }

    #[test]
    fn depthwise_separable_net_agrees_across_levels() {
        // A MobileNet-style separable block: dw 3x3 + pw 1x1, twice.
        let mut b = GraphBuilder::new(31);
        let x = b.input([1, 8, 12, 12]);
        let d1 = b.dw_conv_bn_relu(x, 3, 1, 1);
        let p1 = b.conv_bn_relu(d1, 16, 1, 1, 0);
        let d2 = b.dw_conv_bn_relu(p1, 3, 2, 1);
        let p2 = b.conv_bn_relu(d2, 16, 1, 1, 0);
        let g = b.finish(vec![p2]);
        let target = CpuTarget::host();
        let input = Tensor::random([1, 8, 12, 12], Layout::Nchw, 37, 1.0).unwrap();
        let base = compile(&g, &target, &CompileOptions::level(OptLevel::O0))
            .unwrap()
            .run(std::slice::from_ref(&input))
            .unwrap();
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            let m = compile(&g, &target, &CompileOptions::level(level)).unwrap();
            let out = m.run(std::slice::from_ref(&input)).unwrap();
            assert!(
                base[0].approx_eq(&out[0], 1e-4),
                "{level:?} diverged on depthwise net: {}",
                base[0].max_abs_diff(&out[0])
            );
        }
    }

    #[test]
    fn transform_counts_fall_along_the_ladder() {
        let g = small_net();
        let target = CpuTarget::host();
        let o1 = compile(&g, &target, &CompileOptions::level(OptLevel::O1)).unwrap();
        let o2 = compile(&g, &target, &CompileOptions::level(OptLevel::O2)).unwrap();
        assert!(o2.transform_count() < o1.transform_count());
        assert_eq!(o1.transform_count(), 4); // 2 convs × (in + out)
        assert_eq!(o2.transform_count(), 2); // entry + exit only
    }

    #[test]
    fn o3_reuses_database_entries() {
        let g = small_net();
        let target = CpuTarget::host();
        let mut db = SchemeDatabase::new();
        let opts = CompileOptions::level(OptLevel::O3);
        let _ = compile_with_db(&g, &target, &opts, &mut db).unwrap();
        let n = db.len();
        assert!(n >= 1);
        // Second compile hits the cache; the count is unchanged.
        let _ = compile_with_db(&g, &target, &opts, &mut db).unwrap();
        assert_eq!(db.len(), n);
    }

    #[test]
    fn narrower_target_still_correct() {
        let g = small_net();
        let input = Tensor::random([1, 8, 12, 12], Layout::Nchw, 4, 1.0).unwrap();
        let host = compile(&g, &CpuTarget::host(), &CompileOptions::level(OptLevel::O2)).unwrap();
        let neon =
            compile(&g, &CpuTarget::arm_a72_neon(), &CompileOptions::level(OptLevel::O2))
                .unwrap();
        let a = host.run(std::slice::from_ref(&input)).unwrap();
        let b = neon.run(std::slice::from_ref(&input)).unwrap();
        assert!(a[0].approx_eq(&b[0], 1e-4));
    }

    #[test]
    fn multithreaded_module_matches_sequential() {
        let g = small_net();
        let target = CpuTarget::host();
        let input = Tensor::random([1, 8, 12, 12], Layout::Nchw, 5, 1.0).unwrap();
        let seq = compile(&g, &target, &CompileOptions::level(OptLevel::O2)).unwrap();
        let par = compile(
            &g,
            &target,
            &CompileOptions::level(OptLevel::O2).with_threads(4),
        )
        .unwrap();
        let omp = compile(
            &g,
            &target,
            &CompileOptions::level(OptLevel::O2)
                .with_threads(4)
                .with_pool(PoolChoice::OmpLike),
        )
        .unwrap();
        let a = seq.run(std::slice::from_ref(&input)).unwrap();
        let b = par.run(std::slice::from_ref(&input)).unwrap();
        let c = omp.run(std::slice::from_ref(&input)).unwrap();
        assert!(a[0].approx_eq(&b[0], 1e-5));
        assert!(a[0].approx_eq(&c[0], 1e-5));
    }

    #[test]
    fn clean_compile_has_clean_report() {
        let g = small_net();
        let target = CpuTarget::host();
        let mut db = SchemeDatabase::new();
        let (m, report) =
            compile_with_report(&g, &target, &CompileOptions::level(OptLevel::O3), &mut db)
                .unwrap();
        assert!(report.is_clean(), "unexpected degradation: {report:?}");
        let input = Tensor::random([1, 8, 12, 12], Layout::Nchw, 6, 1.0).unwrap();
        m.run(&[input]).unwrap();
    }

    #[test]
    fn invalid_db_entry_degrades_with_report() {
        let g = small_net();
        let target = CpuTarget::skylake_avx512();
        let mut db = SchemeDatabase::new();
        // The exact workload of the first conv of `small_net`, poisoned
        // with a schedule whose ic_bn does not divide in_channels.
        let w1 = Conv2dParams::square(8, 16, 12, 3, 1, 1);
        db.put(
            &target.name,
            &w1,
            vec![RankedScheme {
                schedule: ConvSchedule { ic_bn: 5, oc_bn: 16, reg_n: 8, unroll_ker: true, ..Default::default() },
                time: 1e-4,
            }],
        );
        let (m, report) =
            compile_with_report(&g, &target, &CompileOptions::level(OptLevel::O3), &mut db)
                .unwrap();
        assert_eq!(report.dropped_schemes.len(), 1);
        assert!(report.dropped_schemes[0].reason.contains("ic_bn"));
        assert_eq!(report.fallbacks.len(), 1);
        assert_eq!(report.fallbacks[0].params, w1);
        // The module still runs, and matches the unoptimized baseline.
        let input = Tensor::random([1, 8, 12, 12], Layout::Nchw, 8, 1.0).unwrap();
        let out = m.run(std::slice::from_ref(&input)).unwrap();
        let base = compile(&g, &target, &CompileOptions::level(OptLevel::O0))
            .unwrap()
            .run(std::slice::from_ref(&input))
            .unwrap();
        assert!(base[0].approx_eq(&out[0], 1e-4));
        // The poisoned entry was purged: a recompile is clean.
        let (_, report2) =
            compile_with_report(&g, &target, &CompileOptions::level(OptLevel::O3), &mut db)
                .unwrap();
        assert!(report2.is_clean(), "poison resurfaced: {report2:?}");
    }

    #[test]
    fn nan_cost_entry_is_dropped() {
        let g = small_net();
        let target = CpuTarget::skylake_avx512();
        let mut db = SchemeDatabase::new();
        let w1 = Conv2dParams::square(8, 16, 12, 3, 1, 1);
        db.put(
            &target.name,
            &w1,
            vec![RankedScheme {
                schedule: ConvSchedule { ic_bn: 8, oc_bn: 16, reg_n: 8, unroll_ker: true, ..Default::default() },
                time: f32::NAN,
            }],
        );
        let (_, report) =
            compile_with_report(&g, &target, &CompileOptions::level(OptLevel::O3), &mut db)
                .unwrap();
        assert_eq!(report.dropped_schemes.len(), 1);
        assert!(report.dropped_schemes[0].reason.contains("sane cost"));
    }

    #[test]
    fn register_pressure_rule_rejects_oversized_tiles() {
        let target = CpuTarget::epyc_avx2();
        let p = Conv2dParams::square(8, 8, 28, 3, 1, 1);
        // 28 × (8/8) = 28 accumulators > 16 AVX2 registers.
        let bad = ConvSchedule { ic_bn: 8, oc_bn: 8, reg_n: 28, unroll_ker: true, ..Default::default() };
        assert!(verify_schedule_for_target(&p, &bad, &target).is_err());
        // Within budget.
        let ok = ConvSchedule { ic_bn: 8, oc_bn: 8, reg_n: 8, unroll_ker: true, ..Default::default() };
        assert!(verify_schedule_for_target(&p, &ok, &target).is_ok());
        // Scalar path (oc_bn below the vector width) has no register rule.
        let scalar = ConvSchedule { ic_bn: 8, oc_bn: 4, reg_n: 28, unroll_ker: false, ..Default::default() };
        assert!(verify_schedule_for_target(&p, &scalar, &target).is_ok());
    }

    #[test]
    fn default_schedule_always_verifies() {
        for target in [
            CpuTarget::skylake_avx512(),
            CpuTarget::epyc_avx2(),
            CpuTarget::arm_a72_neon(),
            CpuTarget::host(),
        ] {
            for (ic, oc, size) in [(3, 64, 224), (8, 16, 12), (7, 13, 5), (1, 1, 1)] {
                let p = Conv2dParams::square(ic, oc, size, 3, 1, 1);
                let s = default_schedule(&p, &target);
                verify_schedule_for_target(&p, &s, &target)
                    .unwrap_or_else(|e| panic!("{target:?} {p:?}: {e}"));
            }
            for channels in [3, 7, 32, 144] {
                let p = Conv2dParams::depthwise(channels, 14, 3, 1, 1);
                let s = default_schedule(&p, &target);
                assert_eq!(s.ic_bn, s.oc_bn, "{target:?} depthwise blocks diverge");
                verify_schedule_for_target(&p, &s, &target)
                    .unwrap_or_else(|e| panic!("{target:?} {p:?}: {e}"));
            }
        }
    }

    #[test]
    fn verifier_rejects_mangled_schedule() {
        let g = small_net();
        let target = CpuTarget::host();
        let cfg = UniformPlanCfg {
            block: target.preferred_block(),
            reg_n: default_reg_n(&target),
            unroll: true,
        };
        let fused = fuse_ops(&simplify_inference(&g).unwrap()).unwrap();
        let mut planned = plan_uniform(&fused, &cfg).unwrap();
        let shapes = infer_shapes(&planned).unwrap();
        let layouts = infer_layouts(&planned, &shapes).unwrap();
        verify_module(&planned, &shapes, &layouts, &target).unwrap();
        // Mangle one conv's schedule after planning (reg_n = 0 is invalid
        // for every workload); the verifier must catch it.
        let id = planned.conv_ids()[0];
        let Op::Conv2d { schedule, .. } = &mut planned.nodes[id].op else { unreachable!() };
        let mut s = schedule.unwrap();
        s.reg_n = 0;
        *schedule = Some(s);
        let err = verify_module(&planned, &shapes, &layouts, &target).unwrap_err();
        assert!(
            matches!(err, NeoError::Verify { node, op: "conv2d", .. } if node == id),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn verifier_rejects_out_of_bounds_param() {
        let g = small_net();
        let target = CpuTarget::host();
        let fused = fuse_ops(&simplify_inference(&g).unwrap()).unwrap();
        let mut planned = plan_uniform(
            &fused,
            &UniformPlanCfg {
                block: target.preferred_block(),
                reg_n: default_reg_n(&target),
                unroll: true,
            },
        )
        .unwrap();
        let shapes = infer_shapes(&planned).unwrap();
        let layouts = infer_layouts(&planned, &shapes).unwrap();
        let id = planned.conv_ids()[0];
        let Op::Conv2d { weight, .. } = &mut planned.nodes[id].op else { unreachable!() };
        *weight = 10_000;
        let err = verify_module(&planned, &shapes, &layouts, &target).unwrap_err();
        assert!(matches!(err, NeoError::Verify { .. }), "unexpected error: {err}");
        assert!(err.to_string().contains("parameter index"));
    }

    #[test]
    fn db_load_helpers_map_errors() {
        let dir = std::env::temp_dir().join("neocpu-compile-dbload");
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("does-not-exist.tsv");
        assert!(matches!(load_scheme_db(&missing), Err(NeoError::Database(_))));
        let corrupt = dir.join("corrupt.tsv");
        std::fs::write(&corrupt, "neocpu-scheme-db v3\nnot a valid line\n").unwrap();
        assert!(matches!(load_scheme_db(&corrupt), Err(NeoError::Database(_))));
        let (db, problems) = load_scheme_db_lenient(&corrupt).unwrap();
        assert_eq!(db.len(), 0);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("line 2"), "missing line number: {}", problems[0]);
        // A file from a build that still searched the weight-stationary
        // dataflow: strict loading names the token, lenient loading drops
        // the row and keeps the rest, so compile degrades instead of failing.
        let old = dir.join("pre-removal.tsv");
        std::fs::write(
            &old,
            "neocpu-scheme-db v3\n\
             host 64x128x28x28k3x3s1x1p1x1 16 16 8 1 ws 1e-4\n\
             host 64x128x28x28k3x3s1x1p1x1 16 16 8 1 sr 2e-4\n",
        )
        .unwrap();
        match load_scheme_db(&old) {
            Err(NeoError::Database(msg)) => {
                assert!(msg.contains("line 2") && msg.contains("'ws'"), "unexpected: {msg}")
            }
            other => panic!("expected a database error, got {:?}", other.map(|db| db.len())),
        }
        let (db, problems) = load_scheme_db_lenient(&old).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("line 2"), "missing line number: {}", problems[0]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
