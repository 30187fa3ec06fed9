//! The compile pipeline: passes + search + weight pre-transformation.
//!
//! Serving-grade compilation adds two containment layers around the
//! optimization passes:
//!
//! 1. **Graceful degradation** — scheme-database entries (possibly loaded
//!    from a stale, corrupt, or foreign file) are verified against their
//!    workload *before* they can influence planning: the schedule must pass
//!    `ConvSchedule::validate` and the recorded time must be a finite,
//!    non-negative cost. Entries that fail are dropped and recorded in a
//!    [`CompileReport`]; a workload left with no viable scheme gets the
//!    unsearched schedule (`ConvSchedule::unsearched`) rather than aborting
//!    compilation. No schedule has to fit a register file: the template
//!    cuts every row into strips its tier's table holds (`StripPlan`), so a
//!    `reg_n` longer than the target's registers runs as the longest strip
//!    that fits.
//! 2. **Checks on the final graph** — each invariant is checked once before
//!    any kernel runs: structure (topological inputs, arity, parameter and
//!    output bounds) by `Graph::validate`, shapes against each conv's
//!    workload by `infer_shapes`, layout and dtype flow (u8 edges with their
//!    quantization parameters) and layout/shape agreement by
//!    `infer_layouts`. The one rule graph inference does not check is the
//!    schedule's own: every scheduled conv's schedule must divide its
//!    workload. `verify_module` checks that and reports a violation as a
//!    typed [`NeoError::Verify`].

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use neocpu_graph::passes::{
    fuse_ops, plan_assigned, plan_uniform, precompute_weights_in_place, simplify_inference,
    wrap_convs_with_transforms, UniformPlanCfg,
};
use neocpu_graph::{infer_layouts, infer_shapes, Graph, NodeId, Op};
use neocpu_kernels::conv::{Conv2dParams, ConvSchedule};
use neocpu_search::{
    extract_problem, local_search, solve, CostModel, GlobalCfg, LocalSearchCfg, RankedScheme,
    SchemeDatabase, TimedMeasurer,
};
use neocpu_tensor::DType;
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

/// A scheme-database entry rejected by verification during compilation.
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
    let module = finish_module(planned, target, opts, &mut report)?;
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

    let cfg = uniform_cfg(target);
    let planned = match opts.opt_level {
        OptLevel::O0 => fused,
        OptLevel::O1 => wrap_convs_with_transforms(&fused, &cfg)?,
        OptLevel::O2 => plan_uniform(&fused, &cfg)?,
        OptLevel::O3 => {
            // Every candidate the solver picks from is valid for its
            // workload — freshly searched, a database entry that passed
            // verification, or the unsearched fallback — so the schedules go
            // straight to layout planning; `verify_module` fails the compile
            // if that ever stops holding.
            let schedules = global_search(&fused, target, &cfg, opts, db, report, int8)?;
            plan_assigned(&fused, &schedules, &cfg)?
        }
    };
    Ok(planned)
}

/// Runs the back half of the pipeline on a planned graph: weight
/// pre-transformation, shape and layout inference, the check of every conv
/// schedule against its workload, parameter compaction, and executable module
/// construction. Taking the graph by value lets each plain weight go as
/// soon as its blocked copy exists, and the module keeps only the
/// parameters its nodes reference.
pub(crate) fn finish_module(
    mut g: Graph,
    target: &CpuTarget,
    opts: &CompileOptions,
    report: &mut CompileReport,
) -> Result<Module> {
    precompute_weights_in_place(&mut g)?;
    let shapes = infer_shapes(&g)?;
    let (layouts, dtypes) = infer_layouts(&g, &shapes)?;
    verify_module(&g)?;
    g.compact_params();
    let pool = make_pool(opts);
    let module = Module::new(g, shapes, layouts, dtypes, pool, target.max_lanes())?;
    report.memory = *module.memory_report();
    Ok(module)
}

/// Loads a scheme database: corrupt or invalid lines are skipped and
/// returned as line-numbered diagnostics alongside the surviving entries,
/// so a damaged cache degrades instead of blocking startup. A caller that
/// wants a clean file checks that the list is empty.
///
/// # Errors
///
/// Returns [`NeoError::Database`] only if the file cannot be read at all.
pub fn load_scheme_db(path: &Path) -> Result<(SchemeDatabase, Vec<String>)> {
    crate::faults::fire(crate::faults::DB_LOAD)?;
    let (db, problems) =
        SchemeDatabase::load(path).map_err(|e| NeoError::Database(e.to_string()))?;
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
/// Cached database entries are verified against their workload first;
/// failures are dropped into `report` (the database may have been loaded
/// from a stale or corrupt file, or edited by hand). Freshly searched
/// candidates are valid by construction. A workload left without any
/// viable scheme degrades to the unsearched schedule of `cfg`.
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
    cfg: &UniformPlanCfg,
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
        },
    };
    let timed = match opts.search {
        SearchStrategy::Analytical => None,
        SearchStrategy::Hybrid { repeats, .. } => {
            Some(TimedMeasurer { repeats, warmup: 1, max_lanes: target.max_lanes() })
        }
    };
    let mut ranked = |node: NodeId, params: &Conv2dParams| -> Vec<RankedScheme> {
        let mut kept = verified_schemes(db, &target.name, node, params, DType::F32, report, || {
            match &timed {
                Some(t) => local_search(params, t, &local_cfg),
                None => local_search(params, &analytical, &local_cfg),
            }
        });
        if kept.is_empty() {
            let fb = ConvSchedule::unsearched(params, cfg.block, cfg.reg_n);
            report.fallbacks.push(ScheduleFallback {
                node,
                params: *params,
                fallback: fb,
                reason: "no scheme survived verification".into(),
            });
            let t = analytical.conv_time(params, &fb);
            let time = if t.is_finite() && t >= 0.0 { t } else { 1.0 };
            kept.push(RankedScheme { schedule: fb, time });
        }
        // The database ends up holding only verified entries for this
        // target — dropped schemes never resurface on the next compile.
        // `replace` (not the merging `put`) is load-bearing here: merging
        // would resurrect the very entries verification just rejected.
        db.replace(&target.name, params, kept.clone());
        if int8 {
            let kept8 = verified_schemes(db, &target.name, node, params, DType::U8, report, || {
                local_search(params, &Int8Cost(&analytical), &local_cfg)
            });
            db.replace_dtyped(&target.name, params, DType::U8, kept8.clone());
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

/// One workload's candidate list for `dtype`: the database's entry for
/// `target` minus the schemes that fail [`verify_ranked`] (each drop
/// recorded in `report`), or, without an entry, `search()`'s list.
fn verified_schemes(
    db: &SchemeDatabase,
    target: &str,
    node: NodeId,
    params: &Conv2dParams,
    dtype: DType,
    report: &mut CompileReport,
    search: impl FnOnce() -> Vec<RankedScheme>,
) -> Vec<RankedScheme> {
    let Some(cached) = db.get_dtyped(target, params, dtype) else {
        return search();
    };
    cached
        .iter()
        .filter(|r| match verify_ranked(params, r) {
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
        .cloned()
        .collect()
}

/// Checks a ranked database entry against its workload: a valid schedule
/// (Algorithm 1 divisibility) and a sane cost value.
fn verify_ranked(params: &Conv2dParams, ranked: &RankedScheme) -> std::result::Result<(), String> {
    ranked.schedule.validate(params).map_err(|e| e.to_string())?;
    if !ranked.time.is_finite() || ranked.time < 0.0 {
        return Err(format!("recorded time {} is not a sane cost", ranked.time));
    }
    Ok(())
}

/// Checks every scheduled conv of the final graph against its workload
/// with `ConvSchedule::validate` — the one invariant graph inference does
/// not check. A violation surfaces as [`NeoError::Verify`] instead of
/// reaching kernel code.
fn verify_module(g: &Graph) -> Result<()> {
    for (id, node) in g.nodes.iter().enumerate() {
        if let Op::Conv2d { params, schedule: Some(s), .. } = &node.op {
            s.validate(params).map_err(|e| NeoError::Verify {
                node: id,
                op: node.op.name(),
                message: e.to_string(),
            })?;
        }
    }
    Ok(())
}

/// The uniform plan of O1 and O2 for `target`, whose schedules are also the
/// fallback of O3: channel blocks of the vector width, and strips of at
/// most the target's default register blocking.
fn uniform_cfg(target: &CpuTarget) -> UniformPlanCfg {
    let reg_n = match target.isa {
        crate::IsaKind::Avx512 => 16,
        crate::IsaKind::Avx2 | crate::IsaKind::Neon => 8,
        crate::IsaKind::Generic => 4,
    };
    UniformPlanCfg { block: target.preferred_block(), reg_n }
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
    use neocpu_graph::{GraphBuilder, GraphError};
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
                schedule: ConvSchedule { ic_bn: 5, oc_bn: 16, reg_n: 8, ..Default::default() },
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
                schedule: ConvSchedule { ic_bn: 8, oc_bn: 16, reg_n: 8, ..Default::default() },
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
    fn unsearched_schedule_always_validates() {
        for target in [
            CpuTarget::skylake_avx512(),
            CpuTarget::epyc_avx2(),
            CpuTarget::arm_a72_neon(),
            CpuTarget::host(),
        ] {
            let cfg = uniform_cfg(&target);
            for (ic, oc, size) in [(3, 64, 224), (8, 16, 12), (7, 13, 5), (1, 1, 1)] {
                let p = Conv2dParams::square(ic, oc, size, 3, 1, 1);
                let s = ConvSchedule::unsearched(&p, cfg.block, cfg.reg_n);
                s.validate(&p).unwrap_or_else(|e| panic!("{target:?} {p:?}: {e}"));
            }
            for channels in [3, 7, 32, 144] {
                let p = Conv2dParams::depthwise(channels, 14, 3, 1, 1);
                let s = ConvSchedule::unsearched(&p, cfg.block, cfg.reg_n);
                assert_eq!(s.ic_bn, s.oc_bn, "{target:?} depthwise blocks diverge");
                s.validate(&p).unwrap_or_else(|e| panic!("{target:?} {p:?}: {e}"));
            }
        }
    }

    /// A `reg_n` longer than the target's register file holds is no fault:
    /// the template runs the longest strip its tier's table holds in its
    /// place, so `reg_n` 28 at `oc_bn` 8 on AVX2 runs as the 12-pixel strips
    /// of `reg_n` 12 and computes the same bits.
    #[test]
    fn a_reg_n_beyond_the_register_file_runs_as_the_strips_that_fit() {
        let target = CpuTarget::epyc_avx2();
        let input = Tensor::random([1, 8, 12, 12], Layout::Nchw, 9, 1.0).unwrap();
        let opts = CompileOptions::level(OptLevel::O2);
        let run = |reg_n| {
            let mut g = planned_small_net(&target);
            let first = g.conv_ids()[0];
            let s = schedule_of(&mut g, first);
            assert_eq!(s.oc_bn, 8);
            s.reg_n = reg_n;
            let m = finish_module(g, &target, &opts, &mut CompileReport::default()).unwrap();
            m.run(std::slice::from_ref(&input)).unwrap().remove(0)
        };
        let (long, fitting) = (run(28), run(12));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&long), bits(&fitting));
    }

    /// `small_net` after the front half of the pipeline at O2 for `target`.
    fn planned_small_net(target: &CpuTarget) -> Graph {
        let cfg = uniform_cfg(target);
        plan_uniform(&fuse_ops(&simplify_inference(&small_net()).unwrap()).unwrap(), &cfg).unwrap()
    }

    fn schedule_of(g: &mut Graph, conv: NodeId) -> &mut ConvSchedule {
        let Op::Conv2d { schedule: Some(s), .. } = &mut g.nodes[conv].op else { unreachable!() };
        s
    }

    /// Each way a planned graph can be broken that the compile must refuse,
    /// and the node the typed error has to name. Each invariant has one
    /// check — `Graph::validate`, `infer_layouts` or `verify_module` — and
    /// none of them may panic on the way.
    #[test]
    fn finish_module_rejects_each_mangled_graph_at_its_node() {
        type NodeOf = fn(&NeoError) -> Option<NodeId>;
        type Case = (&'static str, usize, fn(&mut Graph, NodeId), NodeOf);
        let layout: NodeOf = |e| match e {
            NeoError::Graph(GraphError::Layout { node, .. }) => Some(*node),
            _ => None,
        };
        let verify: NodeOf = |e| match e {
            NeoError::Verify { node, op: "conv2d", .. } => Some(*node),
            _ => None,
        };
        // (what breaks, which conv, how, the node its error names)
        let cases: [Case; 5] = [
            ("conv input not NCHW{ic_bn}c", 0, |g, c| schedule_of(g, c).ic_bn = 4, layout),
            ("residual layout differs from the output", 1, |g, c| {
                schedule_of(g, c).oc_bn = 8;
                let Op::Conv2d { residual, .. } = &mut g.nodes[c].op else { unreachable!() };
                *residual = true;
                let x = g.nodes[c].inputs[0];
                g.nodes[c].inputs.push(x);
            }, layout),
            ("input not topologically earlier", 0, |g, c| g.nodes[c].inputs[0] = c, |e| {
                match e {
                    NeoError::Graph(GraphError::BadNodeRef { node, .. }) => Some(*node),
                    _ => None,
                }
            }),
            ("parameter index out of range", 0, |g, c| {
                let Op::Conv2d { weight, .. } = &mut g.nodes[c].op else { unreachable!() };
                *weight = 10_000;
            }, |e| match e {
                NeoError::Graph(GraphError::BadParamRef { node, param: 10_000 }) => Some(*node),
                _ => None,
            }),
            ("reg_n 0, invalid for every workload", 0, |g, c| schedule_of(g, c).reg_n = 0, verify),
        ];
        let opts = CompileOptions::level(OptLevel::O2);
        let target = CpuTarget::skylake_avx512();
        for (name, conv, mangle, node_of) in cases {
            let mut g = planned_small_net(&target);
            finish_module(g.clone(), &target, &opts, &mut CompileReport::default())
                .unwrap_or_else(|e| panic!("{name}: the unmangled graph failed: {e}"));
            let id = g.conv_ids()[conv];
            mangle(&mut g, id);
            let Err(err) = finish_module(g, &target, &opts, &mut CompileReport::default()) else {
                panic!("{name}: the mangled graph compiled");
            };
            assert_eq!(node_of(&err), Some(id), "{name}: unexpected error {err}");
        }
    }

    /// A concat of a rank-4 and a rank-2 input, in either order, is a
    /// typed shape error at the concat, at every level.
    #[test]
    fn mixed_rank_concat_is_a_shape_error() {
        let mut g = Graph::default();
        let x = g.push(Op::Input { shape: vec![1, 4, 8, 8] }, vec![]);
        let y = g.push(Op::Input { shape: vec![1, 4] }, vec![]);
        for inputs in [vec![x, y], vec![y, x]] {
            let mut g = g.clone();
            let cat = g.push(Op::Concat, inputs);
            g.outputs = vec![cat];
            for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
                let opts = CompileOptions::level(level);
                let err = compile(&g, &CpuTarget::host(), &opts).unwrap_err();
                assert!(
                    matches!(&err, NeoError::Graph(GraphError::Shape { node, .. }) if *node == cat),
                    "{level:?}: unexpected error {err}"
                );
            }
        }
    }

    #[test]
    fn db_load_helper_maps_errors() {
        let dir = std::env::temp_dir().join("neocpu-compile-dbload");
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("does-not-exist.tsv");
        assert!(matches!(load_scheme_db(&missing), Err(NeoError::Database(_))));
        let corrupt = dir.join("corrupt.tsv");
        std::fs::write(&corrupt, "neocpu-scheme-db v4\nnot a valid line\n").unwrap();
        let (db, problems) = load_scheme_db(&corrupt).unwrap();
        assert_eq!(db.len(), 0);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("line 2"), "missing line number: {}", problems[0]);
        // A row naming the removed weight-stationary dataflow: loading
        // names the line and the token, drops the row and keeps the rest,
        // so compile degrades instead of failing.
        let old = dir.join("pre-removal.tsv");
        std::fs::write(
            &old,
            "neocpu-scheme-db v4\n\
             host 64x128x28x28k3x3s1x1p1x1 16 16 8 ws 1e-4\n\
             host 64x128x28x28k3x3s1x1p1x1 16 16 8 sr 2e-4\n",
        )
        .unwrap();
        let (db, problems) = load_scheme_db(&old).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0].contains("line 2") && problems[0].contains("'ws'"),
            "unexpected: {}",
            problems[0]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
